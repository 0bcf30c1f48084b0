import json
import os
import stat
from hashlib import sha256
import subprocess
import sys

import pytest

from conftest import needs_n6, needs_n7, needs_n8
from revtop.enumeration import catalog

RUN = [sys.executable, "-m", "revtop"]


def run_cli(*args, stdin: str = ""):
    return subprocess.run(RUN + list(args), capture_output=True, input=stdin.encode(),
                          timeout=120)


def test_parser_leaves_the_countable_layer_unloaded():
    code = ("import sys, revtop.cli\n"
            "revtop.cli.build_parser()\n"
            "print(sorted(m for m in ('revtop.symbolic', 'revtop.descriptors') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


def run_bare(code: str):
    """Run code in a fresh python -S, so that site packages play no part and
    load nothing, with src put on sys.path by hand and sys imported."""
    import revtop
    src = os.path.dirname(os.path.dirname(os.path.abspath(revtop.__file__)))
    return subprocess.run([sys.executable, "-S", "-c",
                           f"import sys\nsys.path.insert(0, {src!r})\n" + code],
                          capture_output=True, timeout=60)


def test_parser_imports_no_dataclasses():
    """Neither the parser nor the countable layer loads dataclasses (or the
    inspect it imports); tempfile waits for a file to write, json for output
    to serialise and random for a command that samples."""
    proc = run_bare("import revtop.cli\n"
                    "revtop.cli.build_parser()\n"
                    "print(sorted(m for m in ('dataclasses', 'inspect', 'json', 'random',\n"
                    "                         'tempfile') if m in sys.modules))\n"
                    "import revtop.symbolic\n"
                    "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n[]\n"


def test_text_output_leaves_json_unloaded():
    # enum and verify print text without loading json; the first json output
    # loads it and prints the bytes recorded while json was loaded up front
    proc = run_bare("from revtop.cli import main\n"
                    "main(['enum', '--n', '3'])\n"
                    "main(['verify', '--suite', 'enum,thm31', '--n', '3'])\n"
                    "print('json' in sys.modules)\n"
                    "main(['enum', '--n', '3', '--format', 'json'])\n")
    assert proc.returncode == 0, proc.stderr
    head = (b"n=3 topologies=29 orbits=9\n"
            b"enum: 29/29 agree (count=29)\n"
            b"thm31: 29/29 agree (strongly_reversible=2 expected=2)\n"
            b"False\n")
    assert proc.stdout.startswith(head)
    assert sha256(proc.stdout[len(head):]).hexdigest() == (
        "9a3102757886bd215b96ec90f6828c3eea56198b0efa4632b09359f9f3144b01")


def test_enum_summary():
    proc = run_cli("enum", "--n", "3", "--format", "summary")
    assert proc.returncode == 0
    assert proc.stdout == b"n=3 topologies=29 orbits=9\n"


def test_enum_json_lines_match_catalog():
    proc = run_cli("enum", "--n", "2", "--format", "json")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert rows == [t.to_json() for t in catalog(2).topologies]


def test_enum_writes_file_atomically(tmp_path):
    target, plain = tmp_path / "out.jsonl", tmp_path / "plain"
    proc = run_cli("enum", "--n", "2", "--format", "json", "--out", str(target))
    assert proc.returncode == 0
    assert len(target.read_text().splitlines()) == 4
    assert not list(tmp_path.glob(".revtop-*"))
    # the file gets the mode a plain write under the same umask gives
    plain.write_text("")
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_streamed_output_stays_atomic(tmp_path):
    # chunks are written as they are made; a failure part way leaves the
    # target untouched and no temporary file behind
    from revtop.cli import _emit

    target = tmp_path / "out.jsonl"
    target.write_text("old\n")

    def chunks():
        yield "first\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _emit(chunks(), str(target))
    assert target.read_text() == "old\n"
    assert not list(tmp_path.glob(".revtop-*"))
    _emit((f"{i}\n" for i in range(3)), str(target))
    assert target.read_text() == "0\n1\n2\n"


def test_classify_formats():
    summary = run_cli("classify", "--n", "3")
    assert summary.stdout == (b"n=3 topologies=29 orbits=9 "
                              b"strongly_reversible_orbits=2\n")
    csv = run_cli("classify", "--n", "2", "--format", "csv")
    lines = csv.stdout.decode().splitlines()
    assert lines[0].startswith("opens;")
    assert len(lines) == 4  # header + three orbits
    rows = run_cli("classify", "--n", "2", "--format", "json")
    parsed = [json.loads(line) for line in rows.stdout.decode().splitlines()]
    assert [r["classification"] for r in parsed] == [
        "discrete", "not_strongly_reversible", "antidiscrete"]


def test_classify_summary_counts_its_own_rows(monkeypatch, capsys):
    # the counts come from the orbits the command classified, not from a
    # second walk of the cover graph
    import revtop.cli as cli
    import revtop.enumeration as enumeration

    def forbidden(n):
        raise RuntimeError("walked the cover graph")

    monkeypatch.setattr(enumeration, "cover_graph", forbidden)
    monkeypatch.setattr(cli, "catalog", enumeration.enumerate_topologies)
    assert cli.main(["classify", "--n", "3"]) == 0
    assert capsys.readouterr().out == "n=3 topologies=29 orbits=9 strongly_reversible_orbits=2\n"


def test_order_outputs(tmp_path):
    dot, js = tmp_path / "h.dot", tmp_path / "h.json"
    proc = run_cli("order", "--n", "2", "--dot", str(dot), "--json", str(js))
    assert proc.returncode == 0
    assert proc.stdout == b"n=2 nodes=3 edges=2\n"
    text = dot.read_text()
    assert text.startswith("digraph") and text.rstrip().endswith("}")
    assert text.count("->") == 2
    data = json.loads(js.read_text())
    assert len(data["nodes"]) == 3
    assert data["leq"] == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
    assert sorted(map(tuple, data["hasse"])) == [(1, 0), (2, 1)]


# SHA-256 of the output at n=4 and of the countable commands: the bytes each
# command prints or writes must not change unless a change says so
GOLDEN_STDOUT = [
    (("enum", "--n", "4", "--format", "json"),
     "12f128602d4d15f54fd0ea5e9738727c312bf389ff12f600fa950f41e98f4b59"),
    (("classify", "--n", "4", "--format", "csv"),
     "3e68eebbeca144a0bab42df256dae81325aec68fee3d66f98bc9816f4ec14eaa"),
    (("classify", "--n", "4", "--format", "json"),
     "35d50bbbe6fdf9d7d3d1a7c674146aaf7c2228cf6ca648c7bcbdece12d925592"),
    (("witness", "ordered-z", "--c", "17", "--iterate", "50"),
     "780fd398a272a432e584118bb0826fdc5e2986a0fd2f11e5ca0245f7406928ad"),
    (("ostar", "--check", "blocking", "--family-size", "16", "--samples", "40", "--seed", "3"),
     "f579dbd2bb7cf494169aa2868720b752583e6585bafa39095aea846e04a4dfcf"),
    (("ostar", "--check", "closure", "--family-size", "16", "--samples", "200", "--seed", "3"),
     "67745a9bf2ae4b543de960a563ba460525f4b6e7489071272459a454c3ba66cc"),
]


# the same at n=5, the size the benchmark runs
GOLDEN_STDOUT_N5 = [
    (("classify", "--n", "5", "--format", "csv"),
     "02137bb9782d8a619eaea376163d1f9622fee6d8ec226a3983305fc4f1bbc8a5"),
    (("classify", "--n", "5", "--format", "json"),
     "a3596e5b7dd0a4881f2ac724b6a2eebe45f0bb2cc1959c50444b9ee466b7c111"),
    (("verify", "--suite", "enum,fact11,fact12,prop14,thm31", "--n", "5",
      "--seed", "1", "--samples", "1000"),
     "b0e895bb670b4fe6269dcd2dd5fd02e8a0bc3bf87a25e936dfe1e76dfeeb4c26"),
    (("enum", "--n", "5", "--format", "json"),
     "42f8a637257cae1eb4329bb9f49ad376f0be716d2ef3b42b376a0756edbeb978"),
    (("enum", "--n", "5"),
     "ee073b130237e64646eab66066bcc649d8c653db50b7e1819c246ef4bf896dc7"),
]


def assert_golden_stdout(args, digest, capsys):
    from revtop.cli import main
    assert main(list(args)) == 0
    assert sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", GOLDEN_STDOUT)
def test_golden_stdout_n4(args, digest, capsys):
    assert_golden_stdout(args, digest, capsys)


@pytest.mark.parametrize("args,digest", GOLDEN_STDOUT_N5)
def test_golden_stdout_n5(args, digest, capsys):
    assert_golden_stdout(args, digest, capsys)


def assert_golden_order_files(tmp_path, capsys, n, line, json_digest, dot_digest):
    from revtop.cli import main
    js, dot = tmp_path / "h.json", tmp_path / "h.dot"
    assert main(["order", "--n", str(n), "--json", str(js), "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == line
    assert sha256(js.read_bytes()).hexdigest() == json_digest
    assert sha256(dot.read_bytes()).hexdigest() == dot_digest


ORDER_N4 = (4, "n=4 nodes=33 edges=68\n",
            "4db52746f2d6c8b361b8b0583c01f711093eb09227a5f1ff0a084e6c6e82faff",
            "a5e54e770a085a01bed9ee58fe75f3e7b5ddcde47f40e51f2cf81c3dedf058a7")


def test_golden_order_files_n4(tmp_path, capsys):
    assert_golden_order_files(tmp_path, capsys, *ORDER_N4)


def test_golden_order_files_n5(tmp_path, capsys):
    assert_golden_order_files(
        tmp_path, capsys, 5, "n=5 nodes=139 edges=413\n",
        "96fd9421f784c49aeb6950661282a150452032700d37ea947e072e33fac93e8e",
        "58a30e4495a309689ce3d8b8f03eaf7d6efc8eaf6a84097b371d9deec2abad32")


# the same at n=6, behind REVTOP_N6=1: each command builds catalog(6)
GOLDEN_STDOUT_N6 = [
    (("enum", "--n", "6"),
     "a4966827a5841bb4eeff0d6f2ef988f87d6f12fd6f4aed23d17af0b8ee490d18"),
    (("classify", "--n", "6", "--format", "csv"),
     "a61a80311cf74fdced2863b932700f7687122c9bbf951ec87a3f4af915cff33d"),
]


@needs_n6
@pytest.mark.parametrize("args,digest", GOLDEN_STDOUT_N6)
def test_golden_stdout_n6(args, digest, capsys, monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    assert_golden_stdout(args, digest, capsys)


@needs_n6
def test_golden_order_files_n6(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    assert_golden_order_files(
        tmp_path, capsys, 6, "n=6 nodes=718 edges=2894\n",
        "17a059cf09816b3dec1f7f8b0f01471e28829c47d0e8997760f2660f1fe39c8b",
        "e5b4dccc4754fa3661b2b31e922238b0ec470bb612f5f1327c280b1223b2005f")


def test_only_enum_json_and_two_suites_sort_the_members(tmp_path, monkeypatch, capsys):
    """Every other finite command reads the orbit map alone."""
    from revtop.cli import main
    from revtop.enumeration import TopologyCatalog

    def forbidden(cat):
        raise RuntimeError("sorted the catalog's members")

    monkeypatch.setattr(TopologyCatalog, "topologies", property(forbidden))
    for args in (["enum", "--n", "4"],
                 ["order", "--n", "4", "--dot", str(tmp_path / "h.dot"),
                  "--json", str(tmp_path / "h.json")],
                 ["classify", "--n", "4"],
                 ["classify", "--n", "4", "--format", "csv"],
                 ["classify", "--n", "4", "--format", "json"],
                 ["verify", "--suite", "fact11,prop14,thm31", "--n", "4"]):
        assert main(args) == 0, args
    for args in (["enum", "--n", "4", "--format", "json"],
                 ["verify", "--suite", "enum", "--n", "4"],
                 ["verify", "--suite", "fact12", "--n", "4"]):
        with pytest.raises(RuntimeError, match="sorted the catalog's members"):
            main(args)
    capsys.readouterr()


def test_enum_summary_and_order_build_no_catalog(tmp_path, monkeypatch, capsys):
    """Neither expands an orbit of the labelled catalog: with the orbit map
    refused, whether the catalog is cached or not, both print their golden
    bytes.  The summary counts the orbit sizes of the canonical keys."""
    from revtop.cli import main
    from revtop.enumeration import TopologyCatalog

    def forbidden(cat):
        raise RuntimeError("built the labelled catalog")

    monkeypatch.setattr(TopologyCatalog, "orbits", property(forbidden))
    assert main(["enum", "--n", "4"]) == 0
    assert capsys.readouterr().out == "n=4 topologies=355 orbits=33\n"
    assert_golden_order_files(tmp_path, capsys, *ORDER_N4)
    with pytest.raises(RuntimeError, match="built the labelled catalog"):
        main(["enum", "--n", "4", "--format", "json"])


@needs_n7
def test_enum_and_order_n7(tmp_path, monkeypatch, capsys):
    from revtop.cli import main
    monkeypatch.setenv("REVTOP_MAX_N", "7")
    assert main(["enum", "--n", "7"]) == 0
    assert capsys.readouterr().out == "n=7 topologies=9535241 orbits=4535\n"
    assert main(["order", "--n", "7"]) == 0
    assert capsys.readouterr().out == "n=7 nodes=4535 edges=24192\n"


@needs_n8
def test_enum_n8(monkeypatch, capsys):
    from revtop.cli import main
    monkeypatch.setenv("REVTOP_MAX_N", "8")
    assert main(["enum", "--n", "8"]) == 0
    assert capsys.readouterr().out == "n=8 topologies=642779354 orbits=35979\n"


def test_verify_all_suites_pass():
    proc = run_cli("verify", "--suite", "fact11,fact12,prop14,thm31", "--n", "3")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "fact11: 29/29 agree"
    assert lines[1] == "fact12: 841/841 agree"


def test_verify_enum_suite():
    proc = run_cli("verify", "--suite", "enum", "--n", "3")
    assert proc.returncode == 0
    assert "count=29" in proc.stdout.decode()


def test_verify_enum_names_the_first_difference(monkeypatch, capsys):
    import revtop.suites
    from revtop.cli import main
    from revtop.enumeration import enumerate_topologies_by_closure

    dropped = catalog(3).topologies[5]
    monkeypatch.setattr(revtop.suites, "enumerate_topologies_by_closure",
                        lambda n: tuple(t for t in enumerate_topologies_by_closure(n)
                                        if t != dropped))
    assert main(["verify", "--suite", "enum", "--n", "3"]) == 1
    assert capsys.readouterr().out == (
        f"enum: 0/29 agree (count=29; first difference: opens {list(dropped.opens)} "
        "only in the catalog)\n")


def test_verify_unknown_suite_is_usage_error(monkeypatch, capsys):
    proc = run_cli("verify", "--suite", "nope", "--n", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: unknown suite 'nope'; choose from ")
    # every name is checked before the first suite runs
    import revtop.suites
    from revtop.cli import main

    ran = []
    monkeypatch.setitem(revtop.suites.SUITES, "fact11", lambda n, **kw: ran.append(n))
    assert main(["verify", "--suite", "fact11,nope", "--n", "2"]) == 2
    assert ran == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ("verify", "--suite", ",", "--n", "3"),
    ("verify", "--suite", "fact12", "--n", "4", "--samples", "0"),
    ("verify", "--suite", "fact12", "--n", "4", "--samples", "-5"),
    ("ostar", "--check", "closure", "--samples", "-3"),
    ("ostar", "--check", "blocking", "--samples", "0"),
    ("ostar", "--check", "closure", "--family-size", "0"),
    ("ostar", "--check", "blocking", "--family-size", "-3"),
    ("witness", "ordered-z", "--iterate", "0"),
    ("witness", "ordered-z", "--iterate", "-5"),
    ("ramsey", "--mode", "pairs", "--k", "-3"),     # a size check that can never fail
    ("ramsey", "--mode", "injective", "--k", "-1"),
])
def test_checking_nothing_is_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ")
    assert proc.stdout == b""


@pytest.mark.parametrize("args,option", [
    ((), b"--k"),                                  # the default --k 0
    (("--k", "5", "--fuel", "3"), b"--fuel"),
])
def test_ramsey_increasing_sizes_are_checked_before_reading(tmp_path, args, option):
    # the input file does not exist, so only a check made before reading
    # can name the option
    proc = run_cli("ramsey", "--mode", "increasing", *args, str(tmp_path / "missing.txt"))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: " + option + b" must be at least ")


def test_usage_errors():
    proc = run_cli("no-such-command")
    assert proc.returncode == 2
    proc = run_cli("enum")
    assert proc.returncode == 2
    proc = run_cli("enum", "--n", "9")
    assert proc.returncode == 2  # over the configured cap
    assert b"cap" in proc.stderr
    proc = run_cli("witness", "bogus")
    assert proc.returncode == 2  # refused by the parser's choices
    assert proc.stdout == b""


def test_witness_json_shape():
    proc = run_cli("witness", "ordered-z", "--c", "0")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["map"] == {"tag": "shiftz", "k": 1}
    assert data["image_c"] == 1
    assert data["separator"] == {"tag": "openleft", "b": 1}
    assert data["verified"] is True


def test_witness_chain():
    proc = run_cli("witness", "ordered-z", "--c", "2", "--iterate", "4")
    data = json.loads(proc.stdout)
    assert data["verified"] is True
    assert [w["image_c"] for w in data["chain"]] == [3, 4, 5, 6]


def test_witness_chain_verifies_each_link_once(monkeypatch, capsys):
    from revtop.cli import main
    from revtop.symbolic import NonreversibilityWitness
    calls = []
    verify = NonreversibilityWitness.verify

    def counted(self):
        calls.append(self)
        return verify(self)

    monkeypatch.setattr(NonreversibilityWitness, "verify", counted)
    assert main(["witness", "ordered-z", "--iterate", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert len(calls) == 4


@pytest.mark.parametrize("iterate", ["1", "3"])
def test_witness_failing_verification_exits_1(monkeypatch, capsys, iterate):
    from revtop.cli import main
    from revtop.symbolic import NonreversibilityWitness
    monkeypatch.setattr(NonreversibilityWitness, "verify", lambda self: False)
    assert main(["witness", "ordered-z", "--iterate", iterate]) == 1
    assert json.loads(capsys.readouterr().out)["verified"] is False


def test_ostar_suites():
    closure = run_cli("ostar", "--family-size", "6", "--check", "closure",
                      "--samples", "10", "--seed", "1")
    assert closure.returncode == 0
    assert json.loads(closure.stdout)["failures"] == 0
    blocking = run_cli("ostar", "--family-size", "6", "--check", "blocking",
                       "--samples", "10", "--seed", "1")
    assert blocking.returncode == 0
    assert json.loads(blocking.stdout)["failures"] == 0


def test_ramsey_modes(tmp_path):
    proc = run_cli("ramsey", "--mode", "pairs", "--coloring", "increasing",
                   stdin="1 2 3 4 5 6 7 8")
    data = json.loads(proc.stdout)
    assert data["kind"] == "strictly_increasing" and data["size"] == 8
    source = tmp_path / "vals.txt"
    source.write_text("4 4 4 4 1 2\n")
    proc = run_cli("ramsey", "--mode", "injective", str(source))
    data = json.loads(proc.stdout)
    assert data["kind"] == "constant" and data["value"] == 4
    proc = run_cli("ramsey", "--mode", "increasing", "--k", "3", "--fuel", "100",
                   stdin="5 5 5 5 5")
    data = json.loads(proc.stdout)
    assert data["kind"] == "constant" and data["found"]


def test_ramsey_not_found_exit_code():
    proc = run_cli("ramsey", "--mode", "increasing", "--k", "4", "--fuel", "5",
                   stdin="9 8 7 6 5")
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"found": False}


# Drawn once from random.Random(25), values 0..5: the two longest runs tie
# at 6, and many runs of each length end on repeated values.
TIED = "3 0 1 2 5 3 0 2 0 2 4 3 0 4 0 4 5 5 1 4"
DESCENT = "4 4 3 3 3 2 2 1 3"


@pytest.mark.parametrize("args,stdin,code,stdout", [
    (("--mode", "pairs", "--coloring", "increasing"), TIED, 0,
     '{"found":true,"indices":[1,2,9,11,15,17],"kind":"strictly_increasing","size":6}'),
    (("--mode", "pairs", "--coloring", "distinct"), TIED, 0,
     '{"found":true,"indices":[0,1,2,3,4,10],"kind":"injective","size":6}'),
    (("--mode", "pairs", "--coloring", "increasing", "--k", "7"), TIED, 1,
     '{"found":true,"indices":[1,2,9,11,15,17],"kind":"strictly_increasing","size":6}'),
    (("--mode", "injective"), TIED, 0,
     '{"found":true,"indices":[1,6,8,12,14],"kind":"constant","size":5,"value":0}'),
    (("--mode", "injective", "--k", "6"), TIED, 1,
     '{"found":true,"indices":[1,6,8,12,14],"kind":"constant","size":5,"value":0}'),
    (("--mode", "increasing", "--k", "3", "--fuel", "20"), TIED, 0,
     '{"found":true,"indices":[1,2,3],"kind":"strictly_increasing","size":3}'),
    (("--mode", "increasing", "--k", "5", "--fuel", "20", "--coloring", "distinct"), TIED, 0,
     '{"found":true,"indices":[1,2,3,5,10],"kind":"strictly_increasing","size":5}'),
    (("--mode", "increasing", "--k", "7", "--fuel", "20"), TIED, 1, '{"found":false}'),
    (("--mode", "pairs", "--coloring", "increasing"), DESCENT, 0,
     '{"found":true,"indices":[0,1,2,3,4,5,6,7],"kind":"non_increasing","size":8}'),
    (("--mode", "pairs", "--coloring", "distinct"), DESCENT, 0,
     '{"found":true,"indices":[0,2,5,7],"kind":"injective","size":4}'),
    (("--mode", "injective"), DESCENT, 0,
     '{"found":true,"indices":[2,3,4,8],"kind":"constant","size":4,"value":3}'),
    (("--mode", "increasing", "--k", "3", "--fuel", "9"), DESCENT, 0,
     '{"found":true,"indices":[2,3,4],"kind":"constant","size":3,"value":3}'),
], ids=["pairs-increasing", "pairs-distinct", "pairs-below-k", "injective", "injective-below-k",
        "increasing-k3", "increasing-k5", "increasing-no-fuel", "descent-pairs-increasing",
        "descent-pairs-distinct", "descent-injective", "descent-increasing"])
def test_ramsey_golden_output(args, stdin, code, stdout):
    """Exact stdout and exit code, including which run wins a tie."""
    proc = run_cli("ramsey", *args, stdin=stdin)
    assert (proc.returncode, proc.stdout) == (code, stdout.encode() + b"\n")


def test_ramsey_bad_token_is_usage_error():
    proc = run_cli("ramsey", "--mode", "increasing", "--k", "2", "--fuel", "3",
                   stdin="1 2 3 4 x")
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"error: invalid literal for int() with base 10: 'x'\n"


def test_ramsey_bad_token_in_file_is_usage_error(tmp_path):
    source = tmp_path / "vals.txt"
    source.write_text("3 1\n2 0x7\n")
    proc = run_cli("ramsey", "--mode", "pairs", str(source))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: invalid literal for int() with base 10: '0x7'\n"


def test_ramsey_parses_unicode_whitespace_and_digits(tmp_path):
    """Tokens are split by str.split and read by int, from a file and from
    stdin alike: an em space and a no-break space separate values, and
    Arabic-Indic digits are a number."""
    text = "3\u20031\u00a02 \u0661\u0662 5\n"
    source = tmp_path / "vals.txt"
    source.write_bytes(text.encode())
    env = dict(os.environ, PYTHONUTF8="1")     # decode both as UTF-8 whatever the locale
    want = b'{"found":true,"indices":[1,2,4],"kind":"strictly_increasing","size":3}\n'
    args = RUN + ["ramsey", "--mode", "pairs", "--coloring", "increasing"]
    for extra, stdin in (([str(source)], b""), ([], text.encode()), (["-"], text.encode())):
        proc = subprocess.run(args + extra, capture_output=True, input=stdin, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b""), extra


def test_failed_self_check_is_internal_error(tmp_path, monkeypatch, capsys):
    import revtop.ramsey
    from revtop.cli import main
    source = tmp_path / "vals.txt"
    source.write_text("3 1 2\n")
    monkeypatch.setattr(revtop.ramsey, "verify_result", lambda values, result: False)
    assert main(["ramsey", "--mode", "pairs", str(source)]) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: extracted set fails verification: ")


@pytest.mark.parametrize("args,stdin", [
    (("enum", "--n", "3", "--format", "json"), ""),
    (("classify", "--n", "3", "--format", "csv"), ""),
    (("verify", "--suite", "fact11,thm31", "--n", "3", "--seed", "5"), ""),
    (("witness", "ordered-z", "--c", "1", "--iterate", "3"), ""),
    (("ostar", "--family-size", "5", "--check", "blocking", "--samples", "8",
      "--seed", "9"), ""),
    (("ramsey", "--mode", "pairs", "--coloring", "distinct"), "3 1 4 1 5 9 2 6"),
])
def test_byte_determinism(args, stdin):
    first = run_cli(*args, stdin=stdin)
    second = run_cli(*args, stdin=stdin)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
