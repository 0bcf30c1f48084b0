import json
import stat
import subprocess
import sys

import pytest

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
])
def test_checking_nothing_is_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ")
    assert proc.stdout == b""


def test_usage_errors():
    proc = run_cli("no-such-command")
    assert proc.returncode == 2
    proc = run_cli("enum")
    assert proc.returncode == 2
    proc = run_cli("enum", "--n", "9")
    assert proc.returncode == 2  # over the configured cap
    assert b"cap" in proc.stderr


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
