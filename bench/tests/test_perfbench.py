"""Tests of the benchmark itself: seeded inputs, output checkers, tracing.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from check import Outcome  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402


# --- seeded generator --------------------------------------------------------

def test_ramsey_inputs_repeat_per_seed_and_differ_across_seeds():
    first, again, other = gen.ramsey_inputs(7), gen.ramsey_inputs(7), gen.ramsey_inputs(8)
    assert first == again
    assert all(first[name] != other[name] for name in first)


def test_ramsey_inputs_have_their_stated_shape():
    inputs = gen.ramsey_inputs(3)
    assert len(inputs["wide"]) == len(inputs["symbols"]) == gen.RAMSEY_LONG
    assert len(set(inputs["symbols"])) <= gen.RAMSEY_SYMBOLS
    assert len(set(inputs["distinct"])) == len(inputs["distinct"]) == gen.RAMSEY_SHORT
    nearly = inputs["sorted"]
    descents = sum(1 for a, b in zip(nearly, nearly[1:]) if a > b)
    assert 0 < descents <= gen.RAMSEY_SHORT * gen.RAMSEY_SWAP_FRAC


def test_program_seeds_depend_only_on_seed_and_name():
    assert gen.program_seed(5, "blocking") == gen.program_seed(5, "blocking")
    assert gen.program_seed(5, "blocking") != gen.program_seed(5, "closure")
    assert gen.program_seed(5, "blocking") != gen.program_seed(6, "blocking")


def test_workloads_build_identical_commands_and_files_per_seed(tmp_path):
    for name, build in WORKLOADS.items():
        runs = []
        for attempt in ("a", "b"):
            workdir = tmp_path / f"{name}-{attempt}"
            workdir.mkdir()
            argvs = [c.argv for c in build(11, str(workdir))]
            files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
            runs.append((argvs, files))
        assert runs[0] == runs[1], name


# --- checkers accept good output and reject corrupted output ----------------

def test_enum_checker_rejects_a_wrong_count():
    assert check.check_enum_summary(Outcome(0, "n=5 topologies=6942 orbits=139\n"), 5) == []
    assert check.check_enum_summary(Outcome(0, "n=5 topologies=6941 orbits=139\n"), 5)
    assert check.check_enum_summary(Outcome(0, "n=5 topologies=6942 orbits=138\n"), 5)
    assert check.check_enum_summary(Outcome(1, "n=5 topologies=6942 orbits=139\n"), 5)


def test_verify_checker_rejects_disagreement_and_wrong_totals():
    good = ("fact11: 6942/6942 agree\nfact12: 50/50 agree\n"
            "thm31: 6942/6942 agree (strongly_reversible=2 expected=2)\n")
    suites = ["fact11", "fact12", "thm31"]
    assert check.check_verify(Outcome(0, good), 5, suites, 50) == []
    for bad in (good.replace("6942/6942 agree\n", "6941/6942 agree\n"),
                good.replace("6942/6942", "6941/6941"),
                good.replace("50/50", "49/49"),
                good.replace("strongly_reversible=2", "strongly_reversible=3")):
        assert check.check_verify(Outcome(0, bad), 5, suites, 50), bad
    assert check.check_verify(Outcome(1, good), 5, suites, 50)


def test_order_checker_counts_nodes_and_edges():
    nodes = [{"opens": [], "orbit_size": 6942 - 138}] + [{"opens": [], "orbit_size": 1}] * 138
    hasse = [[0, 1]] * 413
    dot = "digraph g {\n" + "".join(f'  n{i} [label=""];\n' for i in range(139)) \
        + "  n0 -> n1;\n" * 413 + "}\n"
    files = {"h.dot": dot, "h.json": json.dumps({"nodes": nodes, "hasse": hasse})}
    good = Outcome(0, "n=5 nodes=139 edges=413\n", dict(files))
    assert check.check_order(good, 5, "h.dot", "h.json") == []
    short = Outcome(0, "n=5 nodes=139 edges=412\n", dict(files))
    assert check.check_order(short, 5, "h.dot", "h.json")
    files["h.json"] = json.dumps({"nodes": nodes, "hasse": hasse[1:]})
    assert check.check_order(Outcome(0, good.stdout, files), 5, "h.dot", "h.json")


def test_ostar_checker_rejects_failures():
    good = {"check": "blocking", "failures": 0, "family_size": 64, "passes": 9, "samples": 9}
    assert check.check_ostar(Outcome(0, json.dumps(good)), "blocking", 64, 9) == []
    bad = dict(good, failures=1, passes=8)
    assert check.check_ostar(Outcome(1, json.dumps(bad)), "blocking", 64, 9)
    assert check.check_ostar(Outcome(0, json.dumps(bad)), "blocking", 64, 9)
    assert check.check_ostar(Outcome(0, json.dumps(dict(good, passes=8))), "blocking", 64, 9)


def test_witness_checker_rejects_an_unverified_chain():
    chain = [{"image_c": c, "verified": True} for c in (4, 5, 6)]
    good = {"chain": chain, "verified": True}
    assert check.check_witness_chain(Outcome(0, json.dumps(good)), 3, 3) == []
    assert check.check_witness_chain(Outcome(0, json.dumps(dict(good, verified=False))), 3, 3)
    broken = [dict(chain[0], verified=False)] + chain[1:]
    unverified_link = json.dumps({"chain": broken, "verified": True})
    assert check.check_witness_chain(Outcome(0, unverified_link), 3, 3)
    assert check.check_witness_chain(Outcome(0, json.dumps(good)), 3, 4)


def _ramsey(indices, kind="strictly_increasing"):
    return Outcome(0, json.dumps({"found": True, "indices": indices, "kind": kind,
                                  "size": len(indices)}))


def test_ramsey_pairs_checker_rejects_non_homogeneous_and_suboptimal_sets():
    values = [3, 1, 2, 5, 4]
    optimum = check.pairs_optimum(values, "increasing")
    assert optimum == 3
    assert check.check_ramsey_pairs(_ramsey([1, 2, 3]), values, "increasing", optimum) == []
    assert check.check_ramsey_pairs(_ramsey([0, 1, 2]), values, "increasing", optimum)
    assert check.check_ramsey_pairs(_ramsey([1, 2]), values, "increasing", optimum)
    assert check.check_ramsey_pairs(_ramsey([1, 2, 9]), values, "increasing", optimum)
    distinct = [7, 7, 8, 7]
    assert check.pairs_optimum(distinct, "distinct") == 3
    assert check.check_ramsey_pairs(_ramsey([0, 1, 3], "constant"), distinct, "distinct", 3) == []
    assert check.check_ramsey_pairs(_ramsey([0, 1, 2], "constant"), distinct, "distinct", 3)


def test_ramsey_injective_and_increasing_checkers_reject_corruption():
    values = [5, 9, 5, 1, 7]
    assert check.injective_expected(values) == ("injective", 4)
    good = _ramsey([0, 1, 3, 4], "injective")
    assert check.check_ramsey_injective(good, values) == []
    assert check.check_ramsey_injective(_ramsey([0, 1, 2, 3], "injective"), values)
    stream = [4, 1, 2, 2, 3, 0]
    assert check.first_stop(stream, 3, 6) == 4
    assert check.check_ramsey_increasing(_ramsey([1, 2, 4]), stream, 3, 6) == []
    assert check.check_ramsey_increasing(_ramsey([1, 3, 4]), stream, 3, 6) == []
    assert check.check_ramsey_increasing(_ramsey([0, 2, 4]), stream, 3, 6)
    assert check.check_ramsey_increasing(Outcome(1, '{"found": false}'), stream, 3, 6)


def test_ramsey_optimum_matches_brute_force():
    rng = random.Random(0)
    for _ in range(200):
        values = [rng.randrange(4) for _ in range(rng.randrange(2, 8))]
        for coloring in ("increasing", "distinct"):
            best = max(len(c) for r in range(1, len(values) + 1)
                       for c in itertools.combinations(range(len(values)), r)
                       if check.is_homogeneous(values, list(c), coloring))
            assert check.pairs_optimum(values, coloring) == best


# --- tracing and the harness -------------------------------------------------

def test_traced_replay_reports_layer_work(tmp_path):
    commands = [
        Command("enum", ("enum", "--n", "3"), lambda o: check.check_enum_summary(o, 3)),
        Command("verify", ("verify", "--suite", "enum,thm31", "--n", "3"),
                lambda o: check.check_exit(o)),
    ]
    tracer = tracing.Tracer()
    untraced, traced = tracing.replay(commands, str(tmp_path), tracer)
    assert [o.stdout for o in untraced.outcomes] == [o.stdout for o in traced.outcomes]
    assert all(c.check(o) == [] for c, o in zip(commands, traced.outcomes))
    m = layers.derive(tracer.spans, commands, traced.outcomes, untraced.seconds, traced.seconds)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = [metric["name"] for metric in json.load(handle)["per_layer"]]
    assert sorted(m) == sorted(declared)
    assert m["enumeration.catalog_builds"] == 2  # caches are cleared per command
    assert m["enumeration.topologies"] == 2 * 29
    assert m["suites.thm31_instances"] == 29 and m["suites.agreed_ratio"] == 1.0
    assert 0 < m["cli.self_s"] < m["cli.main_s"]
    assert all(not s[tracing.END] < s[tracing.START] for s in tracer.spans)
    from revtop import enumeration
    assert enumeration.enumerate_topologies.__module__ == "revtop.enumeration"
    assert not hasattr(enumeration.enumerate_topologies, "__wrapped__")


def test_timed_loop_checks_every_sample_and_scales_by_calibration(tmp_path):
    commands = [Command("enum", ("enum", "--n", "3"), lambda o: check.check_enum_summary(o, 3)),
                Command("bad", ("enum", "--n", "2"), lambda o: check.check_enum_summary(o, 3))]
    env = measure.child_env(os.path.join(ROOT, "src"))
    cpus = os.sched_getaffinity(0)
    stats = measure.timed_loop(commands, str(tmp_path), env, seconds=0)
    assert os.sched_getaffinity(0) == cpus  # the loop's pinning is undone
    assert [len(e.samples) for e in stats] == [1, 1]
    assert stats[0].failures == [] and len(stats[1].failures) == 1
    sample = stats[0].samples[0]
    assert sample.outcome.stdout == "n=3 topologies=29 orbits=9\n"
    assert sample.scale > 0 and sample.ref_wall_s == sample.wall_s * sample.scale
    assert 0 < sample.cpu_s and 0 < sample.rss_mb


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "finite-n5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
