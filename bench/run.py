"""revtop benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload finite-n5 --seed 1 --seconds 20 --trace 0

``--trace 0`` times fresh ``python -m revtop`` processes for ``--seconds``
and reports the end-to-end metrics, scaled to a reference machine speed
(see ``measure.py``).  ``--trace 1`` replays each of the workload's
commands in process, once without spans and once with them, and reports the
per-layer metrics.  Every command's output is checked either way.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
workload's failed fraction.  Lines before it describe each command.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import layers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def declared(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """The metrics ``BENCHMARK.json`` lists under ``kind``, in its order and
    with its units, taking each value from ``values``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def end_to_end(commands, workdir: str, seconds: float):
    """Time fresh CLI processes; each command's figure is the median of its
    repetitions at reference speed, and a pass is the sum over the
    workload's commands."""
    env = measure.child_env(SRC)
    setup = measure.setup_times(workdir, env)
    stats = measure.timed_loop(commands, workdir, env, seconds)
    for entry in stats:
        print(f"{entry.command.label:16} runs={len(entry.samples):2d} "
              f"wall={entry.median('ref_wall_s'):8.3f}s cpu={entry.median('ref_cpu_s'):8.3f}s "
              f"raw_wall={entry.median('wall_s'):8.3f}s scale={entry.median('scale'):.3f} "
              f"rss={max(s.rss_mb for s in entry.samples):6.1f}MB "
              f"stdout_sha256={entry.sha256[:16]}")
        for problem in entry.failures:
            print(f"  FAILED: {problem}")
    scales = [s.scale for e in stats for s in e.samples]
    print(f"speed scale: median {statistics.median(scales):.4f} over {len(scales)} children")
    metrics = {
        "wall_s": sum(e.median("ref_wall_s") for e in stats),
        "cpu_s": sum(e.median("ref_cpu_s") for e in stats),
        "peak_rss_mb": max(s.rss_mb for e in stats for s in e.samples),
        "setup_s": statistics.median(setup),
    }
    attempted = sum(len(e.samples) for e in stats)
    failed = sum(len(e.failures) for e in stats)
    return attempted, failed, declared("end_to_end", metrics)


def per_layer(commands, workdir: str, workload: str, seed: int):
    """Replay each command untraced and traced, back to back, and derive the
    per-layer metrics."""
    sys.path.insert(0, SRC)
    tracer = tracing.Tracer()
    untraced, traced = tracing.replay(commands, workdir, tracer)
    failed = 0
    for k, command in enumerate(commands):
        print(f"{command.label:16} untraced={untraced.seconds[k]:8.3f}s "
              f"traced={traced.seconds[k]:8.3f}s")
        for label, outcome in (("untraced", untraced.outcomes[k]), ("traced", traced.outcomes[k])):
            problems = command.check(outcome)
            if problems:
                failed += 1
                print(f"  {label} FAILED: {'; '.join(problems)}")
    tracing.write_spans(tracer, commands,
                        os.path.join(ROOT, ".bench_out", f"spans-{workload}-{seed}.json"))
    values = layers.derive(tracer.spans, commands, traced.outcomes, untraced.seconds, traced.seconds)
    return 2 * len(commands), failed, declared("per_layer", values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "revtop", "cli.py")):
        sys.stderr.write(f"error: no revtop sources under {SRC}\n")
        return 2
    workroot = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        commands = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            attempted, failed, metrics = per_layer(commands, workdir, args.workload, args.seed)
        else:
            attempted, failed, metrics = end_to_end(commands, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(workroot)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
