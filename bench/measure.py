"""Untraced end-to-end measurement: fresh CLI processes in a closed loop.

One client: the next command starts only after the previous one has exited
and its output has been checked, so at most one child runs beside this
process.  Wall time, CPU time and peak RSS of each child come from
``os.wait4``.

Times are reported at a reference machine speed.  The CPU speed of a shared
machine drifts: a fixed loop timed every 0.1 s for four minutes on a 2-vCPU
VM ranged from 6.7 to 12 ms per call, in stretches from seconds to minutes,
and each vCPU drifts on its own.  So the timed loop confines itself, and
with it every child and the probe thread, to one CPU.  While each child
runs, the probe thread times a short slice of a fixed calibration loop (no
``revtop`` code) every ``PROBE_INTERVAL_S`` on the child's CPU, and the
child's times are multiplied by ``REFERENCE_PROBE_S`` over the mean slice
time.  Slices are timed in the probe thread's own CPU time, so the time it
waits while the child holds the CPU does not count.  Set-up probes run the
whole loop in their own process instead.  The raw times and the scale are
printed as well.
"""
from __future__ import annotations

import contextlib
import hashlib
import inspect
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from check import Outcome
from workloads import Command

SETUP_PROBES = 15          # fresh processes timed for setup_s, after one warm-up
SETUP_CALIBRATION = 100_000
PROBE_ITERATIONS = 2_000   # one slice of the calibration loop, about 3 ms
PROBE_INTERVAL_S = 0.05
# Median calibration times on the reference machine, a 2-vCPU Xeon VM at
# 2.1 GHz running Python 3.11.7.
REFERENCE_CALIBRATION_S = 0.15    # SETUP_CALIBRATION iterations, fresh process
REFERENCE_PROBE_S = 0.002         # PROBE_ITERATIONS iterations, probe thread CPU time


def calibration(iterations: int) -> int:
    """Pure-Python work shaped like the program's: tuples, sets, dicts, sorting."""
    seen, table, acc = set(), {}, 0
    for i in range(iterations):
        t = (i & 255, i >> 8, i % 7)
        if t not in seen:
            seen.add(t)
        table[i & 2047] = sorted((t[2], t[0], t[1]))
        acc += sum(table[i & 2047]) & 15
    return acc


# The time a command pays before it does any work, then the calibration loop
# in the same process.
_SETUP_PROBE = inspect.getsource(calibration) + (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import revtop.cli\n"
    "revtop.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    f"calibration({SETUP_CALIBRATION})\n"
    "print(repr(t1 - t0), repr(time.perf_counter() - t1))\n"
)


def child_env(src: str) -> dict[str, str]:
    """The user's environment with the checkout's sources importable, a fixed
    hash seed, no ground-size override, and bytecode caching on, so that
    commands load cached bytecode as an installed package does."""
    env = dict(os.environ)
    env.pop("REVTOP_MAX_N", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class SpeedProbe:
    """Times calibration slices in a thread while a child runs.  The switch
    interval is shortened meanwhile, so that the thread delays the main
    thread's end-of-child timestamp by well under a millisecond."""

    def __init__(self):
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._interval = sys.getswitchinterval()

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            calibration(PROBE_ITERATIONS)
            self.times.append(time.thread_time() - start)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedProbe":
        sys.setswitchinterval(0.0005)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)

    @property
    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.times)


@contextlib.contextmanager
def one_cpu():
    """Confine this thread to one of its CPUs, and with it the children and
    threads it starts meanwhile, so that the probe measures the CPU the child
    runs on.  A program that runs work in parallel gets one CPU too, so it
    cannot read faster than it is."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    outcome: Outcome
    scale: float = 1.0  # reference speed over the speed measured meanwhile

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def spawn(argv: list[str], workdir: str, env: dict[str, str]) -> Sample:
    """Run one child to completion with stdout and stderr sent to files."""
    out_path = os.path.join(workdir, ".stdout")
    err_path = os.path.join(workdir, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  Outcome(proc.returncode, stdout))


def setup_times(workdir: str, env: dict[str, str]) -> list[float]:
    """Import-and-parser time of fresh processes, at reference speed.  The
    first probe only warms the bytecode cache and is dropped."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        sample = spawn([sys.executable, "-c", _SETUP_PROBE], workdir, env)
        if sample.outcome.returncode != 0:
            raise RuntimeError("revtop.cli does not import in a fresh process")
        setup, calibrated = map(float, sample.outcome.stdout.split())
        times.append(setup * REFERENCE_CALIBRATION_S / calibrated)
    return times[1:]


@dataclass
class CommandStats:
    command: Command
    samples: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    sha256: str = ""

    def median(self, attr: str) -> float:
        return statistics.median(getattr(s, attr) for s in self.samples)


def timed_loop(commands: list[Command], workdir: str, env: dict[str, str],
               seconds: float) -> list[CommandStats]:
    """Round-robin over the commands until ``seconds`` have passed.  The first
    pass always completes; after it, a command starts only if its previous
    time still fits before the deadline."""
    stats = [CommandStats(c) for c in commands]
    deadline = time.perf_counter() + seconds
    first_pass = True
    with one_cpu():
        while True:
            for entry in stats:
                if not first_pass and time.perf_counter() + entry.samples[-1].wall_s > deadline:
                    return stats
                argv = [sys.executable, "-m", "revtop", *entry.command.argv]
                with SpeedProbe() as speed:
                    sample = spawn(argv, workdir, env)
                sample.scale = speed.scale
                entry.samples.append(sample)
                sample.outcome.collect(entry.command.files, workdir)
                problems = entry.command.check(sample.outcome)
                if problems:
                    entry.failures.append("; ".join(problems))
                entry.sha256 = hashlib.sha256(sample.outcome.stdout.encode()).hexdigest()
            first_pass = False
