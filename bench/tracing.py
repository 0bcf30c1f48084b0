"""Traced in-process replay: spans around the benchmark's calls into each layer.

The layers are the modules of ``revtop``.  ``Tracer.install`` rebinds a fixed
list of public functions, in every ``revtop`` module that refers to them, to
wrappers defined here; ``Tracer.uninstall`` puts the originals back.  The
program itself is not edited.  Each span records its name, start, end, parent
span and command; spans stay in memory until the replay ends.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

from check import Outcome

# (module, attribute, span name): the layer boundaries that get a span.
BOUNDARIES = (
    ("enumeration", "enumerate_topologies", "enumeration.closure_catalog"),
    ("enumeration", "enumerate_topologies_via_preorders", "enumeration.preorder_catalog"),
    ("topology", "canonical_form", "topology.canonical_form"),
    ("order", "condensational_order", "order.cond_order"),
    ("order", "is_reversible", "order.reversible"),
    ("order", "is_weakly_reversible", "order.weakly_reversible"),
    ("order", "is_strongly_reversible", "order.strongly_reversible"),
    ("order", "conv_hull", "order.conv_hull"),
    ("ramsey", "homogeneous_pairs", "ramsey.extract"),
    ("ramsey", "constant_or_injective", "ramsey.extract"),
    ("ramsey", "constant_or_increasing", "ramsey.extract"),
    ("descriptors", "nf", "descriptors.nf"),
    ("descriptors", "nf_intersection", "descriptors.nf_intersection"),
    ("descriptors", "nf_enumerate", "descriptors.nf_enumerate"),
    ("symbolic", "blocking_nbhd", "symbolic.blocking_nbhd"),
    ("symbolic", "star_in_closure_check", "symbolic.star_in_closure"),
    ("symbolic", "converges", "symbolic.converges"),
    ("symbolic", "increasing_chain", "symbolic.increasing_chain"),
)
# Certificate classes whose ``verify`` method gets a ``symbolic.cert_verify`` span.
CERTIFICATES = ("BlockingCertificate", "ClosureWitness", "NonreversibilityWitness")

NAME, START, END, PARENT, COMMAND, INFO = range(6)


class Tracer:
    """Records spans for calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self._restore: list[tuple[object, str, object]] = []
        self._built_tables: set[int] = set()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.command, None])
        self.stack.append(index)
        return index

    def end(self, index: int, info=None) -> None:
        self.stack.pop()
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[INFO] = info

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(index, _info(name, args, result))
        return traced

    def wrap_mask_tables(self, fn):
        """``mask_tables`` is cached and called in hot loops: only a build
        (the first call for each n since the caches were cleared) gets a span."""
        built = self._built_tables

        @functools.wraps(fn)
        def traced(n):
            if n in built:
                return fn(n)
            index = self.begin("topology.mask_tables")
            try:
                return fn(n)
            finally:
                built.add(n)
                self.end(index)
        return traced

    def _rebind(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("revtop"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        from revtop import suites, symbolic, topology
        for module_name, attr, name in BOUNDARIES:
            original = getattr(sys.modules[f"revtop.{module_name}"], attr)
            self._rebind(original, self.wrap(name, original))
        self._rebind(topology.mask_tables, self.wrap_mask_tables(topology.mask_tables))
        for key, fn in list(suites.SUITES.items()):
            self._restore.append((suites.SUITES, key, fn))
            suites.SUITES[key] = self.wrap(f"suites.{key}", fn)
        for cls_name in CERTIFICATES:
            cls = getattr(symbolic, cls_name)
            self._restore.append((cls, "verify", cls.__dict__["verify"]))
            cls.verify = self.wrap("symbolic.cert_verify", cls.__dict__["verify"])

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._restore.clear()

    def start_command(self, index: int) -> None:
        """Spans from now on belong to command ``index``, which starts with
        empty caches."""
        self.command = index
        self._built_tables.clear()


def _info(name: str, args, result):
    """Work counters taken at the boundary from arguments and results."""
    if name == "symbolic.blocking_nbhd":
        return int(result is not None)
    if result is None:
        return None
    if name == "enumeration.closure_catalog":
        return (len(result), result.orbit_count)
    if name == "order.cond_order":
        return (len(result.nodes), len(result.hasse))
    if name.startswith("suites."):
        return (result.agreed, result.total)
    if name == "ramsey.extract":
        return len(result.indices)
    return None


def cache_clearers() -> list:
    """The ``cache_clear`` of every ``functools`` cache in ``revtop``: the
    catalog, the permutation tables and the normal forms.  Collected before
    the tracer rebinds names, since its wrappers hide the caches."""
    clearers = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("revtop"):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clearers[id(value)] = clear
    return list(clearers.values())


@dataclass
class Replay:
    seconds: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)


def replay(commands, workdir: str, tracer: Tracer) -> tuple[Replay, Replay]:
    """Run each command twice through ``revtop.cli.main`` in this process,
    back to back: once untraced and once with the tracer's spans installed.
    Which of the two goes first alternates from command to command, so that
    a drift in machine speed does not favour either.  Every cache is cleared
    before each run, so that it starts as cold as a fresh process."""
    from revtop import cli
    clearers = cache_clearers()
    untraced, traced = Replay(), Replay()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for index, command in enumerate(commands):
            runs = [(untraced, None), (traced, tracer)]
            if index % 2:
                runs.reverse()
            for result, active in runs:
                for clear in clearers:
                    clear()
                _run(cli, command, index, workdir, active, result)
    finally:
        os.chdir(cwd)
    return untraced, traced


def _run(cli, command, index: int, workdir: str, tracer: Tracer | None, result: Replay) -> None:
    buffer = io.StringIO()
    if tracer is not None:
        tracer.install()
        tracer.start_command(index)
        span = tracer.begin("cli.main")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(list(command.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        result.seconds.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end(span)
            tracer.uninstall()
    outcome = Outcome(code, buffer.getvalue())
    outcome.collect(command.files, workdir)
    result.outcomes.append(outcome)


def write_spans(tracer: Tracer, commands, path: str) -> None:
    """Write the recorded spans as one JSON document."""
    payload = {
        "commands": [" ".join(c.argv) for c in commands],
        "fields": ["name", "start_ns", "end_ns", "parent", "command", "info"],
        "spans": tracer.spans,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
