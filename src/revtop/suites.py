"""Named verification suites over the finite catalogs.

Suite keys are the stable identifiers used by the command line: each runs
one family of cross-checks over every topology (or pair) in the catalog and
reports how many instances agreed.

The per-topology suites (fact11, prop14, thm31) evaluate each homeomorphism
orbit once, at its catalog representative, and count it at its orbit size,
so `total` is still the number of labelled topologies.  That is sound
because every property they test is invariant under relabelling the
points: a permutation carries a topology's homeomorphism class,
condensational equivalence class, convex hull and reversibility verdicts
onto those of its image, so every member of an orbit gets the
representative's answer.  The per-member loops are kept in the tests as
the reference the orbit-first suites are compared against.
"""
from __future__ import annotations

import random
from collections import namedtuple

from .enumeration import TopologyCatalog, catalog, enumerate_topologies_by_closure
from .order import (
    LEQ_METHODS,
    REVERSIBILITY_METHODS,
    StrongKind,
    classify_strongly_reversible,
    condensational_leq,
    conv_hull,
    is_reversible,
    is_strongly_reversible,
    is_weakly_reversible,
    sim_class,
)
from .topology import FiniteTopology


class SuiteResult(namedtuple("SuiteResult", ("name", "agreed", "total", "detail"),
                             defaults=("",))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.agreed == self.total

    def summary(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.agreed}/{self.total} agree{extra}"


def suite_enum(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The orbit-built catalog and Close-by-One closure enumeration must
    coincide.  On a mismatch the detail names the least topology found by
    only one of the two routes."""
    cat = catalog(n)
    oracle = enumerate_topologies_by_closure(n)
    agreed = sum(1 for a, b in zip(cat.topologies, oracle) if a == b)
    total = max(len(cat.topologies), len(oracle))
    detail = f"count={len(cat.topologies)}"
    only_one = set(cat.topologies).symmetric_difference(oracle) if cat.topologies != oracle else ()
    if only_one:
        first = min(only_one)
        side = "catalog" if first in cat.topologies else "closure enumeration"
        detail += f"; first difference: opens {list(first.opens)} only in the {side}"
    return SuiteResult("enum", agreed if len(cat.topologies) == len(oracle) else 0,
                       total, detail)


def _fact11_verdicts(orbits) -> list[bool]:
    """The four reversibility tests agree (and hold) at the representative."""
    return [{is_reversible(rep, m) for m in REVERSIBILITY_METHODS} == {True}
            for rep, _ in orbits]


def _prop14_verdicts(orbits) -> list[bool]:
    """The equivalence class, from :func:`sim_class` and so from the permutation
    search, is the convex hull of the orbit, and :func:`is_weakly_reversible`
    holds exactly when the orbit is the whole equivalence class."""
    verdicts = []
    for rep, cls in orbits:
        sim = sim_class(rep)
        verdicts.append(sim == conv_hull(cls) and is_weakly_reversible(rep) == (sim == cls))
    return verdicts


def _thm31_verdict(rep, cls, fast: bool) -> bool:
    """The transposition test's answer `fast` and the classification both
    agree with the orbit having a single member."""
    label = classify_strongly_reversible(rep)
    return fast == (len(cls) == 1) and fast == (label != StrongKind.NOT_STRONGLY_REVERSIBLE)


def _thm31_verdicts(orbits) -> list[bool]:
    return [_thm31_verdict(rep, cls, is_strongly_reversible(rep)) for rep, cls in orbits]


_ORBIT_VERDICTS = {
    "fact11": _fact11_verdicts,
    "prop14": _prop14_verdicts,
    "thm31": _thm31_verdicts,
}


def _orbits(cat: TopologyCatalog) -> list[tuple[FiniteTopology, tuple[FiniteTopology, ...]]]:
    """(representative, orbit) for each orbit of the catalog, in ``orbit_reps``
    order.  A verdict is weighted by its orbit's size, so the sizes are first
    checked to add up to the catalog size; the AssertionError survives
    python -O."""
    covered = sum(len(cat.orbits[rep]) for rep in cat.orbit_reps)
    if covered != len(cat.topologies):
        raise AssertionError(f"orbit sizes sum to {covered}, "
                             f"but the catalog has {len(cat.topologies)} topologies")
    return [(rep, cat.orbits[rep]) for rep in cat.orbit_reps]


def orbit_verdicts(name: str, cat: TopologyCatalog) -> list[
        tuple[FiniteTopology, tuple[FiniteTopology, ...], bool]]:
    """(representative, orbit, verdict) for each orbit of the catalog: the
    per-topology suite ``name`` evaluated once at the representative."""
    orbits = _orbits(cat)
    verdicts = _ORBIT_VERDICTS[name](orbits)
    return [(rep, cls, ok) for (rep, cls), ok in zip(orbits, verdicts)]


def _agreed(verdicts) -> int:
    return sum(len(cls) for _, cls, ok in verdicts if ok)


def _first_disagreement(verdicts) -> str:
    """Names the first orbit representative whose verdict failed, or ''."""
    return next((f"first disagreement: opens {list(rep.opens)}"
                 for rep, _, ok in verdicts if not ok), "")


def _orbit_suite(name: str, n: int) -> SuiteResult:
    cat = catalog(n)
    verdicts = orbit_verdicts(name, cat)
    return SuiteResult(name, _agreed(verdicts), len(cat.topologies),
                       _first_disagreement(verdicts))


def suite_fact11(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The four reversibility tests agree (and hold) on every catalog member."""
    return _orbit_suite("fact11", n)


def suite_fact12(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The three ordering tests agree on ordered pairs (all pairs for n <= 3,
    seeded samples above that).  On a disagreement the detail names the
    first pair the tests disagree on."""
    cat = catalog(n)
    tops = cat.topologies
    if n <= 3:
        pairs = [(a, b) for a in tops for b in tops]
    else:
        rng = random.Random(seed)
        pairs = [(tops[rng.randrange(len(tops))], tops[rng.randrange(len(tops))])
                 for _ in range(samples)]
    agreed = 0
    detail = ""
    for a, b in pairs:
        answers = {condensational_leq(a, b, m) for m in LEQ_METHODS}
        if len(answers) == 1:
            agreed += 1
        elif not detail:
            detail = f"first disagreement: opens {list(a.opens)} vs opens {list(b.opens)}"
    return SuiteResult("fact12", agreed, len(pairs), detail)


def suite_prop14(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """Equivalence classes are the convex hulls of homeomorphism classes, and
    weak reversibility is exactly their coincidence."""
    return _orbit_suite("prop14", n)


def suite_thm31(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """Strong-reversibility classification agrees with the orbit test; the
    strongly reversible topologies are exactly the two trivial ones."""
    cat = catalog(n)
    orbits = _orbits(cat)
    fast = [is_strongly_reversible(rep) for rep, _ in orbits]
    verdicts = [(rep, cls, _thm31_verdict(rep, cls, f)) for (rep, cls), f in zip(orbits, fast)]
    agreed = _agreed(verdicts)
    strong = sum(len(cls) for (_, cls), f in zip(orbits, fast) if f)
    expected = 1 if n <= 1 else 2
    detail = "; ".join(filter(None, (f"strongly_reversible={strong} expected={expected}",
                                      _first_disagreement(verdicts))))
    if strong != expected:
        agreed = 0
    return SuiteResult("thm31", agreed, len(cat.topologies), detail)


SUITES = {
    "enum": suite_enum,
    "fact11": suite_fact11,
    "fact12": suite_fact12,
    "prop14": suite_prop14,
    "thm31": suite_thm31,
}


def run_suites(names, n: int, seed: int = 0, samples: int = 10000) -> list[SuiteResult]:
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {sorted(SUITES)}")
    return [SUITES[name](n, seed=seed, samples=samples) for name in names]
