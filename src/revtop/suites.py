"""Named verification suites over the finite catalogs.

Suite keys are the stable identifiers used by the command line: each runs
one family of cross-checks over every topology (or pair) in the catalog and
reports how many instances agreed.

The per-topology suites (fact11, prop14, thm31) share one path: a check
``(representative, orbit) -> bool`` runs once per entry of the catalog's
orbit map, and each verdict counts at its orbit's size, so `total` is still
the number of labelled topologies.  That is sound
because every property they test is invariant under relabelling the
points: a permutation carries a topology's homeomorphism class,
condensational equivalence class, convex hull and reversibility verdicts
onto those of its image, so every member of an orbit gets the
representative's answer.  The per-member loops are kept in the tests as
the reference the orbit-first suites are compared against.  Only enum and
fact12 read the catalog's ``topologies``, sorted from the orbits on each read.
"""
from __future__ import annotations

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
    tops = catalog(n).topologies
    oracle = enumerate_topologies_by_closure(n)
    agreed = sum(1 for a, b in zip(tops, oracle) if a == b)
    detail = f"count={len(tops)}"
    only_one = set(tops).symmetric_difference(oracle) if tops != oracle else ()
    if only_one:
        first = min(only_one)
        side = "catalog" if first in tops else "closure enumeration"
        detail += f"; first difference: opens {list(first.opens)} only in the {side}"
    return SuiteResult("enum", agreed if len(tops) == len(oracle) else 0,
                       max(len(tops), len(oracle)), detail)


def _fact11(rep, orbit) -> bool:
    """The four reversibility tests agree (and hold) at the representative."""
    return {is_reversible(rep, m) for m in REVERSIBILITY_METHODS} == {True}


def _prop14(rep, orbit) -> bool:
    """The equivalence class, from :func:`sim_class` and so from the permutation
    search, is the convex hull of the orbit, and :func:`is_weakly_reversible`
    holds exactly when the orbit is the whole equivalence class."""
    sim = sim_class(rep)
    return sim == conv_hull(orbit) and is_weakly_reversible(rep) == (sim == orbit)


def _thm31(rep, orbit, strong: bool) -> bool:
    """The transposition test's answer ``strong`` and the classification both
    agree with the orbit having a single member."""
    label = classify_strongly_reversible(rep)
    return strong == (len(orbit) == 1) and strong == (label != StrongKind.NOT_STRONGLY_REVERSIBLE)


_CHECKS = {
    "fact11": _fact11,
    "prop14": _prop14,
    "thm31": lambda rep, orbit: _thm31(rep, orbit, is_strongly_reversible(rep)),
}


def orbit_verdicts(name: str, cat: TopologyCatalog, check=None) -> list[
        tuple[FiniteTopology, tuple[FiniteTopology, ...], bool]]:
    """(representative, orbit, verdict) for each orbit of the catalog: the
    per-topology suite ``name`` evaluated once at the representative, by its
    per-orbit check or by ``check`` in its place."""
    check = check or _CHECKS[name]
    return [(rep, orbit, check(rep, orbit)) for rep, orbit in cat.orbits.items()]


def _orbit_result(name: str, verdicts, detail: str = "") -> SuiteResult:
    """Each verdict counts for its orbit's size, so the orbits of a catalog
    total its number of topologies.  The detail ends by naming the first
    representative whose verdict failed."""
    first = next((f"first disagreement: opens {list(rep.opens)}"
                  for rep, _, ok in verdicts if not ok), "")
    return SuiteResult(name, sum(len(orbit) for _, orbit, ok in verdicts if ok),
                       sum(len(orbit) for _, orbit, _ in verdicts),
                       "; ".join(filter(None, (detail, first))))


def suite_fact11(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The four reversibility tests agree (and hold) on every catalog member."""
    return _orbit_result("fact11", orbit_verdicts("fact11", catalog(n)))


def suite_fact12(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The three ordering tests agree on ordered pairs (all pairs for n <= 3,
    seeded samples above that).  On a disagreement the detail names the
    first pair the tests disagree on."""
    tops = catalog(n).topologies
    if n <= 3:
        pairs = [(a, b) for a in tops for b in tops]
    else:
        import random
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
    return _orbit_result("prop14", orbit_verdicts("prop14", catalog(n)))


def suite_thm31(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """Strong-reversibility classification agrees with the orbit test; the
    strongly reversible topologies are exactly the two trivial ones, and
    unless the transposition test finds that many, no topology agrees."""
    strong = []     # the sizes of the orbits the transposition test passes

    def check(rep, orbit):
        fast = is_strongly_reversible(rep)
        strong.append(len(orbit) if fast else 0)
        return _thm31(rep, orbit, fast)

    verdicts = orbit_verdicts("thm31", catalog(n), check)
    expected = 1 if n <= 1 else 2
    result = _orbit_result("thm31", verdicts,
                           f"strongly_reversible={sum(strong)} expected={expected}")
    return result if sum(strong) == expected else result._replace(agreed=0)


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
