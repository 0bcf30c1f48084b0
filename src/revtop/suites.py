"""Named verification suites over the finite catalogs.

Suite keys are the stable identifiers used by the command line: each runs
one family of cross-checks over every topology (or pair) in the catalog and
reports how many instances agreed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .enumeration import catalog, enumerate_topologies_by_closure
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
from .topology import homeo_class


@dataclass(frozen=True)
class SuiteResult:
    name: str
    agreed: int
    total: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.agreed == self.total

    def summary(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.agreed}/{self.total} agree{extra}"


def suite_enum(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The preorder-built catalog and closure saturation must coincide."""
    cat = catalog(n)
    oracle = enumerate_topologies_by_closure(n)
    agreed = sum(1 for a, b in zip(cat.topologies, oracle) if a == b)
    total = max(len(cat.topologies), len(oracle))
    return SuiteResult("enum", agreed if len(cat.topologies) == len(oracle) else 0,
                       total, f"count={len(cat.topologies)}")


def suite_fact11(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The four reversibility tests agree (and hold) on every catalog member."""
    cat = catalog(n)
    agreed = 0
    for t in cat.topologies:
        answers = {m: is_reversible(t, m) for m in REVERSIBILITY_METHODS}
        if len(set(answers.values())) == 1 and answers["antichain"]:
            agreed += 1
    return SuiteResult("fact11", agreed, len(cat.topologies))


def suite_fact12(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """The three ordering tests agree on ordered pairs (all pairs for n <= 3,
    seeded samples above that)."""
    cat = catalog(n)
    tops = cat.topologies
    if n <= 3:
        pairs = [(a, b) for a in tops for b in tops]
    else:
        rng = random.Random(seed)
        pairs = [(tops[rng.randrange(len(tops))], tops[rng.randrange(len(tops))])
                 for _ in range(samples)]
    agreed = 0
    for a, b in pairs:
        answers = {condensational_leq(a, b, m) for m in LEQ_METHODS}
        if len(answers) == 1:
            agreed += 1
    return SuiteResult("fact12", agreed, len(pairs))


def suite_prop14(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """Equivalence classes are the convex hulls of homeomorphism classes, and
    weak reversibility is exactly their coincidence."""
    cat = catalog(n)
    agreed = 0
    for t in cat.topologies:
        cls = homeo_class(t)
        sim = sim_class(t, cat)
        hull = conv_hull(cls, cat)
        weak = is_weakly_reversible(t, cat)
        if sim == hull and weak == (sim == cls):
            agreed += 1
    return SuiteResult("prop14", agreed, len(cat.topologies))


def suite_thm31(n: int, seed: int = 0, samples: int = 10000) -> SuiteResult:
    """Strong-reversibility classification agrees with the orbit test; the
    strongly reversible topologies are exactly the two trivial ones."""
    cat = catalog(n)
    agreed = 0
    strong = 0
    for t in cat.topologies:
        brute = len(homeo_class(t)) == 1
        fast = is_strongly_reversible(t)
        label = classify_strongly_reversible(t)
        matches = (fast == brute) and (fast == (label != StrongKind.NOT_STRONGLY_REVERSIBLE))
        if matches:
            agreed += 1
        if fast:
            strong += 1
    expected = 1 if n <= 1 else 2
    detail = f"strongly_reversible={strong} expected={expected}"
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
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.append(SUITES[name](n, seed=seed, samples=samples))
    return results
