"""The orbit-first suites and the convex hull walk against brute force.

The per-member checks below evaluate the fact11, prop14 and thm31 claims on
every topology on its own, with its homeomorphism class rebuilt from the
permutations and its equivalence class from pairwise ``condensational_leq``.
``reference_conv_hull`` tests every catalog member against every family
member, on frozensets; ``conv_hull`` reads no catalog, so the two share
nothing.
"""
import random
import subprocess
import sys

import pytest

from revtop.enumeration import catalog
from revtop.order import (
    REVERSIBILITY_METHODS,
    StrongKind,
    classify_strongly_reversible,
    conv_hull,
    is_reversible,
    is_strongly_reversible,
    is_weakly_reversible,
    sim_class,
)
from revtop.suites import SUITES, SuiteResult, orbit_verdicts
from revtop.topology import (
    FiniteTopology,
    adjoin_open,
    antidiscrete_topology,
    canonical_form,
    homeo_class,
)


ORBIT_SUITES = ("fact11", "prop14", "thm31")


def member_fact11(t):
    answers = {m: is_reversible(t, m) for m in REVERSIBILITY_METHODS}
    return len(set(answers.values())) == 1 and answers["antichain"]


def member_prop14(t):
    cls = homeo_class(t)
    sim = sim_class(t)
    hull = conv_hull(cls)
    weak = is_weakly_reversible(t)
    return sim == hull and weak == (sim == cls)


def member_thm31(t):
    brute = len(homeo_class(t)) == 1
    fast = is_strongly_reversible(t)
    label = classify_strongly_reversible(t)
    return fast == brute and fast == (label != StrongKind.NOT_STRONGLY_REVERSIBLE)


MEMBER_CHECKS = {"fact11": member_fact11, "prop14": member_prop14, "thm31": member_thm31}


def per_member_result(name, cat, answers) -> SuiteResult:
    """The suite's result line computed from one answer per topology."""
    agreed = sum(answers.values())
    detail = ""
    if name == "thm31":
        strong = sum(1 for t in cat.topologies if is_strongly_reversible(t))
        expected = 1 if cat.n <= 1 else 2
        detail = f"strongly_reversible={strong} expected={expected}"
        if strong != expected:
            agreed = 0
    return SuiteResult(name, agreed, len(cat.topologies), detail)


def reference_conv_hull(topologies, cat):
    tops = sorted(set(topologies))
    if not tops:
        return ()
    sets = [frozenset(u.opens) for u in tops]
    out = []
    for cand in cat.topologies:
        c = frozenset(cand.opens)
        if any(a <= c for a in sets) and any(c <= b for b in sets):
            out.append(cand)
    return tuple(sorted(out))


@pytest.mark.parametrize("name", ORBIT_SUITES)
@pytest.mark.parametrize("n", range(5))
def test_orbit_first_matches_per_member(name, n):
    cat = catalog(n)
    verdict = {t: ok for _, cls, ok in orbit_verdicts(name, cat) for t in cls}
    assert sorted(verdict) == list(cat.topologies)
    answers = {t: MEMBER_CHECKS[name](t) for t in cat.topologies}
    assert answers == verdict
    assert SUITES[name](n) == per_member_result(name, cat, answers)


@pytest.mark.parametrize("name", ORBIT_SUITES)
def test_orbit_first_matches_per_member_sample_n5(name):
    cat = catalog(5)
    verdict = {rep: ok for rep, _, ok in orbit_verdicts(name, cat)}
    for t in random.Random(5).sample(cat.topologies, 300):
        assert MEMBER_CHECKS[name](t) == verdict[canonical_form(t)], t


@pytest.mark.parametrize("n", range(5))
def test_conv_hull_matches_reference_on_classes(n):
    cat = catalog(n)
    for cls in cat.orbits.values():
        assert conv_hull(cls) == reference_conv_hull(cls, cat)


def no_catalog(monkeypatch):
    """Make every catalog read in revtop.order raise."""
    import revtop.order

    def forbidden(n):
        raise AssertionError("conv_hull read the catalog")

    monkeypatch.setattr(revtop.order, "catalog", forbidden)


def test_conv_hull_matches_reference_on_random_families(cat4, monkeypatch):
    rng = random.Random(14)
    cases = []
    for _ in range(500):
        family = rng.sample(cat4.topologies, rng.randint(1, 4))
        cases.append((family, reference_conv_hull(family, cat4)))
    no_catalog(monkeypatch)
    grew = 0
    for family, reference in cases:
        hull = conv_hull(family)
        assert hull == reference
        grew += len(hull) > len(family)
    assert grew > 100   # most hulls reach past the family itself
    assert conv_hull([]) == reference_conv_hull([], cat4) == ()


@pytest.mark.parametrize("spread", [1, 2, 3, 5])
def test_conv_hull_matches_reference_by_open_count_spread(cat4, spread, monkeypatch):
    # families whose open counts take exactly `spread` values
    rng = random.Random(spread)
    by_count = {}
    for t in cat4.topologies:
        by_count.setdefault(len(t.opens), []).append(t)
    cases = []
    while len(cases) < 100:
        counts = rng.sample(sorted(by_count), spread)
        family = [rng.choice(by_count[k]) for k in counts for _ in range(rng.randint(1, 3))]
        assert len({len(t.opens) for t in family}) == spread
        cases.append((family, reference_conv_hull(family, cat4)))
    no_catalog(monkeypatch)
    for family, reference in cases:
        assert conv_hull(family) == reference


def test_conv_hull_beyond_any_catalog(monkeypatch):
    # catalog(7) would hold 9,535,241 topologies, so only the walk can serve this
    no_catalog(monkeypatch)
    hull = conv_hull([antidiscrete_topology(7), FiniteTopology(7, (0, 1, 2, 3, 127))])
    inner = [(), (1,), (2,), (3,), (1, 3), (2, 3), (1, 2, 3)]
    assert hull == tuple(sorted(FiniteTopology(7, (0, *opens, 127)) for opens in inner))


def test_conv_hull_matches_reference_on_random_families_n5(monkeypatch):
    # a member a, one finer than a by up to three adjoined point sets, and up
    # to two more members: random members alone are rarely nested at n = 5
    cat = catalog(5)
    rng = random.Random(5)
    cases = []
    for _ in range(100):
        a = rng.choice(cat.topologies)
        opens = a.opens
        for _ in range(rng.randint(1, 3)):
            opens = adjoin_open(opens, rng.randrange(1, 31))
        family = [a, FiniteTopology(5, opens), *rng.sample(cat.topologies, rng.randint(0, 2))]
        cases.append((family, reference_conv_hull(family, cat)))
    no_catalog(monkeypatch)
    grew = 0
    for family, reference in cases:
        hull = conv_hull(family)
        assert hull == reference
        grew += len(hull) > len(set(family))
    assert grew > 50


def test_fact12_names_the_first_disagreement(monkeypatch):
    import revtop.order
    import revtop.suites

    cat = catalog(2)
    bad = cat.topologies[1]
    leq = revtop.order.condensational_leq

    def flipped(a, b, method="coarsening_of_t2_side"):
        answer = leq(a, b, method)
        return not answer if method == "witness_map" and b == bad else answer

    monkeypatch.setattr(revtop.suites, "condensational_leq", flipped)
    result = SUITES["fact12"](2)
    assert (result.agreed, result.total) == (12, 16)
    assert result.summary() == (
        f"fact12: 12/16 agree (first disagreement: opens {list(cat.topologies[0].opens)} "
        f"vs opens {list(bad.opens)})")


# Every verdict that classify prints, replaced by a wrong constant.  Every
# finite space is reversible, hence weakly reversible, so the first two
# verdicts are only wrong as False.
WRONG_VERDICTS = [("is_reversible", False), ("is_weakly_reversible", False),
                  ("is_strongly_reversible", False), ("is_strongly_reversible", True)] + [
    ("classify_strongly_reversible", kind) for kind in StrongKind]


@pytest.mark.parametrize("name,value", WRONG_VERDICTS)
def test_every_printed_verdict_is_checked(monkeypatch, name, value):
    import revtop.order
    import revtop.suites
    for module in (revtop.order, revtop.suites):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: value)
    results = [SUITES[suite](4) for suite in ORBIT_SUITES]
    assert not all(r.ok for r in results)
    for r in results:
        if not r.ok:
            first = next(rep for rep, _, ok in orbit_verdicts(r.name, catalog(4)) if not ok)
            assert f"first disagreement: opens {list(first.opens)}" in r.detail


def test_thm31_runs_the_transposition_test_once_per_orbit(monkeypatch):
    import revtop.suites
    calls = []

    def counted(t):
        calls.append(t)
        return is_strongly_reversible(t)

    monkeypatch.setattr(revtop.suites, "is_strongly_reversible", counted)
    result = SUITES["thm31"](4)
    assert result.ok
    assert len(calls) == len(catalog(4).orbits) == 33
    assert sorted(calls) == sorted(catalog(4).orbits)


def test_verify_names_the_first_disagreement(monkeypatch, capsys):
    import revtop.suites
    from revtop.cli import main

    cat = catalog(3)
    bad = list(cat.orbits)[4]
    monkeypatch.setattr(revtop.suites, "is_weakly_reversible",
                        lambda t: (t != bad) == is_weakly_reversible(t))
    assert main(["verify", "--suite", "fact11,prop14,thm31", "--n", "3"]) == 1
    assert capsys.readouterr().out == (
        "fact11: 29/29 agree\n"
        f"prop14: {29 - len(cat.orbits[bad])}/29 agree "
        f"(first disagreement: opens {list(bad.opens)})\n"
        "thm31: 29/29 agree (strongly_reversible=2 expected=2)\n")


def test_verify_n4_golden_output():
    proc = subprocess.run(
        [sys.executable, "-m", "revtop", "verify", "--suite", "enum,fact11,fact12,prop14,thm31",
         "--n", "4", "--seed", "1", "--samples", "1000"], capture_output=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.decode() == (
        "enum: 355/355 agree (count=355)\n"
        "fact11: 355/355 agree\n"
        "fact12: 1000/1000 agree\n"
        "prop14: 355/355 agree\n"
        "thm31: 355/355 agree (strongly_reversible=2 expected=2)\n")
