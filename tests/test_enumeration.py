import pytest

from conftest import (
    RUN_N5,
    brute_force_preorders,
    brute_force_topologies,
    topology_of_preorder,
)

import revtop.enumeration as enumeration
from revtop.enumeration import (
    Preorder,
    _preorders,
    catalog,
    enumerate_preorders,
    enumerate_topologies,
    enumerate_topologies_by_closure,
    preorder_of_topology,
)
from revtop.topology import (
    CapExceededError,
    FiniteTopology,
    TopologyError,
    mask_tables,
    validate_topology,
)

KNOWN_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}   # OEIS A000798


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_both_enumerators_agree(n, count):
    direct = catalog(n).topologies
    oracle = enumerate_topologies_by_closure(n)
    assert len(direct) == count
    assert direct == oracle


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_against_brute_force_filter(n):
    # every family with the empty and full sets that is closed under pairwise
    # union and intersection, found without adjoin_open or preorders
    expected = brute_force_topologies(n)
    oracle = enumerate_topologies_by_closure(n)
    assert len(set(oracle)) == len(oracle)
    assert list(oracle) == expected
    assert list(catalog(n).topologies) == expected


def test_closure_route_reads_no_preorders(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closure route read the production catalog")

    for name in ("_preorders", "enumerate_preorders",
                 "enumerate_topologies_via_preorders", "catalog"):
        monkeypatch.setattr(enumeration, name, forbidden)
    assert len(enumeration.enumerate_topologies_by_closure(4)) == 355


def test_closure_route_prunes_by_inherited_failures(monkeypatch):
    # Close-by-One without the inherited failures closes 956 times at n=4
    calls = []
    adjoin = enumeration.adjoin_open
    monkeypatch.setattr(enumeration, "adjoin_open",
                        lambda opens, g: calls.append(g) or adjoin(opens, g))
    assert len(enumeration.enumerate_topologies_by_closure(4)) == 355
    assert len(calls) < 956


def test_catalog_fault_is_an_internal_error(monkeypatch, capsys):
    # a search that loses the full set from one family builds no topology
    from revtop.cli import main

    search = enumeration._preorders

    def lossy(n):
        for k, (rows, opens) in enumerate(search(n)):
            yield rows, opens - {(1 << n) - 1} if k == 7 else opens

    monkeypatch.setattr(enumeration, "_preorders", lossy)
    enumeration.catalog.cache_clear()
    try:
        assert main(["enum", "--n", "3"]) == 3
    finally:
        enumeration.catalog.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal error: computed family on 3 points is not a topology: ")
    assert "lacks the full set" in err


def test_every_member_is_valid(cat4):
    for t in cat4.topologies:
        assert validate_topology(4, t.opens) == t


def test_preorder_count_matches_topology_count():
    for n in range(6):
        rows = [p.up for p in enumerate_preorders(n)]
        assert len(rows) == KNOWN_COUNTS[n]
        assert rows == sorted(set(rows))


@pytest.mark.parametrize("n", range(6 if RUN_N5 else 5))
def test_preorder_search_matches_the_oracles(n):
    # the pruned search, in order, against every reflexive transitive tuple
    # of rows and the 2^n scan for the up-closed point sets
    expected = [(rows, set(topology_of_preorder(Preorder(n, rows)).opens))
                for rows in brute_force_preorders(n)]
    assert list(_preorders(n)) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_round_trips(n):
    for p in enumerate_preorders(n):
        assert preorder_of_topology(topology_of_preorder(p)) == p
    # the opens the search carries, union-closed row by row, against the
    # scan of all 2^n point sets
    for rows, opens in _preorders(n):
        assert FiniteTopology(n, tuple(sorted(opens))) == topology_of_preorder(Preorder(n, rows))
    for t in catalog(n).topologies:
        assert topology_of_preorder(preorder_of_topology(t)) == t


def test_specialization_direction():
    # chain 0 <= 1: up-sets are {0,1} and {1}; opens are the up-closed sets
    p = Preorder(2, (0b11, 0b10))
    assert topology_of_preorder(p) == FiniteTopology(2, (0, 2, 3))


def test_extreme_preorders():
    discrete_order = Preorder(2, (0b01, 0b10))
    assert topology_of_preorder(discrete_order) == FiniteTopology(2, (0, 1, 2, 3))
    total = Preorder(2, (0b11, 0b11))
    assert topology_of_preorder(total) == FiniteTopology(2, (0, 3))


def test_preorder_invariants_rejected():
    with pytest.raises(TopologyError):
        Preorder(2, (0b10, 0b01))  # not reflexive
    with pytest.raises(TopologyError):
        Preorder(3, (0b011, 0b110, 0b100))  # 0<=1, 1<=2 but not 0<=2


def test_orbit_partition(cat3, cat4):
    for cat, n in ((cat3, 3), (cat4, 4)):
        sizes = cat.orbit_sizes()
        assert sum(sizes) == len(cat.topologies)
        fact = 1
        for i in range(1, n + 1):
            fact *= i
        assert all(fact % s == 0 for s in sizes)
        for rep, members in cat.orbits.items():
            assert rep == members[0]
        # disjoint and covering
        assert sorted(m for members in cat.orbits.values() for m in members) == list(cat.topologies)


def test_orbit_count_matches_burnside(cat3):
    # Burnside: number of orbits = average number of fixed topologies
    tables = mask_tables(3)
    fixed = 0
    tops = [frozenset(t.opens) for t in cat3.topologies]
    for tab in tables:
        for opens in tops:
            if frozenset(tab[o] for o in opens) == opens:
                fixed += 1
    assert fixed // len(tables) == cat3.orbit_count == 9


def test_cap_enforced(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "3")
    with pytest.raises(CapExceededError):
        enumerate_topologies(4)
    with pytest.raises(CapExceededError):
        enumerate_topologies_by_closure(4)
    for raw in ("not-a-number", "50", "-3"):
        monkeypatch.setenv("REVTOP_MAX_N", raw)
        with pytest.raises(TopologyError):
            enumerate_topologies(2)
