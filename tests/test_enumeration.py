import random
import subprocess
import sys
from bisect import bisect_left
from math import factorial

import pytest

from conftest import (
    all_preorders,
    brute_force_preorders,
    brute_force_topologies,
    needs_n6,
    reference_canonical_preorder,
    relabelled_rows,
    topology_of_preorder,
    transported_catalog,
)

import revtop.enumeration as enumeration
import revtop.topology as topology
from revtop.enumeration import (
    _cover_rows,
    _preorders,
    _up_opens,
    canonical_preorder,
    catalog,
    cover_graph,
    enumerate_topologies,
    enumerate_topologies_by_closure,
)
from revtop.topology import (
    CapExceededError,
    FiniteTopology,
    TopologyError,
    adjoin_open,
    mask_tables,
    preorder_of_topology,
    validate_topology,
)

KNOWN_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}   # OEIS A000798
KNOWN_ORBITS = {0: 1, 1: 1, 2: 3, 3: 9, 4: 33, 5: 139}      # OEIS A001930


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

    for name in ("_preorders", "_up_opens", "enumerate_topologies",
                 "enumerate_topologies_via_preorders", "catalog"):
        monkeypatch.setattr(enumeration, name, forbidden)
    monkeypatch.setattr(topology, "preorder_of_topology", forbidden)
    assert len(enumeration.enumerate_topologies_by_closure(4)) == 355


def test_closure_route_prunes_by_inherited_failures(monkeypatch):
    # one canonicity test per candidate the inherited failures do not skip;
    # Close-by-One without them makes 956 at n=4 and 36,812 at n=5
    calls = []
    path_fails = enumeration._path_fails
    monkeypatch.setattr(enumeration, "_path_fails",
                        lambda path, base, g: calls.append(g) or path_fails(path, base, g))
    for n, tests in {2: 3, 3: 36, 4: 591, 5: 14422}.items():
        calls.clear()
        assert len(enumeration.enumerate_topologies_by_closure(n)) == KNOWN_COUNTS[n]
        assert len(calls) == tests, n


def adds_below(opens, base: set[int], g: int) -> bool:
    """Oracle for the canonicity test, reading every open rather than the
    path generators: some cut b & g of the opens is neither open nor g, a new
    open below g.  Stops at the first such cut."""
    return not base.issuperset(filter(g.__ne__, map(g.__and__, opens)))


@pytest.mark.parametrize("n", range(5))
def test_linear_canonicity_test_matches_the_closure(n):
    # the oracle's verdict and the closure route's child against the full
    # closure, on every topology: the child adds no open below g iff both
    # have as many opens below g; the verdict reads the opens only up to the
    # first cut neither open nor g
    for t in brute_force_topologies(n):
        base = set(t.opens)
        for g in range(1, t.full):
            if g in base:
                continue
            closed = adjoin_open(t.opens, g)
            canonical = bisect_left(closed, g) == bisect_left(t.opens, g)
            read = []
            fails = adds_below((read.append(b) or b for b in t.opens), base, g)
            assert fails != canonical, (t.opens, g)
            first = next((i for i, b in enumerate(t.opens) if b & g not in base | {g}), None)
            assert len(read) == (len(t.opens) if first is None else first + 1), (t.opens, g)
            if canonical:
                assert tuple(sorted(enumeration._adjoin_above(t.opens, base, g))) == closed


def failures_in_descendants(n):
    """Close-by-One without skips, every verdict and child from the full
    closure, each node carrying its path generators and its ancestors' failed
    generators with their new cuts (the closure's opens inside g that are
    neither open nor g).  Asserts that the closure route's test on the path
    generators and the oracle's on every open give the closure's verdict,
    that each recorded generator fails again at every descendant that reaches
    it, and that no descendant holds a recorded cut.  Returns the number of
    topologies, of canonicity tests and of tests a record would skip."""
    full = (1 << n) - 1
    found = tests = skips = 0
    stack = [(topology.antidiscrete_topology(n).opens, (), {})]
    while stack:
        opens, path, inherited = stack.pop()
        found += 1
        base = set(opens)
        for g, cuts in inherited.items():
            assert base.isdisjoint(cuts), (opens, g, sorted(cuts))
        failed = dict(inherited)
        for g in range(path[-1] + 1 if path else 1, full):
            if g in base:
                continue
            tests += 1
            closed = adjoin_open(opens, g)
            fails = bisect_left(closed, g) > bisect_left(opens, g)
            assert enumeration._path_fails(path, base, g) == fails, (opens, path, g)
            assert adds_below(opens, base, g) == fails, (opens, g)
            if g in inherited:
                skips += 1
                assert fails, (opens, g)
            if fails:
                new = {o for o in closed if o & g == o} - base - {g}
                assert new, (opens, g)
                failed[g] = failed.get(g, frozenset()) | new
            else:
                stack.append((closed, path + (g,), failed))
    return found, tests, skips


# canonicity tests of Close-by-One without skips, and those FCbO leaves
UNSKIPPED = {0: (0, 0), 1: (0, 0), 2: (3, 3), 3: (41, 36), 4: (956, 591), 5: (36812, 14422)}


@pytest.mark.parametrize("n", range(6))
def test_failed_generators_fail_in_every_descendant(n):
    found, tests, skips = failures_in_descendants(n)
    assert found == KNOWN_COUNTS[n]
    assert (tests, tests - skips) == UNSKIPPED[n]


def test_catalog_fault_is_an_internal_error(monkeypatch, capsys):
    # opens that lose the full set from one candidate build no topology; the
    # json format expands the orbits, the summary expands none
    from revtop.cli import main

    calls = []

    def lossy(rows):
        calls.append(rows)
        opens = _up_opens(rows)
        return opens[:-1] if len(calls) == 2 else opens

    monkeypatch.setattr(enumeration, "_up_opens", lossy)
    enumeration.catalog.cache_clear()
    try:
        assert main(["enum", "--n", "3", "--format", "json"]) == 3
    finally:
        enumeration.catalog.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal error: computed family on 3 points is not a topology: ")
    assert "lacks the full set" in err


def test_overlapping_orbits_are_an_internal_error(monkeypatch, capsys):
    # a table that complements every proper nonempty set comes from no
    # permutation of the points: it puts each topology's dual, the family of
    # its closed sets, into its orbit, and some duals are not homeomorphic
    from revtop.cli import main

    tables = mask_tables(3) + ((0,) + tuple(7 ^ m for m in range(1, 7)) + (7,),)
    monkeypatch.setattr(topology, "mask_tables", lambda n: tables)
    enumeration.catalog.cache_clear()
    try:
        assert main(["enum", "--n", "3", "--format", "json"]) == 3
    finally:
        enumeration.catalog.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal error: the orbit of opens ")
    assert err.endswith(" meets an orbit already built\n")


OVERLAPPING = """
import sys
import revtop.topology as topology
from revtop.cli import main

if not sys.flags.optimize:
    sys.exit(99)
tables = topology.mask_tables(3) + ((0,) + tuple(7 ^ m for m in range(1, 7)) + (7,),)
topology.mask_tables = lambda n: tables
sys.exit(main(["enum", "--n", "3", "--format", "json"]))
"""


def test_overlapping_orbits_survive_optimize():
    # the complementing table above, in a process where assert statements are gone
    proc = subprocess.run([sys.executable, "-O", "-c", OVERLAPPING],
                          capture_output=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    err = proc.stderr.decode()
    assert err.startswith("internal error: the orbit of opens ")
    assert err.endswith(" meets an orbit already built\n")


def test_cap_is_checked_before_any_table(monkeypatch):
    from revtop.cli import main

    def forbidden(n):
        raise AssertionError(f"built the permutation tables for n={n}")

    monkeypatch.delenv("REVTOP_MAX_N", raising=False)
    monkeypatch.setattr(topology, "mask_tables", forbidden)
    monkeypatch.setattr(enumeration, "orbit_opens", forbidden)
    with pytest.raises(CapExceededError):
        enumerate_topologies(9)
    assert main(["enum", "--n", "9"]) == 2


@pytest.mark.parametrize("n", range(6))
def test_every_member_is_validated_once(monkeypatch, n):
    calls = []
    check = topology._is_topology
    monkeypatch.setattr(topology, "_is_topology",
                        lambda k, ops: calls.append(ops) or check(k, ops))
    cat = enumerate_topologies(n)
    assert calls == []      # the orbits are built on their first read
    assert len(cat) == KNOWN_COUNTS[n] and calls == []
    cat.orbits
    assert len(calls) == KNOWN_COUNTS[n]
    assert sorted(calls) == [t.opens for t in cat.topologies]


@pytest.mark.parametrize("n", range(6))
def test_key_orbit_sizes_match_the_expanded_orbits(n):
    # the catalog's size and orbit count come from the canonical keys, its
    # members from the permutation tables: the two give the same orbit sizes
    cat = enumerate_topologies(n)
    assert sorted(cat._sizes) == sorted(map(len, cat.orbits.values()))
    assert (len(cat), cat.orbit_count) == (KNOWN_COUNTS[n], KNOWN_ORBITS[n])


def test_every_member_is_valid(cat4):
    for t in cat4.topologies:
        assert validate_topology(4, t.opens) == t


def non_increasing(rows) -> bool:
    return all(a.bit_count() >= b.bit_count() for a, b in zip(rows, rows[1:]))


def test_preorder_count_matches_topology_count():
    for n in range(6):
        rows = [up for up, _ in all_preorders(n)]
        assert len(rows) == KNOWN_COUNTS[n]
        assert rows == sorted(set(rows))


@pytest.mark.parametrize("n", range(6))
def test_preorder_search_matches_the_oracles(n):
    # the oracle's pruned search, in order, against every reflexive
    # transitive tuple of rows and the 2^n scan for the up-closed point sets
    expected = [(rows, set(topology_of_preorder(rows).opens))
                for rows in brute_force_preorders(n)]
    assert list(all_preorders(n)) == expected


@pytest.mark.parametrize("n", range(6))
def test_size_sorted_search_matches_the_oracles(n):
    # exactly the preorders whose up-set sizes do not grow, in order, with
    # the opens of each
    expected = [rows for rows in brute_force_preorders(n) if non_increasing(rows)]
    assert list(_preorders(n)) == expected
    assert [_up_opens(rows) for rows in expected] == [
        topology_of_preorder(rows).opens for rows in expected]


@pytest.mark.parametrize("n", range(6))
def test_size_sorted_search_reaches_every_orbit(n):
    # canonical keys of the candidates: one per orbit, and by
    # orbit-stabilizer the orbits they reach hold every topology
    keys = {canonical_preorder(rows)[0::2] for rows in _preorders(n)}
    assert len(keys) == KNOWN_ORBITS[n]
    assert sum(factorial(n) // aut for _, aut in keys) == KNOWN_COUNTS[n]


@pytest.mark.parametrize("n", range(6))
def test_catalog_matches_the_transport(n):
    topologies, reps, orbits = transported_catalog(n)
    cat = catalog(n)
    assert cat.topologies == topologies
    assert tuple(cat.orbits) == reps
    assert list(cat.orbits.items()) == list(orbits.items())


@needs_n6
def test_both_enumerators_agree_n6(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    calls = []
    path_fails = enumeration._path_fails
    monkeypatch.setattr(enumeration, "_path_fails",
                        lambda path, base, g: calls.append(g) or path_fails(path, base, g))
    oracle = enumerate_topologies_by_closure(6)
    assert len(oracle) == 209527        # OEIS A000798
    assert len(calls) == 540406         # canonicity tests the inherited failures leave
    assert oracle == catalog(6).topologies


@needs_n6
def test_failed_generators_fail_in_every_descendant_n6():
    found, tests, skips = failures_in_descendants(6)
    assert found == 209527         # OEIS A000798
    assert (tests, tests - skips) == (2199257, 540406)


@needs_n6
def test_catalog_matches_the_transport_n6(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    everything = [rows for rows, _ in all_preorders(6)]
    assert len(everything) == 209527
    assert list(_preorders(6)) == [rows for rows in everything if non_increasing(rows)]
    del everything
    topologies, reps, orbits = transported_catalog(6)
    cat = catalog(6)
    assert cat.topologies == topologies
    assert tuple(cat.orbits) == reps
    assert list(cat.orbits.items()) == list(orbits.items())


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_round_trips(n):
    # every topology's rows are a reflexive transitive relation: exactly the
    # oracle's preorders, each of them once
    preorders = brute_force_preorders(n)
    assert sorted(preorder_of_topology(t) for t in catalog(n).topologies) == list(preorders)
    for up in preorders:
        assert preorder_of_topology(topology_of_preorder(up)) == up
    # the opens the oracle search carries, union-closed row by row, against
    # the scan of all 2^n point sets
    for up, opens in all_preorders(n):
        assert FiniteTopology(n, tuple(sorted(opens))) == topology_of_preorder(up)
    for t in catalog(n).topologies:
        assert topology_of_preorder(preorder_of_topology(t)) == t


def test_specialization_direction():
    # chain 0 <= 1: up-sets are {0,1} and {1}; opens are the up-closed sets
    assert topology_of_preorder((0b11, 0b10)) == FiniteTopology(2, (0, 2, 3))
    # x <= y iff every open set containing x contains y
    assert preorder_of_topology(FiniteTopology(2, (0, 2, 3))) == (0b11, 0b10)


def test_extreme_preorders():
    discrete_order = (0b01, 0b10)
    assert topology_of_preorder(discrete_order) == FiniteTopology(2, (0, 1, 2, 3))
    total = (0b11, 0b11)
    assert topology_of_preorder(total) == FiniteTopology(2, (0, 3))


def test_orbit_partition(cat3, cat4):
    for cat, n in ((cat3, 3), (cat4, 4)):
        sizes = list(map(len, cat.orbits.values()))
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


@pytest.mark.parametrize("n", range(6))
def test_canonical_preorder_separates_orbits(n):
    # one key per orbit and distinct keys across orbits: keys are equal iff
    # the members share an orbit, for every pair of catalog members
    cat = catalog(n)
    orbit_of_key = {}
    for rep, orbit in cat.orbits.items():
        keys = {canonical_preorder(preorder_of_topology(t))[0] for t in orbit}
        assert len(keys) == 1, rep
        assert orbit_of_key.setdefault(keys.pop(), rep) == rep
    assert len(orbit_of_key) == cat.orbit_count


@pytest.mark.parametrize("n", range(6))
def test_canonical_preorder_counts_automorphisms(n):
    # orbit-stabilizer: |orbit| * |Aut| = n!
    cat = catalog(n)
    for rep, orbit in cat.orbits.items():
        _, _, aut = canonical_preorder(preorder_of_topology(rep))
        assert aut * len(orbit) == factorial(n), rep


@pytest.mark.parametrize("n", range(5))
def test_canonical_labelling_carries_rows_onto_key(n):
    for t in catalog(n).topologies:
        up = preorder_of_topology(t)
        key, labelling, _ = canonical_preorder(up)
        assert sorted(labelling) == list(range(n))
        assert relabelled_rows(up, labelling) == key


def test_canonical_preorder_small_grounds():
    assert canonical_preorder(()) == ((), (), 1)
    assert canonical_preorder((0b1,)) == ((0b1,), (0,), 1)
    # the chain 0 <= 1 puts its top first; two equivalent or two
    # incomparable points are twins, swapped by the one other automorphism
    assert canonical_preorder((0b11, 0b10)) == ((0b01, 0b11), (1, 0), 1)
    assert canonical_preorder((0b11, 0b11)) == ((0b11, 0b11), (0, 1), 2)
    assert canonical_preorder((0b01, 0b10)) == ((0b01, 0b10), (0, 1), 2)


@needs_n6
def test_canonical_preorder_n6(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    cat = catalog(6)
    keys = set()
    for rep, orbit in cat.orbits.items():
        key, _, aut = canonical_preorder(preorder_of_topology(rep))
        assert aut * len(orbit) == 720, rep
        keys.add(key)
    assert len(keys) == cat.orbit_count == 718


@pytest.mark.parametrize("n", range(6))
def test_canonical_preorder_matches_the_reference_on_every_preorder(n):
    for rows in brute_force_preorders(n):
        assert canonical_preorder(rows) == reference_canonical_preorder(rows), rows


@needs_n6
def test_canonical_preorder_matches_the_reference_on_the_cover_rows_n6(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    for rows in {tuple(r) for key in cover_graph(6)[0] for r in _cover_rows(key)}:
        assert canonical_preorder(rows) == reference_canonical_preorder(rows), rows


def crown_pairs(m: int, offset: int) -> list[tuple[int, int]]:
    """The strict pairs of a crown on 2m points from offset on: minimal
    points a_i = offset + i and maximal b_i = offset + m + i, with a_i below
    b_i and b_(i+1 mod m)."""
    return [(offset + i, offset + m + (i + d) % m) for i in range(m) for d in (0, 1)]


def test_canonical_preorder_where_refinement_is_not_the_orbit_partition():
    # an 8-point crown beside a 6-point crown: refinement leaves all 7
    # minimal points in one cell, but the large crown's are another orbit
    # than the small crown's, so the key is invariant only if the search
    # takes every class of the cell.  |Aut| = 8 * 6, the dihedral groups.
    up = [1 << i for i in range(14)]
    for a, b in crown_pairs(4, 0) + crown_pairs(3, 8):
        up[a] |= 1 << b
    key, labelling, aut = canonical_preorder(up)
    assert aut == 48
    assert relabelled_rows(up, labelling) == key
    rng = random.Random(14)
    for _ in range(20):
        moved_key, _, moved_aut = canonical_preorder(relabelled_rows(up, rng.sample(range(14), 14)))
        assert (moved_key, moved_aut) == (key, aut)
