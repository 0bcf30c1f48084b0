import json
import random
from itertools import combinations, permutations
from math import factorial

import pytest

from conftest import (
    inclusion_rows,
    isomorphic_rows,
    labelled_order,
    needs_n6,
    needs_n7,
    relabelled_rows,
)

import revtop.enumeration as enumeration
from revtop.enumeration import (
    _cover_rows,
    _up_opens,
    canonical_preorder,
    catalog,
    cover_graph,
)
from revtop.order import (
    LEQ_METHODS,
    REVERSIBILITY_METHODS,
    StrongKind,
    _monotone_bijections,
    classify_strongly_reversible,
    condensational_leq,
    condensational_order,
    conv_hull,
    homeo_class,
    is_reversible,
    is_strongly_reversible,
    is_weakly_reversible,
    sim_class,
)
from revtop.topology import (
    DimensionMismatchError,
    FiniteTopology,
    adjoin_open,
    antidiscrete_topology,
    discrete_topology,
    image_opens,
    image_topology,
    opens_bitset,
    preimages_open,
    preorder_of_topology,
)

SIERP = FiniteTopology(2, (0, 1, 3))
SIERP_FLIP = FiniteTopology(2, (0, 2, 3))


def test_homeo_class_examples():
    assert homeo_class(discrete_topology(3)) == (discrete_topology(3),)
    assert homeo_class(SIERP) == (SIERP, SIERP_FLIP)
    one_point_open = FiniteTopology(3, (0, 1, 7))
    assert len(homeo_class(one_point_open)) == 3


def test_reversibility_methods_agree_n3(cat3):
    for t in cat3.topologies:
        answers = [is_reversible(t, m) for m in REVERSIBILITY_METHODS]
        assert answers == [True, True, True, True]


def test_direct_reversibility_reads_no_tables(monkeypatch, cat3):
    # the direct and witness-map routes stay independent of the permutation
    # tables and of the catalog the production routes are built from
    import revtop.order
    import revtop.topology

    tops = cat3.topologies
    expected = [condensational_leq(a, b) for a in tops for b in tops]

    def forbidden(n):
        raise AssertionError("a second route read the permutation tables or the catalog")

    for module in (revtop.order, revtop.topology):
        monkeypatch.setattr(module, "mask_tables", forbidden)
    monkeypatch.setattr(revtop.order, "catalog", forbidden)
    assert all(is_reversible(t, "direct") for t in tops)
    assert [condensational_leq(a, b, "witness_map") for a in tops for b in tops] == expected


def continuous_bijections(dom, cod, candidates):
    """The candidates whose preimages of cod's opens are open in dom."""
    dom_opens = frozenset(dom.opens)
    return {f for f in candidates if preimages_open(f, dom_opens, cod.opens)}


def pruned_candidates(dom, cod):
    found = list(_monotone_bijections(preorder_of_topology(dom), preorder_of_topology(cod)))
    assert len(found) == len(set(found))
    assert all(sorted(f) == list(range(dom.n)) for f in found)
    return found


def pair_cases(n, rep_first):
    """Every ordered pair at n <= 3; at n = 4, each representative against
    every member, with the representative first or second."""
    cat = catalog(n)
    if n <= 3:
        return [(a, b) for a in cat.topologies for b in cat.topologies]
    return [(rep, t) if rep_first else (t, rep) for rep in cat.orbits for t in cat.topologies]


@pytest.mark.parametrize("n,rep_first", [(0, True), (1, True), (2, True), (3, True),
                                         (4, True), (4, False)])
def test_pruned_search_finds_exactly_the_continuous_bijections(n, rep_first):
    # a pruning fault that drops some witnesses of a pair but not all of them
    # leaves every any() answer unchanged, so the witness sets are compared
    every = list(permutations(range(n)))
    for dom, cod in pair_cases(n, rep_first):
        assert continuous_bijections(dom, cod, pruned_candidates(dom, cod)) == \
            continuous_bijections(dom, cod, every), (dom, cod)


@pytest.mark.parametrize("n", range(6))
def test_direct_checks_every_automorphism(monkeypatch, n):
    # direct decides each continuous self-bijection it meets; a reversible t
    # makes it meet all of them, and those with image t are its
    # automorphisms, n! / |orbit| of them
    import revtop.order

    passed = []

    def recording(f, dom_opens, cod_opens):
        ok = preimages_open(f, dom_opens, cod_opens)
        if ok:
            passed.append(f)
        return ok

    monkeypatch.setattr(revtop.order, "preimages_open", recording)
    cat = catalog(n)
    for rep, orbit in cat.orbits.items():
        passed.clear()
        assert is_reversible(rep, "direct")
        automorphisms = {f for f in passed if image_opens(f, rep.opens) == rep.opens}
        assert len(passed) == len(automorphisms) == factorial(n) // len(orbit), rep


def test_antichain_compares_only_across_open_counts(monkeypatch):
    # the antichain method reads only the class: a repeated member or a
    # nested pair makes it False, and families of different open counts
    # that are not nested leave it True
    orbits = catalog(2).orbits
    monkeypatch.setitem(orbits, SIERP, (SIERP, SIERP_FLIP, SIERP))
    assert not is_reversible(SIERP, "antichain")
    monkeypatch.setitem(orbits, SIERP, (SIERP, discrete_topology(2)))
    assert not is_reversible(SIERP, "antichain")
    one_open_point = FiniteTopology(3, (0, 0b001, 0b111))
    unrelated = FiniteTopology(3, (0, 0b010, 0b110, 0b111))
    monkeypatch.setitem(catalog(3).orbits, one_open_point, (one_open_point, unrelated))
    assert is_reversible(one_open_point, "antichain")


def test_reversibility_examples():
    assert all(is_reversible(discrete_topology(2), m) for m in REVERSIBILITY_METHODS)
    assert all(is_reversible(SIERP, m) for m in REVERSIBILITY_METHODS)


def test_leq_examples(cat2):
    anti, disc = antidiscrete_topology(2), discrete_topology(2)
    for t in cat2.topologies:
        assert all(condensational_leq(anti, t, m) for m in LEQ_METHODS)
        assert all(condensational_leq(t, disc, m) for m in LEQ_METHODS)
    assert not any(condensational_leq(disc, anti, m) for m in LEQ_METHODS)


def test_leq_methods_agree_all_pairs_n2(cat2):
    for a in cat2.topologies:
        for b in cat2.topologies:
            answers = {condensational_leq(a, b, m) for m in LEQ_METHODS}
            assert len(answers) == 1


def test_leq_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        condensational_leq(SIERP, discrete_topology(3))


def test_leq_with_more_opens_searches_nothing(monkeypatch):
    # a copy of t1 has as many opens as t1, so no method searches the
    # permutations when t1 has more opens than t2
    import revtop.order

    def forbidden(n):
        raise AssertionError("searched the permutation tables")

    monkeypatch.setattr(revtop.order, "mask_tables", forbidden)
    disc, anti = discrete_topology(3), antidiscrete_topology(3)
    for m in LEQ_METHODS:
        assert not condensational_leq(disc, anti, m)
    # an unknown method is refused whatever the open counts
    for pair in ((disc, anti), (anti, disc)):
        with pytest.raises(ValueError, match="unknown ordering method"):
            condensational_leq(*pair, "nope")


def test_leq_is_preorder(cat2):
    tops = cat2.topologies
    for a in tops:
        assert condensational_leq(a, a)
    for a in tops:
        for b in tops:
            for c in tops:
                if condensational_leq(a, b) and condensational_leq(b, c):
                    assert condensational_leq(a, c)


def test_sim_class_collapses_to_homeo_class_n3(cat3, cat4):
    for cat in (cat3, cat4):
        for t in cat.topologies:
            assert sim_class(t) == homeo_class(t)


def test_conv_hull_examples():
    anti = antidiscrete_topology(2)
    assert conv_hull([anti]) == (anti,)
    assert conv_hull([SIERP, SIERP_FLIP]) == (SIERP, SIERP_FLIP)


@pytest.mark.parametrize("call", [conv_hull])
def test_mixed_ground_sizes_are_rejected(call):
    with pytest.raises(DimensionMismatchError):
        call([antidiscrete_topology(2), discrete_topology(3)])


def test_conv_hull_matches_sim_class_n3(cat3):
    for t in cat3.topologies:
        assert conv_hull(homeo_class(t)) == sim_class(t)


def test_weak_reversibility(cat3):
    assert is_weakly_reversible(discrete_topology(2))
    assert is_weakly_reversible(SIERP)
    for t in cat3.topologies:
        weak = is_weakly_reversible(t)
        assert weak == (sim_class(t) == homeo_class(t))
        assert weak


def test_reversibility_bridges(cat3):
    # strongly reversible => reversible => weakly reversible
    for t in cat3.topologies:
        if is_strongly_reversible(t):
            assert is_reversible(t)
        if is_reversible(t):
            assert is_weakly_reversible(t)


def test_strong_reversibility_counts():
    for n in (2, 3, 4):
        strong = [t for t in catalog(n).topologies if is_strongly_reversible(t)]
        assert strong == sorted([antidiscrete_topology(n), discrete_topology(n)])
    for n in (0, 1):
        assert sum(is_strongly_reversible(t) for t in catalog(n).topologies) == 1


def test_classification_examples():
    assert classify_strongly_reversible(discrete_topology(4)) == StrongKind.DISCRETE
    assert classify_strongly_reversible(antidiscrete_topology(4)) == StrongKind.ANTIDISCRETE
    assert classify_strongly_reversible(SIERP) == StrongKind.NOT_STRONGLY_REVERSIBLE


def test_classification_agrees_with_orbit_test(cat4):
    for t in cat4.topologies:
        label = classify_strongly_reversible(t)
        assert (label != StrongKind.NOT_STRONGLY_REVERSIBLE) == (len(homeo_class(t)) == 1)
        assert (label != StrongKind.NOT_STRONGLY_REVERSIBLE) == is_strongly_reversible(t)


def test_condensational_order_n1():
    digraph = condensational_order(1)
    assert len(digraph.nodes) == 1
    assert digraph.hasse == ()


def test_condensational_order_n2_is_three_chain():
    digraph = condensational_order(2)
    assert [t.opens for t in digraph.nodes] == [(0, 1, 2, 3), (0, 1, 3), (0, 3)]
    assert digraph.orbit_sizes == (1, 2, 1)
    assert set(digraph.hasse) == {(1, 0), (2, 1)}


ORBIT_COUNTS = {2: 3, 3: 9, 4: 33}


def leq(digraph, i, j) -> bool:
    return bool(digraph.up[i] >> j & 1)


def reference_hasse(digraph):
    """The transitive reduction by its O(k^3) definition: i < j with no node
    strictly between them."""
    k = len(digraph.nodes)
    return [(i, j) for i in range(k) for j in range(k)
            if i != j and leq(digraph, i, j)
            and not any(x not in (i, j) and leq(digraph, i, x) and leq(digraph, x, j)
                        for x in range(k))]


def assert_order_matches_leq(n, methods):
    """Every bit of the production order, read from the catalog's orbits,
    equals the permutation search on the pair of representatives."""
    digraph = condensational_order(n)
    for i, a in enumerate(digraph.nodes):
        for j, b in enumerate(digraph.nodes):
            for m in methods:
                assert leq(digraph, i, j) == condensational_leq(a, b, m), (a, b, m)


def reference_order_up(n):
    """The order from its definition on the catalog's orbits, without
    adjoin_open: bit j of row i is set iff some member of orbit i is coarser
    than representative j, i.e. has no open outside it."""
    cat = catalog(n)
    outside = [~opens_bitset(b) for b in cat.orbits]
    members = [[opens_bitset(u) for u in orbit] for orbit in cat.orbits.values()]
    return tuple(sum(1 << j for j, out in enumerate(outside)
                     if 0 in map(out.__and__, bits))
                 for bits in members)


@pytest.mark.parametrize("n", range(6))
def test_condensational_order_matches_member_subsets(n):
    assert condensational_order(n).up == reference_order_up(n)


def test_order_fault_is_an_internal_error(monkeypatch, capsys):
    # a cover with no more opens than its parent (here the parent itself)
    # breaks the invariant the one pass in decreasing open count relies on
    import revtop.enumeration
    from revtop.cli import main
    monkeypatch.setattr(revtop.enumeration, "_cover_rows", lambda rows: [rows])
    with pytest.raises(AssertionError, match="has no more opens"):
        condensational_order(3)
    assert main(["order", "--n", "3"]) == 3
    assert capsys.readouterr().err.startswith("internal error: the cover [")


@needs_n6
def test_condensational_order_n6(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    digraph = condensational_order(6)
    assert len(digraph.nodes) == 718
    assert len(digraph.hasse) == 2894
    assert digraph.up == reference_order_up(6)
    assert digraph == labelled_order(6)


@pytest.mark.parametrize("n", range(6))
def test_condensational_order_matches_the_labelled_oracle(n):
    assert condensational_order(n) == labelled_order(n)


# OEIS A001930 (orbits) and A000798 (topologies)
KNOWN = {0: (1, 1), 1: (1, 1), 2: (3, 4), 3: (9, 29), 4: (33, 355), 5: (139, 6942),
         6: (718, 209527)}


@pytest.mark.parametrize("n", range(7))
def test_cover_graph_counts_the_orbits(monkeypatch, n):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    keys, sizes, covers = cover_graph(n)
    assert (len(keys), sum(sizes)) == KNOWN[n]
    assert len(set(keys)) == len(keys) == len(covers)


def test_cover_graph_keys_each_rows_tuple_once(monkeypatch):
    # one key call for the antidiscrete start and one per distinct cover
    # rows tuple
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    calls = []
    key_of = enumeration.canonical_preorder
    monkeypatch.setattr(enumeration, "canonical_preorder",
                        lambda rows: calls.append(rows) or key_of(rows))
    for n, distinct in {5: 427, 6: 2800}.items():
        calls.clear()
        keys = cover_graph(n)[0]
        assert len(calls) == 1 + len({tuple(r) for key in keys for r in _cover_rows(key)})
        assert len(calls) == 1 + distinct


def unpruned_cover_keys(rows):
    """The keys of the covers by the rule, from the definitions: every
    nonempty proper subset A of every twin class, and every Hasse edge X < Y
    of the quotient found as a pair with no class strictly between."""
    k = len(rows)
    classes = {frozenset(j for j in range(k) if rows[j] == rows[i]) for i in range(k)}
    keys = set()
    for c in classes:
        for size in range(1, len(c)):
            for a in combinations(sorted(c), size):
                lower = sum(1 << v for v in a)
                keys.add(canonical_preorder(tuple(
                    row & ~lower if v in c and v not in a else row
                    for v, row in enumerate(rows)))[0])
    below = {(x, y) for x in classes for y in classes
             if x != y and rows[min(x)] >> min(y) & 1}
    for x, y in below:
        if not any((x, z) in below and (z, y) in below for z in classes):
            upper = sum(1 << v for v in y)
            keys.add(canonical_preorder(tuple(
                row & ~upper if v in x else row for v, row in enumerate(rows)))[0])
    return keys


def adjoin_cover_keys(rows):
    """The keys of the minimal children of adjoining each point set that is
    not open: the upper covers in the lattice of topologies, by definition."""
    n = len(rows)
    opens = _up_opens(rows)
    present = set(opens)
    children = {frozenset(adjoin_open(opens, g)) for g in range(1, 1 << n) if g not in present}
    minimal = [c for c in children if not any(d < c for d in children)]
    return {canonical_preorder(preorder_of_topology(FiniteTopology(n, tuple(sorted(c)))))[0]
            for c in minimal}


def assert_covers_match_the_oracles(n):
    for key in cover_graph(n)[0]:
        pruned = {canonical_preorder(rows)[0] for rows in _cover_rows(key)}
        assert pruned == unpruned_cover_keys(key) == adjoin_cover_keys(key), key


@pytest.mark.parametrize("n", range(6))
def test_covers_match_the_unpruned_rule_and_the_adjoin_filter(n):
    assert_covers_match_the_oracles(n)


@needs_n6
def test_covers_match_the_unpruned_rule_and_the_adjoin_filter_n6(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    assert_covers_match_the_oracles(6)


@needs_n7
def test_condensational_order_n7(monkeypatch):
    # the Hasse edges are exactly the distinct cover pairs; each node is
    # matched to its key through its own preorder
    monkeypatch.setenv("REVTOP_MAX_N", "7")
    keys, sizes, covers = cover_graph(7)
    digraph = condensational_order(7)
    assert len(digraph.nodes) == 4535 and len(digraph.hasse) == 24192
    assert sum(digraph.orbit_sizes) == sum(sizes) == 9535241
    key_of = [canonical_preorder(preorder_of_topology(t))[0] for t in digraph.nodes]
    assert {(key_of[i], key_of[j]) for i, j in digraph.hasse} == {
        (keys[i], keys[c]) for i, children in enumerate(covers) for c in children}


@pytest.mark.parametrize("n", range(5))
def test_json_chunks_are_the_json_module_bytes(n):
    digraph = condensational_order(n)
    k = len(digraph.nodes)
    data = {"n": n,
            "nodes": [{"opens": list(t.opens), "orbit_size": s}
                      for t, s in zip(digraph.nodes, digraph.orbit_sizes)],
            "leq": [[row >> j & 1 for j in range(k)] for row in digraph.up],
            "hasse": [list(e) for e in digraph.hasse]}
    assert "".join(digraph.json_chunks()) == json.dumps(
        data, sort_keys=True, separators=(",", ":")) + "\n"


@needs_n6
def test_second_routes_at_n6(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    cat = catalog(6)
    tops = cat.topologies
    rng = random.Random(6)
    for _ in range(2000):
        a, b = tops[rng.randrange(len(tops))], tops[rng.randrange(len(tops))]
        assert condensational_leq(a, b, "witness_map") == condensational_leq(a, b), (a, b)
    assert all(is_reversible(rep, "direct") for rep in cat.orbits)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_condensational_order_matches_leq_methods(n):
    assert_order_matches_leq(n, LEQ_METHODS)


def test_condensational_order_matches_leq_n5():
    assert_order_matches_leq(5, ("coarsening_of_t2_side",))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_condensational_order_antisymmetric(n):
    digraph = condensational_order(n)
    k = len(digraph.nodes)
    assert k == ORBIT_COUNTS[n]
    for i in range(k):
        assert leq(digraph, i, i)
        for j in range(k):
            if i != j and leq(digraph, i, j):
                assert not leq(digraph, j, i)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_order_is_transitive(n):
    digraph = condensational_order(n)
    k = len(digraph.nodes)
    for i in range(k):
        for j in range(k):
            for x in range(k):
                if leq(digraph, i, j) and leq(digraph, j, x):
                    assert leq(digraph, i, x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hasse_is_transitive_reduction(n):
    digraph = condensational_order(n)
    assert digraph.hasse == tuple(reference_hasse(digraph))


def inclusion_key(family):
    """The canonical key of a family of distinct topologies ordered by
    inclusion: equal keys iff the posets are isomorphic."""
    return canonical_preorder(inclusion_rows(family))[0]


def test_poset_invariant_examples():
    assert inclusion_key([discrete_topology(2)]) == (0b1,)
    # two incomparable members: each row holds only itself
    assert inclusion_key(homeo_class(SIERP)) == (0b01, 0b10)


def test_poset_invariant_is_isomorphism_invariant(cat3):
    tops = cat3.topologies
    for a in tops[::4]:
        cls = homeo_class(a)
        for b in cls:
            assert inclusion_key(homeo_class(b)) == inclusion_key(cls)


def test_poset_invariant_distinguishes_shapes():
    anti, disc = antidiscrete_topology(2), discrete_topology(2)
    chain3 = inclusion_key([anti, SIERP, disc])
    vee = inclusion_key([anti, SIERP, SIERP_FLIP])
    antichain2 = inclusion_key([SIERP, SIERP_FLIP])
    assert chain3 != vee
    assert len(chain3) == len(vee) == 3
    assert len(antichain2) == 2
    # the chain puts its top first: position p lies below positions < p
    assert chain3 == (0b001, 0b011, 0b111)
    # mirrored diamond arms are isomorphic
    wedge_a = inclusion_key([anti, SIERP])
    wedge_b = inclusion_key([anti, SIERP_FLIP])
    assert wedge_a == wedge_b == inclusion_key([SIERP, disc])


def test_poset_invariant_matches_the_isomorphism_oracle(cat3):
    # seeded families of up to 6 members, each with a copy relabelled by a
    # permutation of the points (an isomorphic family); the oracle sorts them
    # into isomorphism classes by trying every bijection of the inclusion rows
    rng = random.Random(15)
    tops = cat3.topologies
    families = []
    for _ in range(40):
        family = rng.sample(tops, rng.randint(1, 6))
        f = tuple(rng.sample(range(3), 3))
        families += [family, [image_topology(f, t) for t in family]]
    classes: list[tuple[list[int], tuple[int, ...]]] = []
    for family in families:
        up = inclusion_rows(family)
        key = canonical_preorder(up)[0]
        for rows, known in classes:
            if isomorphic_rows(up, rows):
                assert key == known, family
                break
            assert key != known, family
        else:
            classes.append((up, key))
    assert len(classes) > 10


def test_poset_invariant_of_catalog3_ignores_element_labels(cat3):
    # the 29-member inclusion poset has cells that are not twin classes, so
    # the search individualises and refines; relabelling its elements keeps
    # the key, and |Aut| = 12: the point permutations times duality
    up = inclusion_rows(cat3.topologies)
    key, _, aut = canonical_preorder(up)
    assert aut == 12
    rng = random.Random(3)
    for _ in range(5):
        moved_key, _, moved_aut = canonical_preorder(relabelled_rows(up, rng.sample(range(29), 29)))
        assert (moved_key, moved_aut) == (key, aut)
