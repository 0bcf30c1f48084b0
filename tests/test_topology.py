import copy
import pickle
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_canonical_form,
    closure_fault,
    needs_n7,
    relabelled_rows,
)

from revtop.enumeration import _up_opens, catalog, cover_graph
from revtop.topology import (
    DimensionMismatchError,
    FiniteTopology,
    MissingEmptyError,
    MissingFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    TopologyError,
    adjoin_open,
    antidiscrete_topology,
    canonical_form,
    discrete_topology,
    image_topology,
    is_continuous,
    is_homeomorphism,
    opens_bitset,
    orbit_opens,
    validate_topology,
)

SIERP = FiniteTopology(2, (0, 1, 3))       # opens: empty, {0}, full
SIERP_FLIP = FiniteTopology(2, (0, 2, 3))  # opens: empty, {1}, full


def test_validate_antidiscrete():
    assert validate_topology(2, [0, 3]) == FiniteTopology(2, (0, 3))


def test_validate_discrete():
    assert validate_topology(2, [0, 1, 2, 3]) == discrete_topology(2)


def test_validate_union_failure_witness():
    with pytest.raises(NotClosedUnderUnionError) as err:
        validate_topology(3, [0, 1, 2, 7])
    assert err.value.witness == (1, 2)


def test_constructor_enforces_closure():
    with pytest.raises(NotClosedUnderUnionError) as err:
        FiniteTopology(3, (0, 1, 2, 7))
    assert err.value.witness == (1, 2)
    with pytest.raises(NotClosedUnderIntersectionError) as err:
        FiniteTopology(3, (0, 3, 6, 7))
    assert err.value.witness == (3, 6)
    with pytest.raises(TopologyError):
        FiniteTopology(2, (0, 2, 1, 3))  # not sorted
    with pytest.raises(TopologyError):
        FiniteTopology(2, (0, 1, 3, 4))  # out of range


@pytest.mark.parametrize("n", range(5))
def test_constructor_matches_the_pairwise_definition(n):
    # every family of point sets on n points (2^16 of them at n = 4): accepted
    # exactly when the definition holds, else the same error and witness
    size = 1 << n
    for family in range(1 << size):
        ops = tuple(m for m in range(size) if family >> m & 1)
        try:
            FiniteTopology(n, ops)
            verdict = None
        except TopologyError as exc:
            verdict = type(exc), getattr(exc, "witness", None)
        assert verdict == closure_fault(n, ops), ops


@pytest.mark.parametrize("n", range(4))
def test_constructor_matches_the_definition_unsorted(n):
    # every family on n points in a shuffled order, and sorted with each of
    # its opens repeated in place, which passes the order check and reaches
    # the bitset check: a family that is not strictly sorted is refused as
    # such, with no witness, and any other gets closure_fault's verdict
    rng = random.Random(n)
    size = 1 << n
    for family in range(1 << size):
        ops = [m for m in range(size) if family >> m & 1]
        repeated = [tuple(ops[:i] + ops[i - 1:]) for i in range(1, len(ops) + 1)]
        for case in [tuple(rng.sample(ops, len(ops))), *repeated]:
            try:
                FiniteTopology(n, case)
                verdict = None
            except TopologyError as exc:
                verdict = type(exc), getattr(exc, "witness", None)
            unsorted = any(a >= b for a, b in zip(case, case[1:]))
            assert verdict == ((TopologyError, None) if unsorted else closure_fault(n, case)), case


def test_constructor_edges():
    assert FiniteTopology(0, (0,)).opens == (0,)
    with pytest.raises(MissingEmptyError):
        FiniteTopology(0, ())
    with pytest.raises(TopologyError, match="point set 1 out of range for n=0"):
        FiniteTopology(0, (0, 1))
    # closed under both operations, but without the full set
    with pytest.raises(MissingFullError):
        FiniteTopology(3, (0, 1, 3))
    with pytest.raises(TopologyError, match="strictly sorted"):
        FiniteTopology(2, (0, 1, 1, 3))
    with pytest.raises(TopologyError, match="strictly sorted"):
        FiniteTopology(3, (0, 3, 1, 7))
    with pytest.raises(TopologyError, match="point set -1 out of range"):
        FiniteTopology(2, (-1, 0, 3))
    with pytest.raises(TopologyError, match="point set 8 out of range"):
        FiniteTopology(3, (0, 7, 8))


def test_constructor_at_ten_points_and_beyond():
    full = (1 << 10) - 1
    chain = FiniteTopology(10, tuple((1 << k) - 1 for k in range(11)))
    assert chain.opens[-1] == full
    assert FiniteTopology(10, tuple(range(1 << 10))) == discrete_topology(10)
    with pytest.raises(NotClosedUnderUnionError) as err:
        FiniteTopology(10, (0, 1, 2, full))
    assert err.value.witness == (1, 2)
    with pytest.raises(NotClosedUnderIntersectionError) as err:
        FiniteTopology(10, (0, 3, 6, 7, full))
    assert err.value.witness == (3, 6)
    # beyond the hard cap the pairwise scan decides alone
    assert FiniteTopology(11, (0, 1, (1 << 11) - 1)).n == 11
    with pytest.raises(NotClosedUnderUnionError):
        FiniteTopology(11, (0, 1, 2, (1 << 11) - 1))


def test_constructor_check_survives_optimisation():
    code = ("from revtop.topology import FiniteTopology, NotClosedUnderUnionError\n"
            "try:\n"
            "    FiniteTopology(3, (0, 1, 2, 7))\n"
            "except NotClosedUnderUnionError as exc:\n"
            "    print(exc.witness)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(1, 2)\n"


def test_value_is_the_tuple_of_n_and_opens():
    assert SIERP == (2, (0, 1, 3)) and hash(SIERP) == hash((2, (0, 1, 3)))
    assert SIERP < SIERP_FLIP < FiniteTopology(3, (0, 7))
    assert sorted([SIERP_FLIP, SIERP]) == [SIERP, SIERP_FLIP]
    assert repr(FiniteTopology(2, (0, 3))) == "FiniteTopology(n=2, opens=(0, 3))"
    assert (SIERP.n, SIERP.opens, SIERP.full) == (2, (0, 1, 3), 3)
    with pytest.raises(AttributeError):
        SIERP.n = 3


# Routes that build a topology without calling FiniteTopology directly.  The
# copy and pickle routes start from a value made with tuple.__new__, which
# skips the check, and must refuse to rebuild an invalid one.  INVALID is a
# family on 2 points that lacks the full set.
INVALID = (2, (0, 1))
ROUTES = {
    "_make": lambda n, opens: FiniteTopology._make((n, opens)),
    "_replace": lambda n, opens: FiniteTopology(n, (0, (1 << n) - 1))._replace(opens=opens),
    "copy": lambda n, opens: copy.copy(tuple.__new__(FiniteTopology, (n, opens))),
    "deepcopy": lambda n, opens: copy.deepcopy(tuple.__new__(FiniteTopology, (n, opens))),
    "pickle": lambda n, opens: pickle.loads(pickle.dumps(tuple.__new__(FiniteTopology,
                                                                       (n, opens)))),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_construction_route_validates(route):
    build = ROUTES[route]
    with pytest.raises(TopologyError):
        build(*INVALID)
    value = build(2, (0, 1, 3))
    assert type(value) is FiniteTopology and value == SIERP


def test_validate_missing_sets():
    with pytest.raises(MissingEmptyError):
        validate_topology(2, [1, 3])
    with pytest.raises(MissingFullError):
        validate_topology(2, [0, 1])


def test_validate_deduplicates():
    assert validate_topology(2, [0, 0, 3, 3, 1, 1]) == SIERP


def generate(n: int, subbase) -> FiniteTopology:
    """The topology that adjoin_open builds from the antidiscrete one by
    adjoining the point sets of subbase one at a time."""
    return FiniteTopology(n, reduce(adjoin_open, subbase, antidiscrete_topology(n).opens))


def test_generate_single_point():
    assert generate(2, [1]) == SIERP


def test_generate_two_overlapping_sets():
    # hand closure: {0,1} & {1,2} = {1}; {0,1} | {1,2} = full
    assert generate(3, [3, 6]) == FiniteTopology(3, (0, 2, 3, 6, 7))


def test_generate_empty_subbase():
    assert generate(3, []) == antidiscrete_topology(3)
    assert generate(0, []) == FiniteTopology(0, (0,))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_generate_is_least_catalog_member_containing_subbase(n):
    # the only direct check that adjoin_open yields the least topology
    tops = catalog(n).topologies
    for r in (0, 1, 2):
        for subbase in combinations(range(1 << n), r):
            least = min((t for t in tops if set(subbase) <= set(t.opens)),
                        key=lambda t: len(t.opens))
            assert generate(n, subbase) == least


def test_image_identity():
    for t in catalog(3).topologies[:10]:
        assert image_topology((0, 1, 2), t) == t


def test_image_swap_on_sierpinski():
    swap = (1, 0)
    assert image_topology(swap, SIERP) == SIERP_FLIP
    assert image_topology(swap, discrete_topology(2)) == discrete_topology(2)


def test_continuity_examples():
    ident = (0, 1)
    assert is_continuous(ident, SIERP, SIERP)
    assert is_continuous(ident, discrete_topology(2), antidiscrete_topology(2))
    assert not is_continuous(ident, antidiscrete_topology(2), SIERP)
    swap = (1, 0)
    assert not is_continuous(swap, SIERP, SIERP)


def test_condensation_and_homeomorphism():
    ident = (0, 1)
    assert is_continuous(ident, SIERP, SIERP)
    assert is_homeomorphism(ident, SIERP, SIERP)
    assert is_continuous(ident, discrete_topology(2), SIERP)
    assert not is_homeomorphism(ident, discrete_topology(2), SIERP)
    swap = (1, 0)
    assert is_homeomorphism(swap, SIERP, SIERP_FLIP)


def test_canonical_form_examples():
    assert canonical_form(SIERP_FLIP) == SIERP
    assert canonical_form(discrete_topology(3)) == discrete_topology(3)
    for t in catalog(3).topologies:
        assert canonical_form(canonical_form(t)) == canonical_form(t)


def test_canonical_form_separates_orbits(cat3):
    # equal canonical forms exactly on homeomorphic pairs
    tops = cat3.topologies
    rep_of = {m: rep for rep, members in cat3.orbits.items() for m in members}
    for a in tops[::3]:
        for b in tops[::4]:
            same_orbit = rep_of[a] == rep_of[b]
            assert (canonical_form(a) == canonical_form(b)) == same_orbit


@pytest.mark.parametrize("n", range(5))
def test_canonical_form_is_the_least_image_of_every_labelled_topology(n):
    for t in catalog(n).topologies:
        assert canonical_form(t) == brute_force_canonical_form(t), t


def assert_least_images_of_the_nodes(n):
    # the nodes' rows are their keys, which are seldom their least images
    for key in cover_graph(n)[0]:
        t = FiniteTopology(n, _up_opens(key))
        assert canonical_form(t) == brute_force_canonical_form(t), key


@pytest.mark.parametrize("n", range(7))
def test_canonical_form_is_the_least_image_of_every_node(monkeypatch, n):
    monkeypatch.setenv("REVTOP_MAX_N", "6")
    assert_least_images_of_the_nodes(n)


@needs_n7
def test_canonical_form_is_the_least_image_of_every_node_n7(monkeypatch):
    monkeypatch.setenv("REVTOP_MAX_N", "7")
    assert_least_images_of_the_nodes(7)


@pytest.mark.parametrize("n", range(8))
def test_canonical_form_where_every_point_is_a_twin(n):
    # each is alone in its orbit; the search places one point per level
    for t in (discrete_topology(n), antidiscrete_topology(n)):
        assert canonical_form(t) == t


@pytest.mark.parametrize("length", [1, 2, 3])
def test_canonical_form_of_two_equal_chains(length):
    # chains of two or more points are not twins, so the search keeps the
    # assignments that swapping the chains maps onto each other
    up = [sum(1 << j for j in range(i, (i // length + 1) * length)) for i in range(2 * length)]
    n = len(up)
    rng = random.Random(length)
    forms = set()
    for _ in range(8):
        t = FiniteTopology(n, _up_opens(relabelled_rows(up, rng.sample(range(n), n))))
        forms.add(canonical_form(t))
        assert forms == {brute_force_canonical_form(t)}, t


@pytest.mark.parametrize("n", range(5))
def test_orbit_opens_matches_image_topology(n):
    # the table-driven images against image_topology, permutation by permutation
    for t in catalog(n).topologies:
        images = {image_topology(f, t).opens for f in permutations(range(n))}
        assert orbit_opens(n, t.opens) == sorted(images)


def test_opens_bitset_examples():
    assert opens_bitset(antidiscrete_topology(0)) == 1
    assert opens_bitset(SIERP) == 0b1011
    assert opens_bitset(discrete_topology(2)) == 0b1111


@st.composite
def topology_and_perm(draw, n=3):
    cat = catalog(n)
    t = cat.topologies[draw(st.integers(0, len(cat.topologies) - 1))]
    img = draw(st.permutations(list(range(n))))
    return t, tuple(img)


@given(topology_and_perm())
@settings(max_examples=150, deadline=None)
def test_image_preserves_structure(data):
    t, f = data
    image = image_topology(f, t)
    validate_topology(t.n, image.opens)
    assert len(image.opens) == len(t.opens)


@given(topology_and_perm())
@settings(max_examples=150, deadline=None)
def test_homeo_implies_condensation_both_ways(data):
    t, f = data
    image = image_topology(f, t)
    assert is_homeomorphism(f, t, image)
    assert is_continuous(f, t, image)
    inverse = tuple(sorted(range(t.n), key=f.__getitem__))
    assert is_continuous(inverse, image, t)


def test_finite_reversibility_lemma_n3(cat3):
    # any continuous self-bijection of a finite space is a homeomorphism
    for t in cat3.topologies:
        for f in permutations(range(3)):
            if is_continuous(f, t, t):
                assert is_homeomorphism(f, t, t)


def test_permutation_algebra():
    f = (1, 2, 0)
    low = FiniteTopology(3, (0, 0b011, 0b111))
    high = FiniteTopology(3, (0, 0b110, 0b111))
    assert image_topology(f, low) == high           # {0, 1} maps onto {1, 2}
    assert is_continuous(f, low, high)              # {1, 2} pulls back to {0, 1}
    assert not is_continuous(f, high, high)
    with pytest.raises(TopologyError):
        image_topology((0, 0, 1), low)
    with pytest.raises(DimensionMismatchError):
        is_continuous((1, 0), low, high)


def test_json_round_trip():
    data = SIERP.to_json()
    assert data == {"n": 2, "opens": [0, 1, 3]}
    assert FiniteTopology.from_json(data) == SIERP


def test_degenerate_ground_sets():
    assert validate_topology(0, [0]) == FiniteTopology(0, (0,))
    assert validate_topology(1, [0, 1]) == discrete_topology(1)
    assert discrete_topology(0) == antidiscrete_topology(0)
