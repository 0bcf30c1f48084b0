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

import revtop.topology as topology
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
    computed_topologies,
    discrete_topology,
    full_mask,
    image_topology,
    is_continuous,
    is_homeomorphism,
    opens_bitset,
    orbit_opens,
    power_tables,
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
    # the table-driven image bitsets against image_topology, permutation by
    # permutation
    for t in catalog(n).topologies:
        images = {opens_bitset(image_topology(f, t)) for f in permutations(range(n))}
        assert orbit_opens(t.opens, power_tables(n)) == images


def constructor_verdict(n: int, family: int) -> bool:
    """Is the family bitset a topology, by the constructor's check?"""
    try:
        FiniteTopology(n, tuple(o for o in range(family.bit_length()) if family >> o & 1))
    except TopologyError:
        return False
    return True


def lane_verdicts(n: int, families) -> list[bool]:
    """The batch check's verdict on each family, all in one pass: is it a
    topology?  A lane of the check's result is zero iff its family is."""
    step = topology._lane_layout(n)[0] // 8
    data = b"".join(f.to_bytes(step, "little") for f in families)
    refused = topology._refused_lanes(n, data).to_bytes(len(data), "little")
    return [not any(refused[i:i + step]) for i in range(0, len(data), step)]


def exactness_families(n: int) -> tuple[list[int], list[int]]:
    """Topologies as bitsets, every labelled one up to 5 points and a seeded
    sample of 40 at 6, and every family made from one of them by adding or
    removing one point set, many of them not topologies."""
    if n <= 5:
        tops = [opens_bitset(t) for t in catalog(n).topologies]
    else:
        rng = random.Random(6)
        tops = [opens_bitset(generate(n, rng.sample(range(1, 63), rng.randint(1, 4))))
                for _ in range(40)]
    return tops, [b ^ 1 << o for b in tops for o in range(1 << n)]


@pytest.mark.parametrize("n", range(7))
def test_batch_check_agrees_with_the_constructor(n):
    tops, neighbours = exactness_families(n)
    families = tops + neighbours
    expected = [constructor_verdict(n, f) for f in families]
    assert all(expected[:len(tops)]) and not all(expected)
    assert lane_verdicts(n, families) == expected                  # one batch
    assert [v for start in range(0, len(families), 97)           # in chunks
            for v in lane_verdicts(n, families[start:start + 97])] == expected
    assert [lane_verdicts(n, [f]) for f in families] == [[v] for v in expected]
    valid = [f for f, v in zip(families, expected) if v]
    assert list(map(opens_bitset, computed_topologies(n, valid))) == valid


@pytest.mark.parametrize("n,bad", [(2, 2), (4, 200), (5, 1500)])
def test_batch_names_the_family_it_refuses(n, bad):
    # one family that lacks the full set among topologies, at position bad,
    # which lies in the second chunk at n = 5
    families = [opens_bitset(t) for t in catalog(n).topologies]
    families[bad] ^= 1 << full_mask(n)
    with pytest.raises(AssertionError) as err:
        computed_topologies(n, families)
    opens = [o for o in range(1 << n) if families[bad] >> o & 1]
    assert str(err.value) == (f"computed family on {n} points is not a topology: family on "
                               f"{n} points lacks the full set (member {bad} of the batch, "
                               f"opens {opens})")


def test_batch_refuses_families_beyond_the_ground_set():
    # below 8 points a lane has spare bits, and the check refuses them; at 3
    # points and more a lane is exactly 2^n bits, so packing refuses them
    with pytest.raises(AssertionError, match="point set 5 out of range for n=2"):
        computed_topologies(2, [0b1011, 0b101011])
    with pytest.raises(AssertionError, match="member 1 of the batch, does not fit in 8 bits"):
        computed_topologies(3, [0b10000001, 1 << 8 | 0b10000001])
    with pytest.raises(AssertionError, match="member 0 of the batch, does not fit"):
        computed_topologies(3, [-1, 0b10000001])


BATCH_FAULT = """
import sys
import revtop.enumeration as enumeration
from revtop.cli import main
from revtop.topology import computed_topologies

if not sys.flags.optimize:
    sys.exit(99)
try:
    computed_topologies(2, [0b1011, 0b0111, 0b1001])    # the second lacks the full set
except AssertionError as exc:
    print(exc)
up_opens, calls = enumeration._up_opens, []

def lossy(rows):
    calls.append(rows)
    opens = up_opens(rows)
    return opens[:-1] if len(calls) == 2 else opens

enumeration._up_opens = lossy
sys.exit(main(["enum", "--n", "3", "--format", "json"]))
"""


def test_batch_check_survives_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", BATCH_FAULT], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ("computed family on 2 points is not a topology: family on 2 points "
                           "lacks the full set (member 1 of the batch, opens [0, 1, 2])\n")
    assert proc.stderr.startswith("internal error: computed family on 3 points is not a "
                                  "topology: family on 3 points lacks the full set (member ")


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
