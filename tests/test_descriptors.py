from collections import namedtuple
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import z_points
from revtop.descriptors import (
    STAR,
    Z_FIRST,
    AllZ,
    BranchSet,
    ClosedLeftZ,
    CofiniteSet,
    DifferenceSet,
    EmptyZ,
    FiniteSet,
    FinSupportPerm,
    OmegaStarSet,
    OpenLeftZ,
    ShiftZ,
    UnsupportedDescriptorError,
    Word,
    branch_codes,
    code_of_bits,
    descriptor_to_json,
    image_nf_omega,
    image_z,
    nf,
    nf_complement,
    nf_difference,
    nf_enumerate,
    nf_intersection,
    nf_member,
    nf_union,
    omega_descriptor_from_json,
    shared_codes,
    word_contains,
    word_lcp,
    z_descriptor_from_json,
)
from revtop.symbolic import image_descriptor

WINDOW = range(0, 130)


class Op(namedtuple("Op", ("name", "parts"))):
    """A test-local operation tree: the union or intersection of its parts,
    or the difference of its two parts, left to right."""


SET_OPS = {"union": set.union, "intersection": set.intersection,
           "difference": set.difference}
NF_OPS = {"union": nf_union, "intersection": nf_intersection,
          "difference": nf_difference}


def eval_omega(d, window=WINDOW):
    """Independent brute-force evaluation of a descriptor or tree over a window."""
    if isinstance(d, Op):
        return reduce(SET_OPS[d.name], (eval_omega(p, window) for p in d.parts))
    if isinstance(d, FiniteSet):
        return {k for k in window if k in d.elements}
    if isinstance(d, CofiniteSet):
        return {k for k in window if k not in d.excluded}
    if isinstance(d, BranchSet):
        return {k for k in window if word_contains(d.word, k)}
    if isinstance(d, DifferenceSet):
        return eval_omega(d.left, window) - eval_omega(d.right, window)
    raise AssertionError(d)


def fold(d):
    """Normal form of a descriptor or tree, folding each operation through
    the normal-form algebra."""
    if isinstance(d, Op):
        return reduce(NF_OPS[d.name], map(fold, d.parts))
    return nf(d)


# --- eventually periodic words ---------------------------------------------

def test_word_normalization():
    assert Word("01", "1") == Word("0", "1")
    assert Word("", "0101") == Word("", "01")
    assert Word("0", "10") == Word("", "01")
    assert Word("", "0") != Word("", "1")


def test_word_bits():
    w = Word("0", "10")
    assert w.bits(6) == "010101"
    assert [w.bits(i) for i in range(3)] == ["", "0", "01"]


def test_word_rejects_bad_alphabet():
    with pytest.raises(UnsupportedDescriptorError):
        Word("2", "1")
    with pytest.raises(UnsupportedDescriptorError):
        Word("0", "")


def test_word_lcp():
    assert word_lcp(Word("", "0"), Word("", "1")) == 0
    assert word_lcp(Word("", "01"), Word("0", "1")) == 2
    assert word_lcp(Word("", "01"), Word("", "01")) is None
    assert word_lcp(Word("", "001"), Word("", "01")) == 1


@given(st.text(alphabet="01", max_size=4), st.text(alphabet="01", min_size=1, max_size=3),
       st.text(alphabet="01", max_size=4), st.text(alphabet="01", min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_word_equality_matches_denotation(p1, q1, p2, q2):
    w, v = Word(p1, q1), Word(p2, q2)
    same_denotation = w.bits(16) == v.bits(16)
    assert (w == v) == same_denotation


def test_branch_codes_and_membership():
    zero = Word("", "0")
    first = []
    for code in branch_codes(zero):
        first.append(code)
        if len(first) == 10:
            break
    assert first == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert code_of_bits("01") == 5
    assert word_contains(Word("", "01"), 5)
    assert nf_member(nf(BranchSet(Word("", "01"))), 5)
    assert not word_contains(Word("", "01"), 4)
    assert not word_contains(Word("", "01"), 1)


def test_shared_codes_match_enumeration():
    w, v = Word("", "01"), Word("0", "1")
    shared = set(shared_codes(w, v))
    big = eval_omega(BranchSet(w), range(4100)) & eval_omega(BranchSet(v), range(4100))
    assert shared == big == {2, 5}


# --- normal-form algebra ----------------------------------------------------

def small_words():
    return st.builds(Word,
                     st.text(alphabet="01", max_size=2),
                     st.text(alphabet="01", min_size=1, max_size=2))


def leaf_descriptors():
    finite = st.builds(lambda xs: FiniteSet(tuple(xs)),
                       st.lists(st.integers(0, 40), max_size=4))
    cofinite = st.builds(lambda xs: CofiniteSet(tuple(xs)),
                         st.lists(st.integers(0, 40), max_size=4))
    branch = st.builds(BranchSet, small_words())
    plain = st.one_of(finite, cofinite, branch)
    # a DifferenceSet leaf, which nf normalizes by itself
    return st.one_of(plain, st.builds(DifferenceSet, plain, plain))


def descriptors():
    """Operation trees over descriptor leaves; fold gives their normal forms."""
    return st.recursive(
        leaf_descriptors(),
        lambda children: st.one_of(
            st.builds(Op, st.sampled_from(("union", "intersection")),
                      st.lists(children, min_size=1, max_size=3).map(tuple)),
            st.builds(lambda a, b: Op("difference", (a, b)), children, children),
        ),
        max_leaves=6)


@given(descriptors())
@settings(max_examples=300, deadline=None)
def test_normal_form_membership_homomorphism(d):
    x = fold(d)
    expected = eval_omega(d)
    got = {k for k in WINDOW if nf_member(x, k)}
    assert got == expected
    assert nf(x) == x  # a normal form is its own descriptor


@given(descriptors(), descriptors())
@settings(max_examples=150, deadline=None)
def test_de_morgan_on_normal_forms(a, b):
    x, y = fold(a), fold(b)
    union, inter = nf_union(x, y), nf_intersection(x, y)
    assert nf_complement(union) == nf_intersection(nf_complement(x), nf_complement(y))
    assert nf_complement(inter) == nf_union(nf_complement(x), nf_complement(y))
    assert nf_complement(nf_complement(inter)) == inter


@given(descriptors(), descriptors(), descriptors())
@settings(max_examples=150, deadline=None)
def test_normal_form_is_canonical(a, b, c):
    # one set gets one normal form, whichever expression builds it
    x, y, z = fold(a), fold(b), fold(c)
    assert nf_union(x, y) == nf_union(y, x)
    assert nf_intersection(x, y) == nf_intersection(y, x)
    assert nf_intersection(nf_union(x, y), z) == nf_union(
        nf_intersection(x, z), nf_intersection(y, z))
    assert nf_difference(x, y) == nf_intersection(x, nf_complement(y))
    assert nf_union(x, nf_intersection(x, y)) == x
    assert nf_intersection(x, nf_union(x, y)) == x


def test_normal_form_canonical_identities():
    b = nf(BranchSet(Word("", "01")))
    assert nf_union(b, nf(DifferenceSet(CofiniteSet(()), b))) == nf(CofiniteSet(()))
    assert nf(DifferenceSet(b, b)) == nf(FiniteSet(()))
    assert nf_intersection(b, b) == b
    two_words = nf_union(nf(BranchSet(Word("", "0"))), nf(BranchSet(Word("", "1"))))
    # "01" shares only the code of "0" with the zero branch and nothing with
    # the ones branch, so the overlap collapses to a finite set
    crossing = nf_intersection(two_words, b)
    assert crossing.kind == "finite" and crossing.plus == {2}
    assert nf_intersection(two_words, nf(BranchSet(Word("", "0")))).kind == "branches"


@given(descriptors())
@settings(max_examples=100, deadline=None)
def test_enumeration_is_sorted_and_correct(d):
    x = fold(d)
    listed = nf_enumerate(x, 12)
    assert list(listed) == sorted(listed)
    expected = sorted(eval_omega(d, range(0, 2100)))[:len(listed)]
    # compare only within the safely enumerated window
    trimmed = [e for e in listed if e < 2100]
    assert list(trimmed) == expected[:len(trimmed)]


def test_cardinality_classification():
    assert nf(FiniteSet((1, 2))).is_finite()
    assert nf(CofiniteSet((3,))).is_cofinite()
    assert nf(BranchSet(Word("", "0"))).kind == "branches"
    assert nf(DifferenceSet(CofiniteSet(()), BranchSet(Word("", "0")))).kind == "co_branches"


# --- z-line shapes ----------------------------------------------------------

Z_WINDOW = list(range(-25, 26)) + [Z_FIRST]


def z_shapes():
    bounds = st.integers(-8, 8)
    return st.one_of(
        st.just(EmptyZ()),
        st.just(AllZ()),
        st.builds(ClosedLeftZ, bounds),
        st.builds(OpenLeftZ, bounds),
    )


@given(z_shapes(), st.integers(-10, 10))
@settings(max_examples=200, deadline=None)
def test_shift_image_of_each_shape_is_pointwise(d, k):
    # the source window covers the preimage of Z_WINDOW under every shift used
    f = ShiftZ(k)
    source = list(range(-40, 41)) + [Z_FIRST]
    moved = {f.apply(p) for p in z_points(d, source)}
    assert z_points(image_z(f, d), Z_WINDOW) == moved & set(Z_WINDOW)


@given(z_shapes(), z_shapes())
@settings(max_examples=200, deadline=None)
def test_z_shapes_are_distinct_sets(a, b):
    # comparing shapes compares the sets they denote
    assert (a == b) == (z_points(a, Z_WINDOW) == z_points(b, Z_WINDOW))


# --- symbolic maps ----------------------------------------------------------

def test_fin_support_perm_validation():
    f = FinSupportPerm(((0, 1), (1, 0), (5, 5)))
    assert f.support == (0, 1)
    assert f.apply(0) == 1 and f.apply(7) == 7 and f.apply(STAR) is STAR
    with pytest.raises(UnsupportedDescriptorError):
        FinSupportPerm(((0, 1), (1, 2)))


def test_shift_algebra():
    s = ShiftZ(3)
    assert s.apply(4) == 7 and s.apply(Z_FIRST) is Z_FIRST
    with pytest.raises(UnsupportedDescriptorError):
        s.apply(STAR)


@given(descriptors(), st.permutations(list(range(6))))
@settings(max_examples=150, deadline=None)
def test_image_under_finite_support_permutation(d, img)  :
    f = FinSupportPerm(tuple((i, img[i]) for i in range(6)))
    x = image_nf_omega(f, fold(d))
    expected = {f.apply(k) for k in eval_omega(d)}
    window_expected = {k for k in WINDOW if k in expected}
    got = {k for k in WINDOW if nf_member(x, k)}
    assert got == window_expected


def test_json_round_trips():
    samples = [FiniteSet((1, 2)), CofiniteSet((0,)), BranchSet(Word("0", "1")),
               DifferenceSet(CofiniteSet(()), BranchSet(Word("", "0"))),
               DifferenceSet(DifferenceSet(CofiniteSet((1,)), BranchSet(Word("", "01"))),
                             FiniteSet((4,)))]
    for d in samples:
        assert omega_descriptor_from_json(descriptor_to_json(d)) == d
    z_samples = [EmptyZ(), AllZ(), ClosedLeftZ(5), OpenLeftZ(-1)]
    for d in z_samples:
        assert z_descriptor_from_json(descriptor_to_json(d)) == d
    assert descriptor_to_json(BranchSet(Word("01", "1"))) == {
        "tag": "branch", "word": {"prefix": "0", "period": "1"}}


def test_normal_form_json_round_trip():
    """A computed image writes out and reads back as the same normal form."""
    x = image_descriptor(FinSupportPerm.swap(0, 1), CofiniteSet((0,)))
    data = descriptor_to_json(x)
    assert data == {"tag": "normal", "complemented": True, "words": [], "plus": [1], "minus": []}
    assert omega_descriptor_from_json(data) == x
    star = descriptor_to_json(OmegaStarSet(x, star=True))
    assert omega_descriptor_from_json(star) == OmegaStarSet(x, star=True)


@given(descriptors())
@settings(max_examples=300, deadline=None)
def test_normal_forms_round_trip_through_json(d):
    x = fold(d)
    assert omega_descriptor_from_json(descriptor_to_json(x)) == x


@pytest.mark.parametrize("words,plus,minus", [
    ([{"prefix": "", "period": "1"}, {"prefix": "", "period": "0"}], [], []),  # unsorted
    ([{"prefix": "", "period": "0"}, {"prefix": "", "period": "0"}], [], []),  # repeated
    ([{"prefix": "", "period": "0"}], [4], []),   # 4 = code of "00", inside the branch
    ([{"prefix": "", "period": "0"}], [], [5]),   # 5 = code of "01", outside it
    ([], [], [3]),                                # no words, so nothing to remove from
])
def test_normal_form_reader_refuses_other_forms(words, plus, minus):
    data = {"tag": "normal", "complemented": False, "words": words, "plus": plus, "minus": minus}
    with pytest.raises(UnsupportedDescriptorError):
        omega_descriptor_from_json(data)


def test_withstar_round_trips():
    samples = [OmegaStarSet(CofiniteSet((0, 4)), star=True),
               OmegaStarSet(BranchSet(Word("", "01")), star=False),
               OmegaStarSet(DifferenceSet(BranchSet(Word("", "0")), FiniteSet((2,))), star=True)]
    for d in samples:
        data = descriptor_to_json(d)
        assert data["tag"] == "withstar"
        assert omega_descriptor_from_json(data) == d


def test_withstar_only_at_the_top_level():
    inner = descriptor_to_json(OmegaStarSet(FiniteSet((1,)), star=True))
    for data in ({"tag": "difference", "left": inner, "right": {"tag": "finite", "elements": []}},
                 {"tag": "difference", "left": {"tag": "cofinite", "excluded": []},
                  "right": inner},
                 {"tag": "withstar", "omega": inner, "star": False}):
        with pytest.raises(UnsupportedDescriptorError):
            omega_descriptor_from_json(data)


@pytest.mark.parametrize("data", [
    {"tag": "union", "parts": [{"tag": "finite", "elements": [1]}]},
    {"tag": "intersection", "parts": [{"tag": "cofinite", "excluded": []},
                                      {"tag": "branch", "word": {"prefix": "", "period": "0"}}]},
], ids=["union", "intersection"])
def test_omega_reader_has_no_union_or_intersection_tag(data):
    # only difference nests: unions and intersections are built on normal forms
    with pytest.raises(UnsupportedDescriptorError):
        omega_descriptor_from_json(data)


@pytest.mark.parametrize("data", [
    {"tag": "zfinite", "first": True, "ints": [0, 2]},
    {"tag": "union", "parts": [{"tag": "closedleft", "a": 1}, {"tag": "openleft", "b": 3}]},
])
def test_z_reader_accepts_only_the_four_shapes(data):
    with pytest.raises(UnsupportedDescriptorError):
        z_descriptor_from_json(data)
