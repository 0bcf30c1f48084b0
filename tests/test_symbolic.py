import copy
import itertools
import pickle
import random
from functools import reduce

import pytest

from conftest import z_points
from revtop import symbolic
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
    OMEGA_SET,
    OmegaStarSet,
    OpenLeftZ,
    ShiftZ,
    UnsupportedDescriptorError,
    Word,
    nf,
    nf_difference,
    nf_enumerate,
    nf_intersection,
    nf_member,
    nf_union,
    word_contains,
)
from revtop.symbolic import (
    ADFamily,
    AntidiscreteOmega,
    ConstantTail,
    ConvSeq,
    CoSmall,
    DiscreteOmega,
    EnumerationTail,
    EventualSequence,
    NoBetaAvailableError,
    OrderedZ,
    ad_family,
    blocking_nbhd,
    construct_o_star,
    converges,
    image_descriptor,
    image_topology_symbolic,
    increasing_chain,
    member_open,
    nonreversibility_witness,
    star_in_closure_check,
    unique_limits_check,
)


# --- open-set membership ----------------------------------------------------

def test_ordered_z_schema_membership():
    t = OrderedZ(0)
    assert member_open(ClosedLeftZ(5), t)
    assert member_open(ClosedLeftZ(-100), t)
    assert not member_open(OpenLeftZ(1), t)
    assert member_open(OpenLeftZ(0), t)
    assert member_open(OpenLeftZ(-7), t)
    assert member_open(EmptyZ(), t)
    assert member_open(AllZ(), t)


@pytest.mark.parametrize("c", [-4, 0, 3])
def test_ordered_z_membership_matches_the_definition(c):
    """A shape is open iff its points on a window are those of one of the
    listed opens: the empty set, the line, every [z, a) and (z, b) for b <= c."""
    window = list(range(-20, 21)) + [Z_FIRST]
    bounds = range(-15, 16)
    opens = ([EmptyZ(), AllZ()] + [ClosedLeftZ(a) for a in bounds]
             + [OpenLeftZ(b) for b in bounds if b <= c])
    open_points = {z_points(o, window) for o in opens}
    shapes = ([EmptyZ(), AllZ()] + [ClosedLeftZ(a) for a in range(-10, 11)]
              + [OpenLeftZ(b) for b in range(-10, 11)])
    for d in shapes:
        assert member_open(d, OrderedZ(c)) == (z_points(d, window) in open_points), d


def test_cosmall_membership():
    t = CoSmall()
    assert member_open(CofiniteSet((3,)), t)
    assert member_open(CofiniteSet(()), t)
    assert member_open(FiniteSet(()), t)
    assert not member_open(FiniteSet((3,)), t)
    assert not member_open(BranchSet(Word("", "0")), t)


def test_discrete_and_antidiscrete_membership():
    assert member_open(BranchSet(Word("", "0")), DiscreteOmega())
    assert member_open(FiniteSet((1, 2)), DiscreteOmega())
    assert member_open(FiniteSet(()), AntidiscreteOmega())
    assert member_open(CofiniteSet(()), AntidiscreteOmega())
    assert not member_open(FiniteSet((0,)), AntidiscreteOmega())


def test_convseq_membership():
    t = ConvSeq()
    assert member_open(OmegaStarSet(FiniteSet((3, 5)), star=False), t)
    assert member_open(OmegaStarSet(BranchSet(Word("", "0")), star=False), t)
    assert member_open(OmegaStarSet(CofiniteSet((0, 4)), star=True), t)
    assert not member_open(OmegaStarSet(FiniteSet((3,)), star=True), t)
    assert not member_open(OmegaStarSet(BranchSet(Word("", "0")), star=True), t)
    # bare descriptors count as star-free subsets
    assert member_open(FiniteSet((1,)), t)


def test_member_open_ground_mismatch():
    with pytest.raises(UnsupportedDescriptorError):
        member_open(ClosedLeftZ(0), CoSmall())
    with pytest.raises(UnsupportedDescriptorError):
        member_open(FiniteSet((1,)), OrderedZ(0))


# --- images -----------------------------------------------------------------

def test_image_descriptor_shift():
    assert image_descriptor(ShiftZ(1), ClosedLeftZ(5)) == ClosedLeftZ(6)
    assert image_descriptor(ShiftZ(-2), OpenLeftZ(0)) == OpenLeftZ(-2)
    assert image_descriptor(ShiftZ(4), EmptyZ()) == EmptyZ()
    assert image_descriptor(ShiftZ(4), AllZ()) == AllZ()


def test_image_descriptor_fin_support():
    swap = FinSupportPerm.swap(0, 1)
    assert image_descriptor(swap, CofiniteSet((0,))) == nf(CofiniteSet((1,)))
    assert image_descriptor(swap, FiniteSet((0, 5))) == nf(FiniteSet((1, 5)))
    moved = image_descriptor(swap, BranchSet(Word("", "1")))
    want = {swap.apply(k) for k in range(64) if word_contains(Word("", "1"), k)}
    assert {k for k in range(64) if nf_member(moved, k)} == want


def test_image_topology_shift_on_ordered_z():
    schema = image_topology_symbolic(ShiftZ(1), OrderedZ(0))
    assert schema.topology == OrderedZ(1)
    assert schema.verify()
    double = image_topology_symbolic(ShiftZ(3), OrderedZ(0))
    assert double.topology == OrderedZ(3)
    assert double.verify()


def test_map_on_the_wrong_ground_raises():
    with pytest.raises(UnsupportedDescriptorError):
        image_descriptor(FinSupportPerm.swap(0, 1), ClosedLeftZ(0))
    with pytest.raises(UnsupportedDescriptorError):
        image_descriptor(ShiftZ(1), CofiniteSet(()))
    with pytest.raises(UnsupportedDescriptorError):
        image_descriptor(ShiftZ(1), OmegaStarSet(CofiniteSet(()), star=True))
    with pytest.raises(UnsupportedDescriptorError):
        image_topology_symbolic(FinSupportPerm.swap(0, 1), OrderedZ(0))


def test_image_topology_fin_support_on_cosmall():
    schema = image_topology_symbolic(FinSupportPerm.swap(2, 9), CoSmall())
    assert schema.topology == CoSmall()
    assert schema.verify()


# --- non-reversibility witnesses --------------------------------------------

def test_witness_for_base_cutoff():
    w = nonreversibility_witness(OrderedZ(0))
    assert w.map == ShiftZ(1)
    assert w.image == OrderedZ(1)
    assert w.separator == OpenLeftZ(1)
    assert w.verify()
    assert member_open(w.separator, w.image)
    assert not member_open(w.separator, w.source)


@pytest.mark.parametrize("c", [-3, 0, 7, 100])
def test_witness_translation_symmetry(c):
    w = nonreversibility_witness(OrderedZ(c))
    assert w.image == OrderedZ(c + 1)
    assert w.separator == OpenLeftZ(c + 1)
    assert w.verify()


@pytest.mark.parametrize("c", [-3, 0, 7])
def test_witness_with_a_wrong_image_or_map_fails(c):
    w = nonreversibility_witness(OrderedZ(c))
    assert w.verify()
    assert not w._replace(image=OrderedZ(c + 2)).verify()
    # a consistent downward shift: its image is coarser, not finer
    assert not w._replace(map=ShiftZ(-1), image=OrderedZ(c - 1)).verify()


def test_increasing_chain_of_homeomorphic_copies():
    chain = increasing_chain(OrderedZ(0), 10)
    assert [w.image.c for w in chain] == list(range(1, 11))
    assert all(w.verify() for w in chain)
    # strictness at every level: the separator is new at that level
    for w in chain:
        assert member_open(w.separator, w.image)
        assert not member_open(w.separator, w.source)
    # all levels are pairwise homeomorphic via shifts
    for i in range(0, 10, 3):
        for j in range(i + 1, 10, 2):
            hop = image_topology_symbolic(ShiftZ(j - i), OrderedZ(i))
            assert hop.topology == OrderedZ(j) and hop.verify()


# --- strong reversibility of the cofinite topology --------------------------

def test_preserves_topology_examples():
    schema = image_topology_symbolic(FinSupportPerm(()), CoSmall())
    assert schema.topology == CoSmall() and schema.verify()
    schema = image_topology_symbolic(FinSupportPerm.swap(0, 1), CoSmall())
    assert schema.topology == CoSmall() and schema.verify()
    assert (CofiniteSet((0,)), CofiniteSet((1,))) in schema.obligations


def random_fin_support_perm(rng, points, size_bound):
    support = rng.sample(range(points), rng.randrange(0, size_bound))
    images = support[:]
    rng.shuffle(images)
    return FinSupportPerm(tuple(zip(support, images)))


def test_preserves_topology_seeded_sample():
    rng = random.Random(20250810)
    for _ in range(50):
        perm = random_fin_support_perm(rng, 30, 7)
        schema = image_topology_symbolic(perm, CoSmall())
        assert schema.topology == CoSmall() and schema.verify()


def test_preserves_topology_rejects_shift():
    with pytest.raises(UnsupportedDescriptorError):
        image_topology_symbolic(ShiftZ(1), CoSmall())


@pytest.mark.parametrize("space", [DiscreteOmega(), AntidiscreteOmega(), CoSmall(), ConvSeq()])
def test_image_obligations_are_pointwise_images(space):
    """Each expected image is the probe set with its points moved one by one,
    checked on a window of naturals past the support."""
    rng = random.Random(7)
    for _ in range(200):
        perm = random_fin_support_perm(rng, 30, 9)
        schema = image_topology_symbolic(perm, space)
        assert schema.topology == space and schema.verify()
        for before, after in schema.obligations:
            if isinstance(space, ConvSeq):
                assert after.star == before.star
                before, after = before.omega, after.omega
            inside = {k for k in range(40) if nf_member(nf(before), k)}
            assert {k for k in range(40) if nf_member(nf(after), k)} == {
                perm.apply(k) for k in inside}


@pytest.mark.parametrize("space", [CoSmall(), ConvSeq()])
def test_image_certificate_rejects_a_rule_that_moves_nothing(space, monkeypatch):
    """The probes include sets the permutation moves, so an image rule that
    returns its argument unchanged fails verify()."""
    perm = FinSupportPerm(((1, 2), (2, 3), (3, 1), (5, 6), (6, 5)))
    assert image_topology_symbolic(perm, space).verify()
    monkeypatch.setattr(symbolic, "image_descriptor", lambda f, d: d)
    assert not image_topology_symbolic(perm, space).verify()


# --- almost-disjoint families -----------------------------------------------

def test_ad_family_words_and_sizes():
    fam = ad_family(4)
    assert fam.words == (Word("", "1"), Word("", "01"), Word("", "001"), Word("", "0001"))
    for i in range(4):
        for j in range(i + 1, 4):
            assert fam.intersection_size(i, j) == min(i, j)


def test_ad_family_rejects_duplicates():
    with pytest.raises(UnsupportedDescriptorError):
        ADFamily((BranchSet(Word("", "1")), BranchSet(Word("1", "11"))))


def test_disjoint_branches():
    zeros, ones = BranchSet(Word("", "0")), BranchSet(Word("", "1"))
    overlap = nf_intersection(nf(zeros), nf(ones))
    assert overlap.is_finite() and not overlap.plus


def test_intersection_matches_enumeration_oracle():
    # enumeration oracle: intersect explicit prefixes of both branch sets
    a, b = BranchSet(Word("", "01")), BranchSet(Word("0", "1"))
    big_a = {k for k in range(5000) if word_contains(a.word, k)}
    big_b = {k for k in range(5000) if word_contains(b.word, k)}
    assert big_a & big_b == {2, 5}
    overlap = nf_intersection(nf(a), nf(b))
    assert overlap.is_finite() and overlap.plus == {2, 5}


def test_branch_elements_strictly_increasing_and_unbounded():
    fam = ad_family(3)
    for member in fam.members:
        els = nf_enumerate(nf(member), 10)
        assert len(els) == 10
        assert all(x < y for x, y in zip(els, els[1:]))
    assert nf_enumerate(nf(BranchSet(Word("", "0"))), 10) == (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


# --- the refined sequence space ---------------------------------------------

def test_o_star_refines_base():
    fam = ad_family(2)
    refined = construct_o_star(fam)
    # every base open stays open (the empty blocked-set case)
    assert member_open(OmegaStarSet(FiniteSet((0, 3)), star=False), refined)
    assert member_open(OmegaStarSet(CofiniteSet((5,)), star=True), refined)
    # the complement of a family member becomes a neighborhood of the limit
    blocked = OmegaStarSet(DifferenceSet(CofiniteSet(()), fam.members[0]), star=True)
    assert member_open(blocked, refined)
    assert not member_open(blocked, ConvSeq())
    # but a foreign branch complement does not
    foreign = OmegaStarSet(DifferenceSet(CofiniteSet(()), BranchSet(Word("", "0"))), star=True)
    assert not member_open(foreign, refined)


def test_star_in_closure_witnesses():
    fam = ad_family(3)
    whole = OmegaStarSet(CofiniteSet(()), star=True)
    w = star_in_closure_check(fam, (0,), whole)
    assert w.beta == 1 and w.element == 2 and w.verify()
    w = star_in_closure_check(fam, (), OmegaStarSet(CofiniteSet(tuple(range(10))), star=True))
    assert w.beta == 0 and w.element == 15 and w.verify()
    with pytest.raises(NoBetaAvailableError):
        star_in_closure_check(fam, (0, 1, 2), whole)
    with pytest.raises(UnsupportedDescriptorError):
        star_in_closure_check(fam, (), OmegaStarSet(FiniteSet((1,)), star=True))


def test_star_in_closure_validates_blocked_indices():
    fam = ad_family(3)
    whole = OmegaStarSet(CofiniteSet(()), star=True)
    for bad in (-1, len(fam)):
        with pytest.raises(ValueError, match="out of range"):
            star_in_closure_check(fam, (0, bad), whole)
    w = star_in_closure_check(fam, (1, 0, 1, 0), whole)
    assert w.blocked == (0, 1) and w.beta == 2 and w.verify()


def least_survivor(fam, blocked, nbhd):
    """The normal-form route: the first unblocked member, minus every blocked
    member, within the neighborhood, and its least element."""
    beta = min(set(range(len(fam))) - set(blocked))
    survivors = nf(fam.members[beta])
    for idx in blocked:
        survivors = nf_difference(survivors, nf(fam.members[idx]))
    survivors = nf_intersection(survivors, nf(nbhd.omega))
    return beta, nf_enumerate(survivors, 1)[0]


@pytest.mark.parametrize("size", [1, 2, 5, 64])
def test_closure_witness_is_the_least_survivor(size):
    """The search reads the words; the oracle composes the normal forms.
    Some neighborhoods exclude the first codes past the blocked depth, so
    the search must step over excluded points."""
    fam = ad_family(size)
    rng = random.Random(20261019 + size)
    stepped = 0
    for _ in range(300):
        blocked = tuple(rng.sample(range(size), rng.randrange(min(size, 6))))
        excluded = set(rng.sample(range(600), rng.randrange(31)))
        if rng.random() < 0.5:
            first = least_survivor(fam, blocked, OmegaStarSet(OMEGA_SET, star=True))[1]
            excluded.add(first)
            stepped += 1
        nbhd = OmegaStarSet(CofiniteSet(tuple(excluded)), star=True)
        w = star_in_closure_check(fam, blocked, nbhd)
        assert (w.beta, w.element) == least_survivor(fam, blocked, nbhd), (blocked, excluded)
        assert w.verify()
    assert stepped > 0


def test_closure_search_composes_no_normal_forms(monkeypatch):
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    for fn in (nf_difference, nf_intersection, nf_enumerate):
        monkeypatch.setattr(symbolic, fn.__name__, counted(fn), raising=False)
    fam = ad_family(64)
    nbhd = OmegaStarSet(CofiniteSet(tuple(range(40))), star=True)
    w = star_in_closure_check(fam, (0, 1, 2, 3, 4), nbhd)
    assert w.beta == 5 and w.verify()
    assert calls == []


def test_closure_search_that_runs_out_is_a_program_fault(monkeypatch):
    """Each excluded point costs at most one length, so the walk is bounded;
    a walk that still finds nothing raises instead of looping."""
    monkeypatch.setattr(symbolic, "code_of_bits", lambda bits: 0)
    with pytest.raises(AssertionError):
        star_in_closure_check(ad_family(2), (), OmegaStarSet(CofiniteSet((0,)), star=True))


def test_forged_closure_witnesses_are_rejected():
    fam = ad_family(4)
    # beta's word 001... shares "0" (code 2) with the blocked 01...; the
    # neighborhood drops "00" (code 4), so the witness is "001" (code 9)
    w = star_in_closure_check(fam, (0, 1), OmegaStarSet(CofiniteSet((4,)), star=True))
    assert (w.beta, w.element) == (2, 9) and w.verify()
    # beta is blocked
    assert not w._replace(blocked=(1, 2)).verify()
    # the element is a code shared with a blocked word
    assert not w._replace(element=2).verify()
    # the element is excluded by the neighborhood
    assert not w._replace(element=4).verify()
    # the element is off beta's branch: 6 is the code of "10", on no member
    assert not w._replace(element=6).verify()


def test_blocking_certificates():
    fam = ad_family(4)
    cert = blocking_nbhd(fam.members[1], fam)
    assert cert is not None and cert.index == 1 and cert.verify()
    assert len(cert.intersection_prefix) == 5
    modified = DifferenceSet(fam.members[1], FiniteSet(nf_enumerate(nf(fam.members[1]), 3)))
    cert = blocking_nbhd(modified, fam)
    assert cert is not None and cert.index == 1 and cert.verify()
    assert blocking_nbhd(BranchSet(Word("", "011")), fam) is None
    with pytest.raises(ValueError):
        blocking_nbhd(FiniteSet((1, 2)), fam)


def test_convergence_in_model_spaces():
    ascending = EventualSequence((), EnumerationTail(CofiniteSet(())))
    assert converges(ascending, STAR, ConvSeq())
    assert not converges(ascending, 5, ConvSeq())
    constant = EventualSequence((9, 9), ConstantTail(3))
    assert converges(constant, 3, ConvSeq())
    assert not converges(constant, STAR, ConvSeq())
    assert converges(EventualSequence((), ConstantTail(STAR)), STAR, ConvSeq())


def test_convergence_flip_between_base_and_refined():
    fam = ad_family(3)
    refined = construct_o_star(fam)
    for member in fam.members:
        seq = EventualSequence((), EnumerationTail(member))
        assert converges(seq, STAR, ConvSeq())
        assert not converges(seq, STAR, refined)
    outsider = EventualSequence((), EnumerationTail(BranchSet(Word("", "011"))))
    assert converges(outsider, STAR, ConvSeq())
    assert converges(outsider, STAR, refined)


def test_refined_convergence_reads_the_words(monkeypatch):
    """Convergence in the refined space is decided without the blocking
    search, so the two stay independent routes."""
    def no_search(*args):
        raise AssertionError("converges must not run the blocking search")

    monkeypatch.setattr(symbolic, "blocking_nbhd", no_search)
    fam = ad_family(3)
    refined = construct_o_star(fam)
    for member in fam.members:
        assert not converges(EventualSequence((), EnumerationTail(member)), STAR, refined)
    outsider = EventualSequence((), EnumerationTail(BranchSet(Word("", "011"))))
    assert converges(outsider, STAR, refined)


OUTSIDERS = tuple(BranchSet(w) for w in (
    Word("", "011"), Word("", "0"), Word("1", "0"), Word("", "0" * 9 + "1")))


def random_infinite_tail(rng, fam):
    """A union of family members, outside branches and maybe a finite set,
    taken as is, with a few elements removed, or complemented."""
    take = rng.choice((0.0, 0.3, 1.0))
    parts = [m for m in fam.members if rng.random() < take]
    parts += rng.sample(OUTSIDERS, rng.randrange(0 if parts else 1, 3))
    if rng.random() < 0.5:
        parts.append(FiniteSet(tuple(rng.sample(range(64), 3))))
    d = reduce(nf_union, map(nf, parts))
    shape = rng.randrange(3)
    if shape == 1:
        d = DifferenceSet(d, FiniteSet(nf_enumerate(nf(d), rng.randrange(1, 4))))
    elif shape == 2:
        d = DifferenceSet(OMEGA_SET, d)
    return d


def test_refined_convergence_agrees_with_the_blocking_search():
    """Both routes that read the words agree with the full normal form of
    each overlap: the first member meeting the tail infinitely often."""
    fam = ad_family(8)
    assert not set(fam.members) & set(OUTSIDERS)
    refined = construct_o_star(fam)
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(240):
        d = random_infinite_tail(rng, fam)
        x = nf(d)
        first = next((i for i, m in enumerate(fam.members)
                      if not nf_intersection(x, nf(m)).is_finite()), None)
        verdict = converges(EventualSequence((), EnumerationTail(d)), STAR, refined)
        assert verdict == (first is None), d
        cert = blocking_nbhd(d, fam)
        if first is None:
            assert cert is None, d
        else:
            assert cert is not None and cert.index == first and cert.verify(), d
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_blocking_search_builds_only_the_certificate_overlap(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return nf_intersection(x, y)

    monkeypatch.setattr(symbolic, "nf_intersection", counted)
    fam = ad_family(64)
    cert = blocking_nbhd(fam.members[63], fam)
    assert cert is not None and cert.index == 63
    assert len(calls) == 1
    calls.clear()
    assert blocking_nbhd(BranchSet(Word("", "011")), fam) is None
    assert calls == []


def test_forged_blocking_certificates_are_rejected():
    fam = ad_family(4)
    member = fam.members[1]
    # the member without 2, together with 3, which lies outside the member
    candidate = nf_union(nf(DifferenceSet(member, FiniteSet((2,)))), nf(FiniteSet((3,))))
    assert nf_member(nf(member), 2) and not nf_member(nf(member), 3)
    cert = blocking_nbhd(candidate, fam)
    assert cert is not None and cert.index == 1 and cert.verify()
    # an index and word whose overlap with the candidate is finite
    for i in (0, 2, 3):
        assert not cert._replace(index=i, word=fam.members[i].word).verify()
    # a prefix element outside the candidate, or outside the member
    prefix = cert.intersection_prefix
    assert not cert._replace(intersection_prefix=(2,) + prefix[1:]).verify()
    assert not cert._replace(intersection_prefix=prefix[:4] + (3,)).verify()


def test_unique_limits():
    assert unique_limits_check(ConvSeq())
    assert unique_limits_check(construct_o_star(ad_family(3)))
    assert unique_limits_check(DiscreteOmega())
    assert not unique_limits_check(CoSmall())
    assert not unique_limits_check(AntidiscreteOmega())


def test_eventual_sequence_values():
    # the prefix, then the tail's descriptor in increasing order
    seq = EventualSequence((7, 4), EnumerationTail(BranchSet(Word("", "0"))))
    assert seq.prefix + nf_enumerate(nf(seq.tail.descriptor), 4) == (7, 4, 2, 4, 8, 16)


# --- the values themselves --------------------------------------------------

# Routes that build a value without calling its class directly.  Each starts
# from a value made with tuple.__new__, which skips the constructor, and must
# come back canonical or be refused.
ROUTES = {
    "_make": lambda raw: type(raw)._make(raw),
    "_replace": lambda raw: raw._replace(**raw._asdict()),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda raw: pickle.loads(pickle.dumps(raw)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_countable_construction_route_validates(route):
    build = ROUTES[route]
    word = build(tuple.__new__(Word, ("01", "1")))
    assert type(word) is Word and tuple(word) == ("0", "1")
    finite = build(tuple.__new__(FiniteSet, ((2, 1, 2),)))
    assert type(finite) is FiniteSet and finite.elements == (1, 2)
    with pytest.raises(UnsupportedDescriptorError):
        build(tuple.__new__(FinSupportPerm, (((0, 1), (1, 2)),)))
    repeated = (BranchSet(Word("", "1")), BranchSet(Word("1", "1")))  # one word twice
    with pytest.raises(UnsupportedDescriptorError):
        build(tuple.__new__(ADFamily, (repeated,)))


def test_countable_values_compare_by_type():
    omega_grounds = (DiscreteOmega(), AntidiscreteOmega(), CoSmall())
    pairs = [(FiniteSet((1, 2)), CofiniteSet((1, 2))), (EmptyZ(), AllZ()),
             (ClosedLeftZ(3), OpenLeftZ(3)), *itertools.combinations(omega_grounds, 2)]
    for a, b in pairs:
        # equal fields and hashes: only the type tells the two apart
        assert tuple(a) == tuple(b) and hash(a) == hash(b)
        assert not a == b and not b == a
        assert a != b and b != a
    finite, cofinite = FiniteSet((1, 2)), CofiniteSet((1, 2))
    for first, second in ((finite, cofinite), (cofinite, finite)):
        nf.cache_clear()
        nf(first)
        assert nf(second) != nf(first)
        assert nf(finite).is_finite() and nf(cofinite).is_cofinite()
    family = ad_family(3)
    for x in (Word("0", "1"), finite, nf(cofinite), OmegaStarSet(finite, star=True),
              CoSmall(), OrderedZ(3), family, construct_o_star(family)):
        assert hash(x) == hash(tuple(x))
    assert repr(finite) == "FiniteSet(elements=(1, 2))"
    assert repr(CoSmall()) == "CoSmall()"
    assert repr(OrderedZ()) == "OrderedZ(c=0)"
    assert repr(OmegaStarSet(CofiniteSet((4,)), star=True)) == \
        "OmegaStarSet(omega=CofiniteSet(excluded=(4,)), star=True)"
    assert repr(nf(finite)) == \
        "NormalForm(complemented=False, words=(), plus=frozenset({1, 2}), minus=frozenset())"
