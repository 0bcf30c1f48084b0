"""Finitely presented countable topologies with machine-checkable witnesses.

The model spaces: the discrete, antidiscrete and cofinite topologies on the
naturals; the initial-segment topology on the integer line with an added
first element (parametrized by the cutoff for segments missing the first
element); the convergent-sequence space on the naturals plus a limit point;
and its refinement by the complements of an almost-disjoint branch family.
Every operation either returns an exact answer over the descriptor algebra
or raises UnsupportedDescriptorError at the fragment boundary.
"""
from __future__ import annotations

from collections import namedtuple

from .descriptors import (
    STAR,
    BranchSet,
    CofiniteSet,
    FiniteSet,
    FinSupportPerm,
    NormalForm,
    OMEGA_SET,
    OmegaStarSet,
    OpenLeftZ,
    ClosedLeftZ,
    SetDescriptor,
    ShiftZ,
    SymbolicMap,
    TypedValue,
    UnsupportedDescriptorError,
    Word,
    ZDescriptor,
    code_of_bits,
    descriptor_to_json,
    image_nf_omega,
    image_z,
    nf,
    nf_complement,
    nf_enumerate,
    nf_intersection,
    nf_member,
    word_lcp,
)


class NoBetaAvailableError(ValueError):
    """Every family member was blocked; a finite family cannot be maximal."""


# ---------------------------------------------------------------------------
# the symbolic topologies
# ---------------------------------------------------------------------------

class DiscreteOmega(TypedValue, namedtuple("DiscreteOmega", ())):
    """Every subset of the naturals is open."""

    __slots__ = ()


class AntidiscreteOmega(TypedValue, namedtuple("AntidiscreteOmega", ())):
    """Only the empty set and the whole ground set are open."""

    __slots__ = ()


class CoSmall(TypedValue, namedtuple("CoSmall", ())):
    """Opens are the empty set and all cofinite sets (the countable instance
    of the complements-of-small-sets family, small meaning finite)."""

    __slots__ = ()


class OrderedZ(TypedValue, namedtuple("OrderedZ", ("c",), defaults=(0,))):
    """The initial-segment topology on {z} + the integers.

    Opens: the empty set, the whole line, every segment [z, a), and the
    segments (z, b) for b up to the cutoff c.
    """

    __slots__ = ()


class ConvSeq(TypedValue, namedtuple("ConvSeq", ())):
    """The convergent-sequence space: naturals plus a limit point.

    Every subset of the naturals is open; a set containing the limit point
    is open iff its natural part is cofinite.
    """

    __slots__ = ()


class ADFamily(TypedValue, namedtuple("ADFamily", ("members",))):
    """A finite almost-disjoint family of branch sets.

    Two distinct branch sets meet in exactly the codes of the shared
    prefixes of their words, so all pairwise intersections are finite.
    Maximality is not claimed and is unattainable for finite families.
    The length of a family is its number of members.
    """

    __slots__ = ()

    def __new__(cls, members: tuple[BranchSet, ...]):
        words = [m.word for m in members]
        if len(set(words)) != len(words):
            raise UnsupportedDescriptorError("family words must be pairwise distinct")
        return tuple.__new__(cls, (members,))

    def __len__(self):
        return len(self.members)

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple(m.word for m in self.members)

    def intersection_size(self, i: int, j: int) -> int:
        depth = word_lcp(self.members[i].word, self.members[j].word)
        if depth is None:
            raise AssertionError(f"family members {i} and {j} share a word")
        return depth


def ad_family(k: int) -> ADFamily:
    """k pairwise almost-disjoint branch sets from the words (0^i 1) repeated."""
    if k < 1:
        raise ValueError("family size must be at least 1")
    return ADFamily(tuple(BranchSet(Word("", "0" * i + "1")) for i in range(k)))


class Refined(TypedValue, namedtuple("Refined", ("family",))):
    """The convergent-sequence space refined by removing an almost-disjoint
    family (an ADFamily) from the neighborhoods of the limit point.

    Basis: O minus a finite union of family members, O open in the base
    space.  Every base open stays open; each family member becomes closed.
    """

    __slots__ = ()


_OMEGA_GROUND = (DiscreteOmega, AntidiscreteOmega, CoSmall)


def _omega_star_part(d) -> OmegaStarSet:
    if isinstance(d, OmegaStarSet):
        return d
    if isinstance(d, SetDescriptor):
        return OmegaStarSet(d, star=False)
    raise UnsupportedDescriptorError(
        f"expected a subset of the naturals-with-limit-point ground, got {d!r}")


def member_open(d, topology) -> bool:
    """Decide whether the descriptor denotes an open set of the topology."""
    if isinstance(topology, _OMEGA_GROUND):
        if not isinstance(d, SetDescriptor):
            raise UnsupportedDescriptorError(
                f"expected a subset of the naturals, got {d!r}")
        x = nf(d)
        if isinstance(topology, DiscreteOmega):
            return True
        if isinstance(topology, AntidiscreteOmega):
            return (x.is_finite() and not x.plus) or (x.is_cofinite() and not x.plus)
        return (x.is_finite() and not x.plus) or x.is_cofinite()
    if isinstance(topology, OrderedZ):
        if not isinstance(d, ZDescriptor):
            raise UnsupportedDescriptorError(
                f"expected a subset of the z-extended line, got {d!r}")
        # every shape is open but the segments (z, b) past the cutoff
        return not isinstance(d, OpenLeftZ) or d.b <= topology.c
    if isinstance(topology, ConvSeq):
        part = _omega_star_part(d)
        return (not part.star) or nf(part.omega).is_cofinite()
    if isinstance(topology, Refined):
        part = _omega_star_part(d)
        if not part.star:
            return True
        missing = nf_complement(nf(part.omega))
        if missing.is_finite():
            return True
        if missing.kind == "branches":
            return set(missing.words) <= set(topology.family.words)
        return False
    raise UnsupportedDescriptorError(f"not a symbolic topology: {topology!r}")


# ---------------------------------------------------------------------------
# images of descriptors and topologies under symbolic bijections
# ---------------------------------------------------------------------------

def image_descriptor(f: SymbolicMap, d):
    """Normal form of the pointwise image f[d]; the limit point stays fixed."""
    if isinstance(d, OmegaStarSet):
        return OmegaStarSet(image_descriptor(f, d.omega), d.star)
    if isinstance(f, FinSupportPerm) and isinstance(d, SetDescriptor):
        return image_nf_omega(f, nf(d))
    if isinstance(f, ShiftZ) and isinstance(d, ZDescriptor):
        return image_z(f, d)
    raise UnsupportedDescriptorError(f"no image rule for {f!r} on {d!r}")


def _normal(d):
    """Normal form of a descriptor over the naturals, keeping the limit point;
    a z-line shape is already the only value for its set."""
    if isinstance(d, OmegaStarSet):
        return OmegaStarSet(nf(d.omega), d.star)
    if isinstance(d, ZDescriptor):
        return d
    return nf(d)


class SymbolicImage(TypedValue, namedtuple("SymbolicImage",
                                           ("map", "source", "topology", "obligations"))):
    """Image topology under a symbolic bijection, with its proof obligations.

    map (a SymbolicMap) carries the topology source onto topology.  Each
    obligation is a (descriptor, expected image descriptor) pair; verify()
    recomputes every image, compares normal forms and checks openness
    transport.
    """

    __slots__ = ()

    def verify(self) -> bool:
        for before, after in self.obligations:
            # both sides are normalised, so an image rule is judged by the
            # set it returns, not by the type of its result
            if _normal(image_descriptor(self.map, before)) != _normal(after):
                return False
            if member_open(before, self.source) != member_open(after, self.topology):
                return False
        return True


def _moved(perm: FinSupportPerm, points) -> tuple[int, ...]:
    return tuple(perm.apply(p) for p in points)


def image_topology_symbolic(f: SymbolicMap, topology) -> SymbolicImage:
    """The image topology {f[O] : O open}, computed on the descriptor schema.

    The obligations pair probe sets with their images written out by hand:
    a shift moves the bounds of the segments, and a finite-support
    permutation moves the excluded points of a cofinite set and the points
    of a finite set.  On the convergent-sequence space each probe of the
    naturals is taken once with the limit point, which stays fixed, and once
    without it."""
    if isinstance(topology, OrderedZ) and isinstance(f, ShiftZ):
        k = f.k
        image = OrderedZ(topology.c + k)
        obligations = tuple(
            [(ClosedLeftZ(a), ClosedLeftZ(a + k))
             for a in range(topology.c - 2, topology.c + 3)]
            + [(OpenLeftZ(b), OpenLeftZ(b + k))
               for b in range(topology.c - 2, topology.c + 1)])
        return SymbolicImage(f, topology, image, obligations)
    if isinstance(topology, (*_OMEGA_GROUND, ConvSeq)) and isinstance(f, FinSupportPerm):
        support = f.support
        obligations = tuple(
            [(CofiniteSet(e), CofiniteSet(_moved(f, e)))
             for e in ((), support, support[: len(support) // 2])]
            + [(FiniteSet(s), FiniteSet(_moved(f, s))) for s in (support, ())])
        if isinstance(topology, ConvSeq):
            obligations = tuple((OmegaStarSet(before, star), OmegaStarSet(after, star))
                                for before, after in obligations for star in (True, False))
        return SymbolicImage(f, topology, topology, obligations)
    raise UnsupportedDescriptorError(
        f"no image-topology rule for {f!r} on {topology!r}")


# ---------------------------------------------------------------------------
# non-reversibility of the initial-segment topologies
# ---------------------------------------------------------------------------

class NonreversibilityWitness(TypedValue, namedtuple("NonreversibilityWitness",
                                                     ("source", "map", "image", "separator"))):
    """A self-homeomorphic copy strictly above the topology.

    The unit shift (a ShiftZ map) carries the OrderedZ source onto the same
    schema with cutoff raised by one (image); the separating segment (an
    OpenLeftZ) is open in the image, not in the source, so the image is a
    strictly finer homeomorphic copy.
    """

    __slots__ = ()

    def verify(self) -> bool:
        schema = image_topology_symbolic(self.map, self.source)
        if schema.topology != self.image or not schema.verify():
            return False
        if self.source.c > self.image.c:  # every source open must stay open
            return False
        if not member_open(self.separator, self.image):
            return False
        if member_open(self.separator, self.source):
            return False
        return True

    def to_json(self) -> dict:
        return {
            "map": {"tag": "shiftz", "k": self.map.k},
            "image_c": self.image.c,
            "separator": descriptor_to_json(self.separator),
            "verified": self.verify(),
        }


def nonreversibility_witness(topology: OrderedZ) -> NonreversibilityWitness:
    """The unit-shift witness that the initial-segment topology is not reversible."""
    shift = ShiftZ(1)
    image = OrderedZ(topology.c + 1)
    return NonreversibilityWitness(topology, shift, image, OpenLeftZ(topology.c + 1))


def increasing_chain(topology: OrderedZ, length: int) -> tuple[NonreversibilityWitness, ...]:
    """Iterated witnesses: a strictly increasing chain of homeomorphic copies."""
    out = []
    current = topology
    for _ in range(length):
        w = nonreversibility_witness(current)
        out.append(w)
        current = w.image
    return tuple(out)


# ---------------------------------------------------------------------------
# the refined convergent-sequence space
# ---------------------------------------------------------------------------

def construct_o_star(family: ADFamily) -> Refined:
    """Refine the convergent-sequence space by the family complements."""
    if len(family) < 1:
        raise ValueError("family must be nonempty")
    return Refined(family)


class ClosureWitness(TypedValue, namedtuple("ClosureWitness",
                                            ("family", "blocked", "neighborhood", "beta",
                                             "element"))):
    """A point of the probed set inside one basic neighborhood of the limit.

    The witness element lies in the family member indexed by beta, escapes
    every blocked member (a tuple of indices), and survives the cofinite
    restriction of the OmegaStarSet neighborhood, so the neighborhood meets
    the set of all naturals.
    """

    __slots__ = ()

    def verify(self) -> bool:
        if self.beta in self.blocked:
            return False
        if not nf_member(nf(self.family.members[self.beta]), self.element):
            return False
        for idx in self.blocked:
            if nf_member(nf(self.family.members[idx]), self.element):
                return False
        return nf_member(nf(self.neighborhood.omega), self.element)


def star_in_closure_check(family: ADFamily, blocked, neighborhood: OmegaStarSet) -> ClosureWitness:
    """Witness that a basic refined neighborhood of the limit point meets the
    naturals, found from the words alone.

    beta is the first unblocked member.  Let depth be the longest prefix that
    its word shares with a blocked word (0 when nothing is blocked).  Every
    code of length at most depth lies in the blocked member attaining the
    depth, and no longer code of beta's word lies in any blocked member.  So
    the first code past depth that the neighborhood keeps is the least
    element of B(beta) minus the blocked members, within the neighborhood.
    """
    blocked = tuple(sorted(set(blocked)))
    for idx in blocked:
        if not 0 <= idx < len(family):
            raise ValueError(f"blocked index {idx} out of range")
    omega = nf(neighborhood.omega)
    if not neighborhood.star or not omega.is_cofinite():
        raise UnsupportedDescriptorError(
            "neighborhood must be a cofinite set together with the limit point")
    beta = next((i for i in range(len(family)) if i not in blocked), None)
    if beta is None:
        raise NoBetaAvailableError(
            "all family members blocked; finite families are never maximal")
    word = family.members[beta].word
    depth = max((word_lcp(word, family.members[idx].word) for idx in blocked), default=0)
    # a cofinite normal form lists its excluded points in plus; codes grow
    # with their length, so each excluded point costs at most one length
    for length in range(depth + 1, depth + len(omega.plus) + 2):
        element = code_of_bits(word.bits(length))
        if element not in omega.plus:
            return ClosureWitness(family, blocked, neighborhood, beta, element)
    raise AssertionError("a cofinite neighborhood keeps a code past the blocked depth")


class BlockingCertificate(TypedValue, namedtuple("BlockingCertificate",
                                                 ("candidate", "index", "word",
                                                  "intersection_prefix"))):
    """A family member meeting the candidate set infinitely often.

    The member is given by its index and Word; intersection_prefix lists the
    first points of its overlap with the candidate.  The complement of that
    member is then a refined neighborhood of the limit point which the
    candidate enters infinitely often, so no sequence running inside the
    candidate converges to the limit point.
    """

    __slots__ = ()

    def verify(self) -> bool:
        x = nf(self.candidate)
        member = nf(BranchSet(self.word))
        if nf_intersection(x, member).is_finite():
            return False
        return all(nf_member(x, e) and nf_member(member, e)
                   for e in self.intersection_prefix)


def _first_blocking(x: NormalForm, family: ADFamily) -> int | None:
    """Index of the first family member that meets x infinitely often.

    Distinct words give almost disjoint branch sets, so x meets the branch
    set of w infinitely often iff (w in x.words) != x.complemented.
    """
    words = frozenset(x.words)
    for idx, member in enumerate(family.members):
        if (member.word in words) != x.complemented:
            return idx
    return None


def blocking_nbhd(candidate: SetDescriptor, family: ADFamily) -> BlockingCertificate | None:
    """Find a family member with provably infinite overlap with the candidate.

    None means no member blocks it (the finite-family analogue of
    non-maximality: the candidate is almost disjoint from every member).
    The member is found from the words; only its overlap is built, for the
    certificate's prefix, and verify() checks it on the full normal form.
    """
    x = nf(candidate)
    if x.is_finite():
        raise ValueError("candidate must denote an infinite set")
    idx = _first_blocking(x, family)
    if idx is None:
        return None
    member = family.members[idx]
    overlap = nf_intersection(x, nf(member))
    return BlockingCertificate(candidate, idx, member.word, nf_enumerate(overlap, 5))


# ---------------------------------------------------------------------------
# sequences and convergence
# ---------------------------------------------------------------------------

class ConstantTail(TypedValue, namedtuple("ConstantTail", ("value",))):
    """The tail repeats value, a natural number or the limit point."""

    __slots__ = ()


class EnumerationTail(TypedValue, namedtuple("EnumerationTail", ("descriptor",))):
    """The tail enumerates an infinite descriptor in increasing order."""

    __slots__ = ()


class EventualSequence(TypedValue, namedtuple("EventualSequence", ("prefix", "tail"))):
    """A sequence given by an explicit prefix (a tuple) and an
    eventually-described tail (a ConstantTail or an EnumerationTail)."""

    __slots__ = ()


def _tail_nf(seq: EventualSequence) -> NormalForm:
    if not isinstance(seq.tail, EnumerationTail):
        raise AssertionError("expected an enumeration tail")
    x = nf(seq.tail.descriptor)
    if x.is_finite():
        raise UnsupportedDescriptorError("enumeration tail needs an infinite descriptor")
    return x


def converges(seq: EventualSequence, point, topology) -> bool:
    """Decide convergence against the descriptor basis of the topology."""
    if isinstance(topology, (ConvSeq, Refined)):
        if point is STAR:
            if isinstance(seq.tail, ConstantTail):
                return seq.tail.value is STAR
            tail = _tail_nf(seq)
            if isinstance(topology, ConvSeq):
                return True
            # the limit needs that no family member meets the tail infinitely often
            return _first_blocking(tail, topology.family) is None
        if isinstance(point, int):
            # singletons are open in both spaces
            return isinstance(seq.tail, ConstantTail) and seq.tail.value == point
        raise UnsupportedDescriptorError(f"not a point of the ground set: {point!r}")
    if isinstance(topology, DiscreteOmega):
        return isinstance(seq.tail, ConstantTail) and seq.tail.value == point
    if isinstance(topology, AntidiscreteOmega):
        return True
    if isinstance(topology, CoSmall):
        if not isinstance(point, int):
            raise UnsupportedDescriptorError(f"not a point of the naturals: {point!r}")
        if isinstance(seq.tail, ConstantTail):
            return seq.tail.value == point
        _tail_nf(seq)
        return True  # an injective sequence meets every cofinite set eventually
    raise UnsupportedDescriptorError(f"no convergence rule for {topology!r}")


def unique_limits_check(topology, points=None) -> bool:
    """Do the sampled sequences all have at most one limit in the topology?"""
    star_ground = isinstance(topology, (ConvSeq, Refined))
    if points is None:
        points = list(range(6)) + ([STAR] if star_ground else [])
    samples = [
        EventualSequence((), ConstantTail(0)),
        EventualSequence((5, 3), ConstantTail(2)),
        EventualSequence((), EnumerationTail(OMEGA_SET)),
        EventualSequence((7,), EnumerationTail(CofiniteSet((0, 1, 2)))),
        EventualSequence((), EnumerationTail(BranchSet(Word("", "1")))),
        EventualSequence((), EnumerationTail(BranchSet(Word("", "01")))),
    ]
    if star_ground:
        samples.append(EventualSequence((), ConstantTail(STAR)))
    for seq in samples:
        limits = [p for p in points if converges(seq, p, topology)]
        if len(limits) > 1:
            return False
    return True
