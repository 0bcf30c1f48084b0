"""Finitely presented subsets of countable ground sets.

Ground sets: the naturals (with branch sets coded from eventually periodic
binary words), the integers extended by a first element z, and the naturals
extended by a limit point.  Every descriptor over the naturals normalizes
into a closed normal-form algebra, so boolean combinations stay exactly
decidable: membership, cardinality (finite / cofinite / neither) and
equality are all computed on normal forms, never approximated.  A set on
the z-extended line is one of the four open shapes of the initial-segment
topology (empty, the whole line, [z, a) and (z, b)); distinct shapes are
distinct sets, and a shift moves a segment's bound.
"""
from __future__ import annotations

import heapq
import operator
from collections import namedtuple
from functools import lru_cache
from math import lcm


class UnsupportedDescriptorError(ValueError):
    """Raised at the boundary of the decidable descriptor fragment.

    Signals that an operation does not cover the given descriptor or map,
    not that the underlying statement is false.
    """


class _Point:
    """A named point adjoined to a ground set; compared by identity."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


STAR = _Point("star")  # the added limit point of the convergent-sequence ground set
Z_FIRST = _Point("z")  # the first element adjoined below the integer line


class TypedValue:
    """Mixin for the named-tuple values of the countable layer.

    Two values are equal only when they have the same type and equal
    fields, so FiniteSet((1, 2)) != CofiniteSet((1, 2)) and the two keep
    separate entries of the nf cache.  A value hashes as the tuple of its
    fields.  Every route that builds a value (``_make``, ``_replace``, copy
    and pickle) goes through the constructor.  Put it first among the bases,
    before the namedtuple, so that its methods win.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        # explicit: tuple.__ne__ would otherwise answer, ignoring the type
        return type(self) is not type(other) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make builds through tuple.__new__, and its _replace
        # builds through _make
        return cls(*iterable)


# ---------------------------------------------------------------------------
# eventually periodic binary words and branch coding
# ---------------------------------------------------------------------------

class Word(TypedValue, namedtuple("Word", ("prefix", "period"))):
    """An eventually periodic infinite binary word, stored canonically.

    The canonical form has a primitive period and a minimal preperiod, so
    two Words are equal as values iff they denote the same infinite word.
    """

    __slots__ = ()

    def __new__(cls, prefix: str, period: str):
        if not period or set(prefix + period) - {"0", "1"}:
            raise UnsupportedDescriptorError(
                f"word needs a nonempty 0/1 period, got {prefix!r}+{period!r}")
        per = period
        for d in range(1, len(per) + 1):
            if len(per) % d == 0 and per[:d] * (len(per) // d) == per:
                per = per[:d]
                break
        pre = prefix
        while pre and pre[-1] == per[-1]:
            per = per[-1] + per[:-1]
            pre = pre[:-1]
        return tuple.__new__(cls, (pre, per))

    def bits(self, k: int) -> str:
        if k <= len(self.prefix):
            return self.prefix[:k]
        tail = k - len(self.prefix)
        reps = (tail + len(self.period) - 1) // len(self.period)
        return (self.prefix + self.period * reps)[:k]

    def to_json(self) -> dict:
        return {"prefix": self.prefix, "period": self.period}

    @staticmethod
    def from_json(data: dict) -> "Word":
        return Word(str(data.get("prefix", "")), str(data["period"]))


def word_lcp(w: Word, v: Word) -> int | None:
    """Length of the longest common prefix; None when the words are equal."""
    if w == v:
        return None
    bound = len(w.prefix) + len(v.prefix) + lcm(len(w.period), len(v.period))
    a, b = w.bits(bound), v.bits(bound)
    for i in range(bound):
        if a[i] != b[i]:
            return i
    return None  # pragma: no cover - equal words are caught above


def code_of_bits(bits: str) -> int:
    """Injective code of a nonempty finite binary word."""
    return (1 << len(bits)) | int(bits, 2)


def word_contains(w: Word, k: int) -> bool:
    if k < 2:
        return False
    length = k.bit_length() - 1
    return bin(k)[3:] == w.bits(length)


def branch_codes(w: Word):
    """The codes of all finite prefixes, in increasing order."""
    length = 1
    while True:
        yield code_of_bits(w.bits(length))
        length += 1


def shared_codes(w: Word, v: Word) -> tuple[int, ...]:
    """Elements common to two distinct branch sets: codes of shared prefixes."""
    depth = word_lcp(w, v)
    if depth is None:
        raise UnsupportedDescriptorError("shared_codes needs distinct words")
    return tuple(code_of_bits(w.bits(i)) for i in range(1, depth + 1))


# ---------------------------------------------------------------------------
# descriptors over the naturals
# ---------------------------------------------------------------------------

class SetDescriptor:
    """Base class for subsets of the naturals."""

    __slots__ = ()


class FiniteSet(TypedValue, namedtuple("FiniteSet", ("elements",)), SetDescriptor):
    """The listed naturals; elements is stored sorted and without repeats."""

    __slots__ = ()

    def __new__(cls, elements: tuple[int, ...]):
        return tuple.__new__(cls, (tuple(sorted(set(elements))),))


class CofiniteSet(TypedValue, namedtuple("CofiniteSet", ("excluded",)), SetDescriptor):
    """All naturals but the excluded ones, stored sorted and without repeats."""

    __slots__ = ()

    def __new__(cls, excluded: tuple[int, ...]):
        return tuple.__new__(cls, (tuple(sorted(set(excluded))),))


class BranchSet(TypedValue, namedtuple("BranchSet", ("word",)), SetDescriptor):
    """{code(w restricted to length l) : l >= 1} for an infinite Word w."""

    __slots__ = ()


class DifferenceSet(TypedValue, namedtuple("DifferenceSet", ("left", "right")), SetDescriptor):
    """The descriptor left minus the descriptor right."""

    __slots__ = ()


OMEGA_SET = CofiniteSet(())


# ---------------------------------------------------------------------------
# normal forms: a core of branches plus and minus finitely many points,
# or the complement of such a core
# ---------------------------------------------------------------------------

class NormalForm(TypedValue, namedtuple("NormalForm", ("complemented", "words", "plus", "minus")),
                 SetDescriptor):
    """Canonical form of a describable subset of the naturals.

    The core is the union of the branch sets of `words` (a tuple of Words),
    plus the points `plus`, minus the points `minus` (frozensets of ints);
    `plus` lies outside the branch region and `minus` inside it, and `words`
    is sorted.  The set is the core, or its complement when the bool
    `complemented` is true.  With no words the set is finite (`plus`) or
    cofinite (everything except `plus`).  A normal form is itself a
    descriptor, the one that `nf` returns unchanged.
    """

    __slots__ = ()

    @property
    def kind(self) -> str:
        """One of finite, cofinite, branches and co_branches."""
        if self.words:
            return "co_branches" if self.complemented else "branches"
        return "cofinite" if self.complemented else "finite"

    def is_finite(self) -> bool:
        return not self.words and not self.complemented

    def is_cofinite(self) -> bool:
        return not self.words and self.complemented


def _in_region(words: tuple[Word, ...], k: int) -> bool:
    return any(word_contains(w, k) for w in words)


def nf_member(x: NormalForm, k: int) -> bool:
    inside = k in x.plus or (_in_region(x.words, k) and k not in x.minus)
    return inside != x.complemented


def nf_complement(x: NormalForm) -> NormalForm:
    return NormalForm(not x.complemented, x.words, x.plus, x.minus)


def _combine(x: NormalForm, y: NormalForm, op) -> NormalForm:
    """Normal form of {k : op(k in x, k in y)} for a boolean operation op.

    Away from the finitely many listed points every branch point behaves
    like a deep point of its branch, so a word is kept iff op differs from
    the result's flag there.  The exceptions can only be the operands'
    listed points and the points two words of different operands share;
    an unlisted shared point is in both cores, so when op keeps it inside
    the result's core a kept word already covers it.
    """
    flag = op(x.complemented, y.complemented)
    x_words, y_words = frozenset(x.words), frozenset(y.words)
    words = tuple(sorted(
        w for w in x_words | y_words
        if op(x.complemented != (w in x_words),
              y.complemented != (w in y_words)) != flag))
    inside = op(not x.complemented, not y.complemented) != flag
    kept = set(words)
    cands = set(x.plus) | x.minus | y.plus | y.minus
    for w in x.words:
        for v in y.words:
            if w != v and not (inside and (w in kept or v in kept)):
                cands.update(shared_codes(w, v))
    plus, minus = set(), set()
    for e in cands:
        if op(nf_member(x, e), nf_member(y, e)) != flag:
            if not _in_region(words, e):
                plus.add(e)
        elif _in_region(words, e):
            minus.add(e)
    return NormalForm(flag, words, frozenset(plus), frozenset(minus))


def nf_union(x: NormalForm, y: NormalForm) -> NormalForm:
    return _combine(x, y, operator.or_)


def nf_intersection(x: NormalForm, y: NormalForm) -> NormalForm:
    return _combine(x, y, operator.and_)


def nf_difference(x: NormalForm, y: NormalForm) -> NormalForm:
    return _combine(x, y, lambda a, b: a and not b)


def _finite_nf(points) -> NormalForm:
    return NormalForm(False, (), frozenset(points), frozenset())


@lru_cache(maxsize=8192)
def nf(d: SetDescriptor) -> NormalForm:
    """Normal form of a descriptor over the naturals; a normal form is
    returned unchanged."""
    if isinstance(d, NormalForm):
        return d
    if isinstance(d, FiniteSet):
        return _finite_nf(d.elements)
    if isinstance(d, CofiniteSet):
        return nf_complement(_finite_nf(d.excluded))
    if isinstance(d, BranchSet):
        return NormalForm(False, (d.word,), frozenset(), frozenset())
    if isinstance(d, DifferenceSet):
        return nf_difference(nf(d.left), nf(d.right))
    raise UnsupportedDescriptorError(f"not a descriptor over the naturals: {d!r}")


def nf_enumerate(x: NormalForm, count: int) -> tuple[int, ...]:
    """First `count` elements in increasing order (fewer if the set is smaller)."""
    if count <= 0:
        return ()
    out: list[int] = []
    if x.complemented:
        k = 0
        while len(out) < count:
            if nf_member(x, k):
                out.append(k)
            k += 1
        return tuple(out)
    streams = [branch_codes(w) for w in x.words]
    streams.append(iter(sorted(x.plus)))
    last = None
    for e in heapq.merge(*streams):
        if e == last:
            continue
        last = e
        if e in x.minus:
            continue
        out.append(e)
        if len(out) == count:
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# subsets of the integer line with a first element z: the four shapes of an
# initial-segment open set, which are pairwise distinct sets, so comparing
# values compares sets
# ---------------------------------------------------------------------------

class ZDescriptor:
    """Base class for subsets of {z} + the integers."""

    __slots__ = ()


class EmptyZ(TypedValue, namedtuple("EmptyZ", ()), ZDescriptor):
    __slots__ = ()


class AllZ(TypedValue, namedtuple("AllZ", ()), ZDescriptor):
    __slots__ = ()


class ClosedLeftZ(TypedValue, namedtuple("ClosedLeftZ", ("a",)), ZDescriptor):
    """The half-open initial segment [z, a): z together with all x < a."""

    __slots__ = ()


class OpenLeftZ(TypedValue, namedtuple("OpenLeftZ", ("b",)), ZDescriptor):
    """The open initial segment (z, b): all integers x < b, without z."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# subsets of the convergent-sequence ground set (naturals plus a limit point)
# ---------------------------------------------------------------------------

class OmegaStarSet(TypedValue, namedtuple("OmegaStarSet", ("omega", "star"), defaults=(False,))):
    """A subset of the naturals-with-limit-point ground set: the descriptor
    omega over the naturals, with the limit point iff the bool star."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# symbolic bijections
# ---------------------------------------------------------------------------

class SymbolicMap:
    """Base class for finitely presented bijections."""

    __slots__ = ()


class FinSupportPerm(TypedValue, namedtuple("FinSupportPerm", ("pairs",)), SymbolicMap):
    """A permutation of the naturals moving only finitely many points.

    pairs lists (point, image) for the moved points, sorted.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        moved = tuple(sorted((k, v) for k, v in pairs if k != v))
        keys = [k for k, _ in moved]
        vals = sorted(v for _, v in moved)
        if len(set(keys)) != len(keys) or vals != keys:
            raise UnsupportedDescriptorError(
                f"not a finite-support permutation: {pairs!r}")
        return tuple.__new__(cls, (moved,))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.pairs)

    def apply(self, p):
        if p is STAR:
            return STAR
        for k, v in self.pairs:
            if k == p:
                return v
        return p

    @staticmethod
    def swap(i: int, j: int) -> "FinSupportPerm":
        return FinSupportPerm(((i, j), (j, i)))


class ShiftZ(TypedValue, namedtuple("ShiftZ", ("k",)), SymbolicMap):
    """Translation by k on the integers, fixing the first element z."""

    __slots__ = ()

    def apply(self, p):
        if p is Z_FIRST:
            return Z_FIRST
        if not isinstance(p, int):
            raise UnsupportedDescriptorError(f"not a point of the z-extended line: {p!r}")
        return p + self.k


def image_nf_omega(f: FinSupportPerm, x: NormalForm) -> NormalForm:
    """Exact image of a natural-number set under a finite-support permutation."""
    support = f.support
    outside = nf_difference(x, _finite_nf(support))
    return nf_union(outside, _finite_nf(f.apply(e) for e in support if nf_member(x, e)))


def image_z(f: ShiftZ, d: ZDescriptor) -> ZDescriptor:
    """Exact image of a z-line shape under a shift: z stays and the bound
    moves, so the empty set and the whole line are fixed."""
    if isinstance(d, ClosedLeftZ):
        return ClosedLeftZ(d.a + f.k)
    if isinstance(d, OpenLeftZ):
        return OpenLeftZ(d.b + f.k)
    return d


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def descriptor_to_json(d) -> dict:
    if isinstance(d, FiniteSet):
        return {"tag": "finite", "elements": list(d.elements)}
    if isinstance(d, CofiniteSet):
        return {"tag": "cofinite", "excluded": list(d.excluded)}
    if isinstance(d, BranchSet):
        return {"tag": "branch", "word": d.word.to_json()}
    if isinstance(d, DifferenceSet):
        return {"tag": "difference", "left": descriptor_to_json(d.left),
                "right": descriptor_to_json(d.right)}
    if isinstance(d, EmptyZ):
        return {"tag": "empty"}
    if isinstance(d, AllZ):
        return {"tag": "all"}
    if isinstance(d, ClosedLeftZ):
        return {"tag": "closedleft", "a": d.a}
    if isinstance(d, OpenLeftZ):
        return {"tag": "openleft", "b": d.b}
    if isinstance(d, OmegaStarSet):
        return {"tag": "withstar", "omega": descriptor_to_json(d.omega), "star": d.star}
    if isinstance(d, NormalForm):
        return {"tag": "normal", "complemented": d.complemented,
                "words": [w.to_json() for w in d.words],
                "plus": sorted(d.plus), "minus": sorted(d.minus)}
    raise UnsupportedDescriptorError(f"no JSON form for {d!r}")


def omega_descriptor_from_json(data: dict) -> SetDescriptor | OmegaStarSet:
    """Read a descriptor over the naturals; a top-level `withstar` reads back
    as an OmegaStarSet.  The limit point is not a natural, so a `withstar`
    nested in a composite raises UnsupportedDescriptorError."""
    if data["tag"] == "withstar":
        return OmegaStarSet(_omega_from_json(data["omega"]), bool(data["star"]))
    return _omega_from_json(data)


def _omega_from_json(data: dict) -> SetDescriptor:
    tag = data["tag"]
    if tag == "finite":
        return FiniteSet(tuple(data["elements"]))
    if tag == "cofinite":
        return CofiniteSet(tuple(data["excluded"]))
    if tag == "branch":
        return BranchSet(Word.from_json(data["word"]))
    if tag == "difference":
        return DifferenceSet(_omega_from_json(data["left"]), _omega_from_json(data["right"]))
    if tag == "normal":
        return _normal_form_from_json(data)
    raise UnsupportedDescriptorError(f"unknown natural-ground descriptor tag {tag!r}")


def _normal_form_from_json(data: dict) -> NormalForm:
    """Read a normal form, refusing one that `nf` would not return: the set
    is rebuilt from its words and points and must come out as written."""
    x = NormalForm(bool(data["complemented"]), tuple(Word.from_json(w) for w in data["words"]),
                   frozenset(data["plus"]), frozenset(data["minus"]))
    outside = nf_complement(_finite_nf(x.plus))  # outside the branches and plus
    for w in x.words:
        outside = nf_intersection(outside, nf_complement(nf(BranchSet(w))))
    core = nf_difference(nf_complement(outside), _finite_nf(x.minus))
    if (nf_complement(core) if x.complemented else core) != x:
        raise UnsupportedDescriptorError(f"not a normal form: {data!r}")
    return x


def z_descriptor_from_json(data: dict) -> ZDescriptor:
    """Read one of the four z-line shapes."""
    tag = data["tag"]
    if tag == "empty":
        return EmptyZ()
    if tag == "all":
        return AllZ()
    if tag == "closedleft":
        return ClosedLeftZ(int(data["a"]))
    if tag == "openleft":
        return OpenLeftZ(int(data["b"]))
    raise UnsupportedDescriptorError(f"unknown z-ground descriptor tag {tag!r}")
