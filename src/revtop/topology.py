"""Finite topologies on {0, ..., n-1} stored as sorted tuples of bit sets.

A subset of the ground set is an int whose bit i records membership of
point i; a topology is the strictly sorted tuple of its open sets.  All
values are immutable and hashable, so structural equality of values
coincides with equality of the topologies they denote.
"""
from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache
from itertools import permutations as _all_perms
from operator import itemgetter

DEFAULT_POINT_CAP = 5
HARD_POINT_CAP = 10  # bit arithmetic stays exact; enumeration beyond this is hopeless anyway


class TopologyError(ValueError):
    """Invalid finite-topology input."""


class MissingEmptyError(TopologyError):
    pass


class MissingFullError(TopologyError):
    pass


class NotClosedUnderUnionError(TopologyError):
    def __init__(self, a: int, b: int):
        super().__init__(f"family lacks the union of {a:#b} and {b:#b}")
        self.witness = (a, b)


class NotClosedUnderIntersectionError(TopologyError):
    def __init__(self, a: int, b: int):
        super().__init__(f"family lacks the intersection of {a:#b} and {b:#b}")
        self.witness = (a, b)


class DimensionMismatchError(TopologyError):
    pass


class CapExceededError(TopologyError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"ground size {n} exceeds the configured cap {cap} "
                         f"(set REVTOP_MAX_N to raise it, hard ceiling {HARD_POINT_CAP})")
        self.n = n
        self.cap = cap


def point_cap() -> int:
    """Configured ground-set cap; REVTOP_MAX_N overrides the default of 5."""
    raw = os.environ.get("REVTOP_MAX_N", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise TopologyError(f"REVTOP_MAX_N must be an integer, got {raw!r}") from exc
        if not 0 <= cap <= HARD_POINT_CAP:
            raise TopologyError(f"REVTOP_MAX_N must lie in 0..{HARD_POINT_CAP}, got {cap}")
        return cap
    return DEFAULT_POINT_CAP


def check_ground(n: int) -> None:
    if n < 0:
        raise TopologyError(f"ground size must be non-negative, got {n}")
    cap = point_cap()
    if n > cap:
        raise CapExceededError(n, cap)


def full_mask(n: int) -> int:
    return (1 << n) - 1


class FiniteTopology(namedtuple("FiniteTopology", ("n", "opens"))):
    """A topology as the strictly sorted tuple of its open sets (bit masks).

    The constructor enforces every invariant: masks in range and strictly
    sorted, the empty and full sets present, and closure under union and
    intersection (a failure names the first offending pair as its witness).
    A value is the tuple ``(n, opens)``: it hashes, compares and orders as
    that tuple, and equals it.  Every route that builds one (``_make``,
    ``_replace``, copy and pickle) goes through the constructor.
    """

    __slots__ = ()

    def __new__(cls, n: int, opens: tuple[int, ...]):
        if n < 0:
            raise TopologyError("negative ground size")
        fast = n <= HARD_POINT_CAP
        if not (fast and opens and opens[0] == 0 and opens[-1] == full_mask(n)
                and list(opens) == sorted(opens) and _is_topology(n, opens)):
            _check_pairwise(n, opens)
            if fast:
                raise AssertionError(f"the bitset check refused the topology "
                                     f"{list(opens)} on {n} points")
        return tuple.__new__(cls, (n, opens))

    @classmethod
    def _make(cls, iterable) -> "FiniteTopology":
        # namedtuple's _make builds through tuple.__new__, and its _replace
        # builds through _make
        return cls(*iterable)

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def to_json(self) -> dict:
        return {"n": self.n, "opens": list(self.opens)}

    @staticmethod
    def from_json(data: dict) -> "FiniteTopology":
        return validate_topology(int(data["n"]), [int(o) for o in data["opens"]])


@lru_cache(maxsize=None)
def _closure_tables(n: int) -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...],
                                     tuple[int, ...]]:
    """Bitsets over the 2^n point sets of n points (bit m stands for the
    point set m): all of them; bits[m] = 1 << m, the point set m alone; for
    each point x, the pair of those that contain x and those that do not;
    and sup[m], the supersets of m, built in 2^n steps by removing m's
    lowest point."""
    size = 1 << n
    every = (1 << size) - 1
    bits = tuple(1 << m for m in range(size))
    has = tuple(sum(1 << m for m in range(size) if m >> x & 1) for x in range(n))
    sup = [every] * size
    for m in range(1, size):
        sup[m] = sup[m & (m - 1)] & has[(m & -m).bit_length() - 1]
    return every, bits, tuple((h, every ^ h) for h in has), tuple(sup)


def _is_topology(n: int, ops: tuple[int, ...]) -> bool:
    """Is a sorted family of point sets, from the empty set to the full set,
    free of repeats and closed under union and intersection?  Exact in O(n)
    bitset operations: with c_x the least open (as an int) containing x, the
    point sets m with c_x inside m for every x in m form a topology, the
    up-sets of x -> c_x.  A topology equals that family, since its least
    open around x is the minimal neighbourhood of x and it holds exactly the
    up-sets of its specialization preorder (Alexandroff 1937); a family that
    is not a topology cannot equal it."""
    every, bits, points, sup = _closure_tables(n)
    # the family as one bitset; the extra index 0 keeps itemgetter's result a
    # tuple when there is one open, and its bits[0] = 1 is taken off
    family = sum(itemgetter(0, *ops)(bits)) - 1
    if family.bit_count() != len(ops):        # a repeated open
        return False
    ups = every
    for has, lacks in points:
        around = family & has
        ups &= lacks | sup[(around & -around).bit_length() - 1]
    return family == ups


def _check_pairwise(n: int, ops) -> None:
    """The constructor's check by definition, for families the bitset check
    refused or does not cover (beyond the hard cap): scan the opens one by
    one, then every pair of them, and raise the error that names the first
    fault, so that a closure failure names its first offending pair."""
    full = full_mask(n)
    prev = -1
    for o in ops:
        if not 0 <= o <= full:
            raise TopologyError(f"point set {o} out of range for n={n}")
        if o <= prev:
            raise TopologyError("opens must be strictly sorted")
        prev = o
    if not ops or ops[0] != 0:
        raise MissingEmptyError(f"family on {n} points lacks the empty set")
    if ops[-1] != full:
        raise MissingFullError(f"family on {n} points lacks the full set")
    # pairs involving the empty or the full set never fail
    present = set(ops)
    inner = ops[1:-1]
    for i, a in enumerate(inner, 1):
        for b in inner[i:]:
            if a | b not in present:
                raise NotClosedUnderUnionError(a, b)
            if a & b not in present:
                raise NotClosedUnderIntersectionError(a, b)


def computed_topologies(n: int, families) -> tuple[FiniteTopology, ...]:
    """Topologies from open families the program computed itself (catalog
    members, closure-route results, orbit images): each is built through the
    validating constructor, but a failure is a program fault, so it raises
    AssertionError (which survives python -O) rather than an input error."""
    try:
        return tuple(FiniteTopology(n, opens) for opens in families)
    except TopologyError as exc:
        raise AssertionError(f"computed family on {n} points is not a topology: {exc}") from exc


def validate_topology(n: int, family) -> FiniteTopology:
    """Check that a family of point sets is a topology and canonicalize it.

    Sorts and deduplicates the family; the constructor then raises
    MissingEmptyError / MissingFullError / NotClosedUnderUnionError /
    NotClosedUnderIntersectionError (with a witness pair) on failure.
    """
    check_ground(n)
    return FiniteTopology(n, tuple(sorted(set(family))))


def adjoin_open(opens, s: int) -> tuple[int, ...]:
    """The opens of the smallest topology containing the topology with the
    given opens and the point set s, sorted.

    For a topology T (a lattice of sets with the empty and full set) that
    closure is {a | (b & s) : a, b in T}: the family contains T and s and is
    closed under both operations, since unions and intersections of sets
    distribute over each other.
    """
    cuts = {b & s for b in opens}
    return tuple(sorted({a | c for a in opens for c in cuts}))


def antidiscrete_topology(n: int) -> FiniteTopology:
    full = full_mask(n)
    return FiniteTopology(n, (0,) if full == 0 else (0, full))


def discrete_topology(n: int) -> FiniteTopology:
    return FiniteTopology(n, tuple(range(1 << n)))


@lru_cache(maxsize=None)
def mask_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation of n points, the full mask-image lookup table.

    tables[k][m] is the image of the point set m under the k-th permutation
    in itertools order.  Tiny for n <= 5 and shared by all hot loops.
    """
    tables = []
    size = 1 << n
    for img in _all_perms(range(n)):
        bit = [1 << img[i] for i in range(n)]
        tab = [0] * size
        for m in range(1, size):
            low = (m & -m).bit_length() - 1
            tab[m] = tab[m & (m - 1)] | bit[low]
        tables.append(tuple(tab))
    return tuple(tables)


def opens_bitset(t: FiniteTopology) -> int:
    """The open family as one int whose bit o is set iff the point set o is
    open, so inclusion of open families is one AND: opens(t) <= opens(u) iff
    opens_bitset(t) & opens_bitset(u) == opens_bitset(t).  The opens are
    distinct, so the sum of their powers of two is their union."""
    return sum(map((1).__lshift__, t.opens))


def _check_permutation(f: tuple[int, ...], n: int) -> None:
    if len(f) != n:
        raise DimensionMismatchError(f"permutation on {len(f)} points vs topology on {n}")
    if sorted(f) != list(range(n)):
        raise TopologyError(f"not a permutation: {f}")


def image_opens(f: tuple[int, ...], opens) -> tuple[int, ...]:
    """The images of the given point sets under an already checked
    permutation f (point i maps to f[i]), computed bit by bit, sorted."""
    images = []
    for o in opens:
        m = 0
        for i, j in enumerate(f):
            if o >> i & 1:
                m |= 1 << j
        images.append(m)
    return tuple(sorted(images))


def image_topology(f: tuple[int, ...], t: FiniteTopology) -> FiniteTopology:
    """The topology {f[O] : O open in t}, where point i maps to f[i]; always
    a valid topology."""
    _check_permutation(f, t.n)
    return FiniteTopology(t.n, image_opens(f, t.opens))


def is_continuous(f: tuple[int, ...], dom: FiniteTopology, cod: FiniteTopology) -> bool:
    """True iff the preimage of every open of cod is open in dom."""
    if dom.n != cod.n:
        raise DimensionMismatchError("mismatched ground sizes")
    _check_permutation(f, dom.n)
    return preimages_open(f, frozenset(dom.opens), cod.opens)


def preimages_open(f: tuple[int, ...], dom_opens: frozenset[int], cod_opens) -> bool:
    """The test of :func:`is_continuous` for an already checked permutation f:
    is the preimage of every set in cod_opens a member of dom_opens?"""
    for o in cod_opens:
        pre = 0
        for i, j in enumerate(f):
            if o >> j & 1:
                pre |= 1 << i
        if pre not in dom_opens:
            return False
    return True


def is_homeomorphism(f: tuple[int, ...], t1: FiniteTopology, t2: FiniteTopology) -> bool:
    return is_continuous(f, t1, t2) and image_topology(f, t1) == t2


def orbit_opens(n: int, opens) -> list[tuple[int, ...]]:
    """The families of the images of the point sets ``opens`` (the opens of
    a topology on n points) under every permutation, sorted.

    images picks the images of the opens out of a permutation's table; its
    extra leading 0 (the image of the empty set) keeps the result a tuple
    when there is one open, and is cut off each distinct image."""
    images = itemgetter(0, *opens)
    distinct = set(map(tuple, map(sorted, map(images, mask_tables(n)))))
    return [o[1:] for o in sorted(distinct)]


def homeo_class(t: FiniteTopology) -> tuple[FiniteTopology, ...]:
    """All permutation images of t, sorted; the first is its canonical form."""
    return computed_topologies(t.n, orbit_opens(t.n, t.opens))


def preorder_of_topology(t: FiniteTopology) -> tuple[int, ...]:
    """The up-set rows of the specialization preorder of t: row i, the bit
    set {j : i <= j}, is the least open set containing i.  The direction is
    fixed project-wide: x <= y iff every open set containing x contains y."""
    rows = []
    full = t.full
    for i in range(t.n):
        acc = full
        bit = 1 << i
        for o in t.opens:
            if o & bit:
                acc &= o
        rows.append(acc)
    return tuple(rows)


def down_rows(up) -> list[int]:
    """The down-set rows of the relation with up-set rows ``up``: bit i of
    row j set iff bit j of up[i] is."""
    down = [0] * len(up)
    for i, row in enumerate(up):
        bit = 1 << i
        while row:
            low = row & -row
            down[low.bit_length() - 1] |= bit
            row ^= low
    return down


def least_twins(up, down) -> list[int]:
    """The least twin of each point of the preorder with up-set rows ``up``
    and down-set rows ``down``.  Twins are points with equal rows, or with
    equal strict rows (each row without the point itself); swapping two
    twins fixes every row, so it is an automorphism.  A point has twins of
    one kind only: a twin by strict rows of a point in a class of two or
    more would share its class."""
    same, strict = {}, {}
    return [min(same.setdefault((up[v], down[v]), v),
                strict.setdefault((up[v] ^ 1 << v, down[v] ^ 1 << v), v))
            for v in range(len(up))]


def canonical_form(t: FiniteTopology) -> FiniteTopology:
    """Lexicographically least permutation image (the least sorted tuple of
    image opens, as in :func:`orbit_opens`); constant on homeomorphism
    classes.  Found by a search that fills image positions 0, 1, ... in
    order and keeps only the partial assignments that can still reach the
    least image.

    Exactness.  Once positions below p hold the point set S, the image
    values below 2^p are exactly the images of the opens inside S, so they
    are the final first entries (the prefix) of every completion's sorted
    image.  If two prefixes differ at an entry both have, every completion
    of the smaller is less than every completion of the larger.  If one is a
    proper prefix of the other, the longer ranks first: the shorter one's
    next entry is at least 2^p, the longer one's is below.  So the least
    image completes a partial assignment whose prefix is least, and the
    search keeps all of those and no other.  The parents of one level share
    their prefix, so a child is ranked by the values it adds alone, the
    images of the opens inside S that hold the new point, with 2^(p+1)
    appended as the rank of the entry that follows them.

    Twins.  Swapping two twins (:func:`least_twins`) maps t onto itself, so
    two assignments that differ by the swap of two unplaced twins reach the
    same images.  At each level the search tries only the least unplaced
    point of each twin class: one point on the discrete and the antidiscrete
    topology, where all points are twins, and n! assignments collapse to
    one.

    Each open is carried with the points it still lacks and the image of
    the points it has; it joins the prefix when it lacks nothing."""
    n, opens = t
    up = preorder_of_topology(t)
    classes: dict[int, int] = {}        # each twin class as a bit set
    for v, w in enumerate(least_twins(up, down_rows(up))):
        classes[w] = classes.get(w, 0) | 1 << v
    prefix = [0]
    states = [(0, opens[1:], (0,) * (len(opens) - 1))]      # placed, lacking, images
    for p in range(n):
        bit = 1 << p
        best, kept = None, []
        for placed, lacks, images in states:
            for members in classes.values():
                free = members & ~placed
                if free:
                    x = free & -free
                    added = sorted([m | bit for lack, m in zip(lacks, images) if lack == x])
                    added.append(bit << 1)
                    if best is None or added < best:
                        best, kept = added, [(placed, lacks, images, x)]
                    elif added == best:
                        kept.append((placed, lacks, images, x))
        prefix += best[:-1]
        states = []
        for placed, lacks, images, x in kept:
            rest = [(lack ^ x, m | bit) if lack & x else (lack, m)
                    for lack, m in zip(lacks, images) if lack != x]
            states.append((placed | x, tuple(lack for lack, _ in rest),
                           tuple(m for _, m in rest)))
    return computed_topologies(n, [tuple(prefix)])[0]
