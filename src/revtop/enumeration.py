"""Exhaustive enumeration of all topologies on n points, two independent ways.

The production catalog is built orbit by orbit through the specialization
bijection: the opens of a preorder's up-set (Alexandrov) topology are all
unions of its principal up-sets, so they are built by union-closing the n
up-set rows rather than by testing all 2^n point sets.  Only the preorders
whose up-set sizes do not grow with the point are walked, one or more per
orbit (286 of 6942 at n = 5), and each new orbit is expanded once through
the permutation tables, the idea of counting by one representative per
orbit (Brinkmann & McKay, J. Integer Sequences 8, 2005).  The orbits are
built on the catalog's first read of them.  Its size and orbit count come
without them, from :func:`cover_graph`: one canonical preorder key per orbit
(McKay & Piperno 2014), the orbit's size n!/|Aut|, reached from the
antidiscrete topology along upper covers read from the keys' rows.  That
graph is also the condensational order's.
The cross-check is closure enumeration, which builds each topology once,
from the antidiscrete one, by adjoining point sets in increasing order and
closing: Close-by-One (Kuznetsov 1993) with the failure inheritance of FCbO
(Outrata & Vychodil, Inf. Sci. 185, 2012).  The canonicity test of a point
set g reads only the cuts p & g of the generators adjoined so far, so a
failing closure is never built, and FCbO records the set of generators that
failed: each fails again in every descendant that reaches it.  It reads
neither preorders nor the catalog.  Both must produce identical catalogs
(1, 1, 4, 29, 355, 6942, 209527 for n = 0..6, OEIS A000798).
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, filterfalse, islice
from math import factorial
from operator import attrgetter

from .topology import (
    FiniteTopology,
    antidiscrete_topology,
    check_ground,
    computed_topologies,
    down_rows,
    family_bitset,
    full_mask,
    least_twins,
    orbit_opens,
    power_tables,
)


def _preorders(n: int):
    """Up-set rows of the preorders on n points whose up-set sizes do not grow
    with the point (row i has no more points than row i-1), in increasing
    order.  Relabelling the points by decreasing up-set size carries every
    preorder onto one of these, so they reach every orbit: 286 rows of the
    6942 preorders at n = 5, 2366 of 209,527 at n = 6.

    A depth-first search gives point i each up-set containing i that is
    consistent with the rows already fixed and no larger than row i-1.  A
    row m for point i is consistent when it lies inside every earlier row
    that holds i (j <= i) and holds the row of every earlier point inside it
    (i <= j).  So the candidates are i plus the subsets of the intersection
    ``cap`` of those rows, walked in increasing order, and only the earlier
    points of m are checked."""
    full = full_mask(n)
    rows = [0] * n

    def extend(i: int, limit: int):
        if i == n:
            yield tuple(rows)
            return
        bit = 1 << i
        cap = full
        for rj in rows[:i]:
            if rj & bit:
                cap &= rj
        rest = cap ^ bit
        sub = 0
        while True:
            m = sub | bit
            size = m.bit_count()
            if size <= limit:
                below = m & (bit - 1)
                while below:
                    low = below & -below
                    if rows[low.bit_length() - 1] | m != m:
                        break
                    below ^= low
                else:
                    rows[i] = m
                    yield from extend(i + 1, size)
            sub = (sub - rest) & rest       # the next subset of rest
            if not sub:
                return

    return extend(0, n)


def _up_opens(rows) -> tuple[int, ...]:
    """The opens of the up-set (Alexandrov) topology of the preorder with
    up-set rows ``rows``, sorted: all unions of the rows, built by
    union-closing them one by one rather than by testing all 2^n point sets."""
    opens = {0}
    for row in rows:
        opens |= {o | row for o in opens}
    return tuple(sorted(opens))


def _bits(row: int):
    """The indices of the set bits of row, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def canonical_preorder(up) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(key, labelling, aut_count) of the preorder with up-set rows ``up``
    (bit j of up[i] set iff i <= j): keys are equal iff the preorders are
    isomorphic, the labelling (point i goes to position labelling[i]) carries
    up onto key, and aut_count counts the automorphisms.

    Individualisation-refinement (McKay & Piperno, J. Symbolic Comput. 60,
    2014): the cells of an ordered partition split by their points' counts
    of up- and down-neighbours in every cell, subcells in order of those
    counts, until none splits; the search individualises each point of the
    first non-singleton cell and refines again.  Each leaf labelling gives
    the relabelled rows in position order; key is the least, and the
    automorphisms act freely and transitively on the leaves reaching it.
    Swapping twins (:func:`least_twins`) is an automorphism fixing the
    node, so a twin class takes one branch, weighted by its size."""
    k = len(up)
    down = down_rows(up)
    twin = least_twins(up, down)
    points = [list(_bits(row)) for row in up]      # each up-set row's points

    def refine(cells):
        while True:
            masks = [sum([1 << v for v in c]) for c in cells]
            out = []
            for c in cells:
                if len(c) == 1:
                    out.append(c)
                    continue
                groups = {}
                for v in c:
                    u, d = up[v], down[v]
                    # one tuple orders as the pair (up counts, down counts)
                    sig = tuple([(u & m).bit_count() for m in masks]
                                + [(d & m).bit_count() for m in masks])
                    groups.setdefault(sig, []).append(v)
                if len(groups) == 1:
                    out.append(c)
                else:
                    out.extend(groups[sig] for sig in sorted(groups))
            if len(out) == len(cells):
                return cells
            cells = out

    def leaves(cells, weight):
        cells = refine(cells)
        i = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if i is None:
            labelling = [0] * k
            for position, (v,) in enumerate(cells):
                labelling[v] = position
            bit = [1 << position for position in labelling]
            yield (tuple(sum([bit[j] for j in points[v]]) for v, in cells),
                   tuple(labelling), weight)
            return
        classes: dict[int, list[int]] = {}
        for v in cells[i]:
            classes.setdefault(twin[v], []).append(v)
        for v, *others in classes.values():
            rest = [u for u in cells[i] if u != v]
            yield from leaves(cells[:i] + [[v], rest] + cells[i + 1:],
                              weight * (1 + len(others)))

    found = sorted(leaves([list(range(k))], 1))    # with k = 0 the empty cell refines away
    key, labelling, _ = found[0]
    return key, labelling, sum(weight for leaf, _, weight in found if leaf == key)


def _cover_rows(rows):
    """The up-set rows of the upper covers, in the lattice of topologies, of
    the up-set topology of ``rows`` (bit j of rows[i] set iff i <= j), up to
    relabelling twins; a cover may come more than once.

    A finer topology is a smaller preorder, and an upper cover is one of:
    a twin class C (points with equal rows) split into A below B, the rows of
    B losing A; or one Hasse edge X < Y of the quotient poset dropped (no
    class lies strictly between them), the rows of X losing Y.  Permuting
    twins is an automorphism, so one split is tried for each size of A,
    1 .. |C|-1, rather than each of the 2^|C| - 2 subsets."""
    classes: dict[int, int] = {}        # each class's row, to its points
    for i, row in enumerate(rows):
        classes[row] = classes.get(row, 0) | 1 << i
    for row, members in classes.items():
        points = list(_bits(members))
        lower = 0
        for size, a in enumerate(points[:-1], 1):
            lower |= 1 << a
            split = list(rows)
            for b in points[size:]:
                split[b] = row & ~lower
            yield split
    for row, members in classes.items():
        strict = row & ~members
        above = 0       # the points strictly above a class strictly above
        for j in _bits(strict):
            above |= rows[j] & ~classes[rows[j]]
        upper = strict & ~above
        while upper:
            y = classes[rows[(upper & -upper).bit_length() - 1]]
            upper &= ~y
            dropped = list(rows)
            for x in _bits(members):
                dropped[x] = row & ~y
            yield dropped


def cover_graph(n: int) -> tuple[list[tuple[int, ...]], list[int], list[tuple[int, ...]]]:
    """(keys, orbit_sizes, covers): the homeomorphism orbits of the
    topologies on n points as canonical preorder keys, with their sizes, and
    for each the indices of the orbits of its upper covers, read from the
    rows by :func:`_cover_rows`.  Reads no labelled catalog.

    A key, ``canonical_preorder(rows)[0]`` (McKay & Piperno 2014), is the
    same for the up-set rows of every member of an orbit, and is itself the
    rows of one; the orbit has n!/aut_count members (Brinkmann & McKay
    2005).  Every topology is reached from the antidiscrete one by a chain of
    upper covers, so the walk meets every orbit: 139 at n = 5, 4535 at
    n = 7.  Each distinct cover rows tuple is keyed once per walk and
    remembered as the index of its orbit: 427 distinct tuples among the 524
    cover rows at n = 5."""
    check_ground(n)
    key, _, aut = canonical_preorder((full_mask(n),) * n)
    index = {key: 0}
    keys, sizes, covers = [key], [factorial(n) // aut], []
    seen: dict[tuple[int, ...], int] = {}   # rows already keyed, to their child's index
    for key in keys:        # keys grows as the walk finds orbits
        children = set()
        for rows in map(tuple, _cover_rows(key)):
            c = seen.get(rows)
            if c is None:
                child, _, aut = canonical_preorder(rows)
                c = index.get(child)
                if c is None:
                    c = index[child] = len(keys)
                    keys.append(child)
                    sizes.append(factorial(n) // aut)
                seen[rows] = c
            children.add(c)
        covers.append(tuple(sorted(children)))
    return keys, sizes, covers


def _path_fails(path, base: set[int], g: int) -> bool:
    """Whether the canonicity test fails: some cut p & g of a path generator
    p (one of the generators adjoined to reach the topology) is not open.
    Stops at the first such cut."""
    return not base.issuperset(map(g.__and__, path))


def _adjoin_above(base: set[int], g: int) -> set[int]:
    """The opens of the closure of the opens ``base`` and g when every cut
    b & g is open or g: the opens together with the unions a | g."""
    return base.union([a | g for a in base])


def enumerate_topologies_by_closure(n: int) -> tuple[FiniteTopology, ...]:
    """Independent cross-check of the catalog: Close-by-One over the closure
    operator "smallest topology containing these point sets", with the point
    sets 1 .. full-1 as generators in int order.

    From a topology T reached by adjoining generator ``last``, each larger
    generator g not yet open gives the child closure {a | (b & g) : a, b in T},
    which is kept only if it adds no open below g.  Every topology is then
    reached exactly once, from the antidiscrete one, so no seen-set is needed
    (Kuznetsov 1993; Ganter, LNCS 5986, 2010).  A kept child adds only the
    unions a | g to T, so every open of T is ``full`` or a union of T's path
    generators (adjoined to reach T), each at most ``last``.

    The test reads only the path generators (:func:`_path_fails`): T fails at
    g iff some p & g is not open.  A cut b & g with b a union of path
    generators p is the union of the p & g, so it is open when they all are;
    the full set's cut is g.  And p & g is never g, since p <= ``last`` < g,
    so an open p whose cut p & g is not open gives a new open below g.  If
    every cut is open or g, the closure is T together with the unions a | g,
    each of them at least g, and that is the child (:func:`_adjoin_above`).
    A failing closure is never built.

    A failed test records g, and each descendant D that reaches g skips it
    untested (FCbO: Outrata & Vychodil, Inf. Sci. 185, 2012).  D contains T,
    so each new cut of T is a cut of D, and D fails at g unless it holds them
    all.  It holds none.  Suppose D held a new cut c = b & g of T, with b a
    union of path generators p.  Each p & g = p & c is then in D.  Their
    union c is not open in T, so some p & g is not open in T either.  It is
    a proper subset of p, so it is less than p, which is at most ``last``.
    Every open that D adds to T contains a generator greater than ``last``,
    so it is greater than ``last``.  So p & g is not in D, a contradiction.
    The stack is explicit because the depth reaches 2^n - 2.  Each result
    is recorded as the bitset of its opens, and all are decided together by
    the batch check of :func:`computed_topologies`.  Sorted like the
    catalog."""
    check_ground(n)
    full = full_mask(n)
    start = set(antidiscrete_topology(n).opens)
    found = [family_bitset(start)]      # each topology's open family as a bitset
    stack = [(start, (), frozenset())]
    while stack:
        base, path, skip = stack.pop()
        failed = set(skip)     # holds for every descendant: they contain base
        for g in filterfalse(base.__contains__, range(path[-1] + 1 if path else 1, full)):
            if g in skip:
                continue
            if _path_fails(path, base, g):
                failed.add(g)
            else:
                child = _adjoin_above(base, g)
                found.append(family_bitset(child))
                # the children share failed, complete before any is popped
                stack.append((child, path + (g,), failed))
    return tuple(sorted(computed_topologies(n, found), key=attrgetter("opens")))


def enumerate_topologies_via_preorders(n: int) -> tuple[FiniteTopology, ...]:
    """The topologies of the production catalog, sorted: the orbits of the
    size-sorted preorders of :func:`_preorders`, transported through the
    bijection."""
    return enumerate_topologies(n).topologies


class TopologyCatalog:
    """All topologies on n points, of which nothing is built up front.

    ``len()`` and ``orbit_count`` read the orbit sizes of :func:`cover_graph`,
    which builds no member.  ``orbits`` maps each orbit's representative, its
    least member, to the orbit, in increasing order of representative; it is
    built on its first read (:func:`_orbit_map`), by ``classify``, the suites
    and ``enum --format json``.  ``topologies``, every member in increasing
    order, is sorted from the orbits on each access; only ``enum --format
    json`` and the enum and fact12 suites read it."""

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def orbits(self) -> dict[FiniteTopology, tuple[FiniteTopology, ...]]:
        return _orbit_map(self.n)

    @cached_property
    def _sizes(self) -> list[int]:
        return cover_graph(self.n)[1]

    def __len__(self) -> int:
        return sum(self._sizes)

    @property
    def orbit_count(self) -> int:
        return len(self._sizes)

    @property
    def topologies(self) -> tuple[FiniteTopology, ...]:
        return tuple(sorted(chain.from_iterable(self.orbits.values())))


def _orbit_map(n: int) -> dict[FiniteTopology, tuple[FiniteTopology, ...]]:
    """The orbits of the topologies on n points, keyed by representative.

    Each size-sorted preorder (:func:`_preorders`) whose opens lie in no orbit
    built so far expands its orbit once, as the bitsets of its permutation
    images (:func:`orbit_opens`).  An orbit that meets one already built is a
    program fault.  The members of all orbits are then decided together, by
    the batch check of :func:`computed_topologies`, so each member is checked
    exactly once."""
    seen: set[int] = set()
    orbits = []
    powers = power_tables(n)
    for rows in _preorders(n):
        opens = _up_opens(rows)
        if family_bitset(opens) in seen:
            continue
        images = orbit_opens(opens, powers)
        if not seen.isdisjoint(images):
            raise AssertionError(f"the orbit of opens {list(opens)} meets an orbit "
                                 f"already built")
        seen |= images
        orbits.append(images)
    members = iter(computed_topologies(n, chain.from_iterable(orbits)))
    # each orbit sorted, then keyed by representative: distinct orbits have
    # distinct least members
    built = sorted(tuple(sorted(islice(members, len(images)), key=attrgetter("opens")))
                   for images in orbits)
    return {orbit[0]: orbit for orbit in built}


def enumerate_topologies(n: int) -> TopologyCatalog:
    """Catalog of all topologies on n points, its orbits built on first read.
    The ground size is checked here, before any permutation table is built."""
    check_ground(n)
    return TopologyCatalog(n)


@lru_cache(maxsize=None)
def catalog(n: int) -> TopologyCatalog:
    """Cached catalog shared by all verification suites."""
    return enumerate_topologies(n)
