"""Exhaustive enumeration of all topologies on n points, two independent ways.

The production catalog is built orbit by orbit through the specialization
bijection: the opens of a preorder's up-set (Alexandrov) topology are all
unions of its principal up-sets, so they are built by union-closing the n
up-set rows rather than by testing all 2^n point sets.  Only the preorders
whose up-set sizes do not grow with the point are walked, one or more per
orbit (286 of 6942 at n = 5), and each new orbit is expanded once through
the permutation tables, the idea of counting by one representative per
orbit (Brinkmann & McKay, J. Integer Sequences 8, 2005).
The cross-check is closure enumeration, which builds each topology once,
from the antidiscrete one, by adjoining point sets in increasing order and
closing: Close-by-One (Kuznetsov 1993) with the failure inheritance of FCbO
(Outrata & Vychodil, Inf. Sci. 185, 2012).  The canonicity test of a point
set g reads only the cuts b & g of the opens, so a failing closure is never
built, and FCbO records the set of generators that failed: each fails again
in every descendant that reaches it.  It reads neither preorders nor the
catalog.  Both must produce identical catalogs (1, 1, 4, 29, 355, 6942,
209527 for n = 0..6, OEIS A000798).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, filterfalse

from .topology import (
    FiniteTopology,
    antidiscrete_topology,
    check_ground,
    computed_topologies,
    full_mask,
    orbit_opens,
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
    Swapping twins (points whose swap fixes every row) is an automorphism
    fixing the node, so a twin class takes one branch, weighted by its size."""
    k = len(up)
    down = [sum(1 << i for i in range(k) if up[i] >> j & 1) for j in range(k)]
    # the least twin of each point: equal rows, or equal strict rows
    same, strict = {}, {}
    twin = [min(same.setdefault((up[v], down[v]), v),
                strict.setdefault((up[v] ^ 1 << v, down[v] ^ 1 << v), v)) for v in range(k)]

    def refine(cells):
        while True:
            masks = [sum(1 << v for v in c) for c in cells]
            out = []
            for c in cells:
                if len(c) == 1:
                    out.append(c)
                    continue
                groups = {}
                for v in c:
                    sig = (tuple(map(int.bit_count, map(up[v].__and__, masks))),
                           tuple(map(int.bit_count, map(down[v].__and__, masks))))
                    groups.setdefault(sig, []).append(v)
                out.extend(groups[sig] for sig in sorted(groups))
            if len(out) == len(cells):
                return cells
            cells = out

    def leaves(cells, weight):
        cells = refine(cells)
        i = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if i is None:
            order = [v for v, in cells]
            labelling = tuple(sorted(range(k), key=order.__getitem__))   # order's inverse
            yield (tuple(sum(1 << labelling[j] for j in range(k) if up[v] >> j & 1)
                         for v in order), labelling, weight)
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


def _adds_below(opens, base: set[int], g: int) -> bool:
    """Whether the canonicity test fails: some cut b & g of the opens is
    neither open nor g, a new open below g.  Stops at the first such cut."""
    return not base.issuperset(filter(g.__ne__, map(g.__and__, opens)))


def _adjoin_above(opens, base: set[int], g: int) -> set[int]:
    """The opens of the closure of the opens and g when every cut b & g is
    open or g: the opens together with the unions a | g."""
    return base.union([a | g for a in opens])


def enumerate_topologies_by_closure(n: int) -> tuple[FiniteTopology, ...]:
    """Independent cross-check of the catalog: Close-by-One over the closure
    operator "smallest topology containing these point sets", with the point
    sets 1 .. full-1 as generators in int order.

    From a topology T reached by adjoining generator ``last``, each larger
    generator g not yet open gives the child closure {a | (b & g) : a, b in T},
    which is kept only if it adds no open below g.  Every topology is then
    reached exactly once, from the antidiscrete one, so no seen-set is needed
    (Kuznetsov 1993; Ganter, LNCS 5986, 2010).  The test is linear in |T|
    (:func:`_adds_below`): a cut b & g that is neither open nor g is a proper
    subset of g, so a new open below g; if every cut is open or g, the
    closure is T together with the unions a | g, each of them at least g, and
    that is the child (:func:`_adjoin_above`).  A failing closure is never
    built.

    A failed test records g, and each descendant D that reaches g skips it
    untested (FCbO: Outrata & Vychodil, Inf. Sci. 185, 2012).  D contains T,
    so each new cut of T is a cut of D, and D fails at g unless it holds them
    all.  It holds none.  Every open of T is ``full`` or a union of T's path
    generators (adjoined to reach T), each at most ``last``.  Suppose D held
    a new cut c = b & g of T, with b a union of path generators p.  Each
    p & g = p & c is then in D.  Their union c is not open in T, so some
    p & g is not open in T either.  It is a proper subset of p, so it is less
    than p, which is at most ``last``.  Every open that D adds to T contains
    a generator greater than ``last``, so it is greater than ``last``.  So
    p & g is not in D, a contradiction.  The stack is explicit because the
    depth reaches 2^n - 2.  Sorted like the catalog."""
    check_ground(n)
    full = full_mask(n)
    start = antidiscrete_topology(n).opens
    found = [start]
    stack = [(start, set(start), 0, frozenset())]
    while stack:
        opens, base, last, skip = stack.pop()
        failed = set(skip)     # holds for every descendant: they contain opens
        for g in filterfalse(base.__contains__, range(last + 1, full)):
            if g in skip:
                continue
            if _adds_below(opens, base, g):
                failed.add(g)
            else:
                child = _adjoin_above(opens, base, g)
                found.append(tuple(sorted(child)))
                # the children share failed, complete before any is popped
                stack.append((found[-1], child, g, failed))
    return computed_topologies(n, sorted(found))


def enumerate_topologies_via_preorders(n: int) -> tuple[FiniteTopology, ...]:
    """The topologies of the production catalog, sorted: the orbits of the
    size-sorted preorders of :func:`_preorders`, transported through the
    bijection."""
    return enumerate_topologies(n).topologies


class TopologyCatalog:
    """All topologies on n points as their homeomorphism-orbit partition:
    ``orbits`` maps each orbit's representative, its least member, to the
    orbit, in increasing order of representative.  ``topologies``, every
    member in increasing order, is sorted from the orbits on each access; only
    ``enum --format json`` and the enum and fact12 suites read it."""

    def __init__(self, n: int, orbits: dict[FiniteTopology, tuple[FiniteTopology, ...]]):
        self.n = n
        self.orbits = orbits

    def __len__(self) -> int:
        return sum(map(len, self.orbits.values()))

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def topologies(self) -> tuple[FiniteTopology, ...]:
        return tuple(sorted(chain.from_iterable(self.orbits.values())))


def enumerate_topologies(n: int) -> TopologyCatalog:
    """Catalog of all topologies on n points, built orbit by orbit.

    Each size-sorted preorder (:func:`_preorders`) whose opens lie in no orbit
    built so far expands its orbit once, through the permutation tables
    (:func:`orbit_opens`), and the orbit's members are built through the
    validating constructor there, so each member is checked once.  An orbit
    that meets one already built is a program fault.  The ground size is
    checked before any permutation table is built."""
    check_ground(n)
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for rows in _preorders(n):
        opens = _up_opens(rows)
        if opens in seen:
            continue
        images = orbit_opens(n, opens)
        if not seen.isdisjoint(images):
            raise AssertionError(f"the orbit of opens {list(opens)} meets an orbit "
                                 f"already built")
        seen.update(images)
        orbits.append(computed_topologies(n, images))
    orbits.sort()       # by representative: distinct orbits have distinct least members
    return TopologyCatalog(n, {orbit[0]: orbit for orbit in orbits})


@lru_cache(maxsize=None)
def catalog(n: int) -> TopologyCatalog:
    """Cached catalog shared by all verification suites."""
    return enumerate_topologies(n)
