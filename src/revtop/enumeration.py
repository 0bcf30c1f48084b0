"""Exhaustive enumeration of all topologies on n points, two independent ways.

The production catalog walks all preorders and transports them through the
specialization bijection: the opens of a preorder's up-set (Alexandrov)
topology are all unions of its principal up-sets, so they are built by
union-closing the n up-set rows rather than by testing all 2^n point sets.
The cross-check is closure enumeration, which builds each topology once,
from the antidiscrete one, by adjoining point sets in increasing order and
closing: Close-by-One (Kuznetsov 1993) with the failure inheritance of FCbO
(Outrata & Vychodil, Inf. Sci. 185, 2012), which skips a closure already
known to fail its canonicity test.  It reads neither preorders nor the
catalog.  Both must produce identical catalogs (1, 1, 4, 29, 355, 6942 for
n = 0..5, OEIS A000798).
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache

from .topology import (
    FiniteTopology,
    adjoin_open,
    antidiscrete_topology,
    check_ground,
    computed_topologies,
    full_mask,
    opens_bitset,
    orbit_opens,
)


def _preorders(n: int):
    """(up-set rows, opens) of every preorder on n points, rows in increasing
    order: a depth-first search that gives point i each up-set containing i
    that is consistent with the rows already fixed.  The opens of its up-set
    (Alexandrov) topology are all unions of the rows, so the search carries
    the union closure of the rows fixed so far and extends it by each new
    row; the closures of a shared prefix are built once.

    A row m for point i is consistent when it lies inside every earlier row
    that holds i (j <= i) and holds the row of every earlier point inside it
    (i <= j).  So the candidates are i plus the subsets of the intersection
    ``cap`` of those rows, walked in increasing order, and only the earlier
    points of m are checked."""
    check_ground(n)
    full = full_mask(n)
    rows = [0] * n

    def extend(i: int, opens: set[int]):
        if i == n:
            yield tuple(rows), opens
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
            below = m & (bit - 1)
            while below:
                low = below & -below
                if rows[low.bit_length() - 1] | m != m:
                    break
                below ^= low
            else:
                rows[i] = m
                yield from extend(i + 1, opens | {o | m for o in opens})
            sub = (sub - rest) & rest       # the next subset of rest
            if not sub:
                return

    return extend(0, {0})


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


def enumerate_topologies_by_closure(n: int) -> tuple[FiniteTopology, ...]:
    """Independent cross-check of the catalog: Close-by-One over the closure
    operator "smallest topology containing these point sets" (:func:`adjoin_open`),
    with the point sets 1 .. full-1 as generators in int order.

    From a topology reached by adjoining generator ``last``, each larger
    generator g not yet open gives the child ``adjoin_open(opens, g)``, which
    is kept only if it adds no open below g.  Every topology is then reached
    exactly once, from the antidiscrete one, so no seen-set is needed
    (Kuznetsov 1993; Ganter, LNCS 5986, 2010).  A failed test records the
    child's opens below g, and every descendant that lacks one of them skips
    g without closing: its child would hold that open too, since the closure
    is monotone (FCbO: Outrata & Vychodil, Inf. Sci. 185, 2012).  The stack
    is explicit because the depth reaches 2^n - 2.  Sorted like the catalog."""
    check_ground(n)
    full = full_mask(n)
    start = antidiscrete_topology(n).opens
    found = [start]
    stack = [(start, 0, {})]
    while stack:
        opens, last, inherited = stack.pop()
        base = set(opens)
        failed = dict(inherited)   # holds for every descendant: they contain opens
        children = []
        for g in range(last + 1, full):
            if g in base or not base.issuperset(inherited.get(g, ())):
                continue
            child = adjoin_open(opens, g)
            # child contains opens, so equal counts below g mean equal sets
            cut = bisect_left(child, g)
            if cut == bisect_left(opens, g):
                children.append((child, g))
            else:
                failed[g] = child[:cut]
        found.extend(child for child, _ in children)
        stack.extend((child, g, failed) for child, g in children)
    return computed_topologies(n, sorted(found))


def enumerate_topologies_via_preorders(n: int) -> tuple[FiniteTopology, ...]:
    """Every preorder transported through the bijection, sorted: the
    topologies of the production catalog.  The open families are sorted as
    tuples, before any value is built."""
    return computed_topologies(n, sorted(tuple(sorted(opens)) for _, opens in _preorders(n)))


class TopologyCatalog:
    """All topologies on n points plus their homeomorphism-orbit partition."""

    def __init__(self, n: int, topologies: tuple[FiniteTopology, ...],
                 orbit_reps: tuple[FiniteTopology, ...],
                 orbits: dict[FiniteTopology, tuple[FiniteTopology, ...]]):
        self.n = n
        self.topologies = topologies
        self.orbit_reps = orbit_reps
        self.orbits = orbits

    def __len__(self) -> int:
        return len(self.topologies)

    @property
    def orbit_count(self) -> int:
        return len(self.orbit_reps)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(self.orbits[r]) for r in self.orbit_reps)

    @cached_property
    def by_open_count(self) -> dict[int, tuple[tuple[int, ...], tuple[FiniteTopology, ...]]]:
        """Members grouped by their number of opens: for each count, the
        members' :func:`opens_bitset` values and the members in the same
        order.  Built once per catalog, for convex hulls."""
        groups: dict[int, tuple[list[int], list[FiniteTopology]]] = {}
        for t in self.topologies:
            bits, members = groups.setdefault(len(t.opens), ([], []))
            bits.append(opens_bitset(t))
            members.append(t)
        return {k: (tuple(bits), tuple(members)) for k, (bits, members) in groups.items()}


def enumerate_topologies(n: int) -> TopologyCatalog:
    """Catalog of all topologies on n points, built from the preorders.

    Each orbit lists the catalog's own values, found by their open families,
    so no topology is built twice; an orbit image that is not an unclaimed
    catalog member is a program fault."""
    topologies = enumerate_topologies_via_preorders(n)
    orbits: dict[FiniteTopology, tuple[FiniteTopology, ...]] = {}
    unseen = {t.opens: t for t in topologies}
    for t in topologies:
        if t.opens in unseen:
            try:
                members = tuple(map(unseen.pop, orbit_opens(t)))
            except KeyError as exc:
                raise AssertionError(f"an image of opens {list(t.opens)} is not an "
                                     f"unclaimed catalog member") from exc
            orbits[members[0]] = members
    reps = tuple(sorted(orbits))
    return TopologyCatalog(n, topologies, reps, orbits)


@lru_cache(maxsize=None)
def catalog(n: int) -> TopologyCatalog:
    """Cached catalog shared by all verification suites."""
    return enumerate_topologies(n)
