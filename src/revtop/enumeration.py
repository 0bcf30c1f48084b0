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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .topology import (
    FiniteTopology,
    TopologyError,
    adjoin_open,
    antidiscrete_topology,
    check_ground,
    full_mask,
    opens_bitset,
    orbit_opens,
)


@dataclass(frozen=True)
class Preorder:
    """A reflexive transitive relation, stored as up-set rows.

    up[i] is the bit set {j : i <= j}.  The specialization direction is
    fixed project-wide: x <= y iff every open set containing x contains y.
    """

    n: int
    up: tuple[int, ...]

    def __post_init__(self):
        if len(self.up) != self.n:
            raise TopologyError("row count must equal ground size")
        full = full_mask(self.n)
        for i, row in enumerate(self.up):
            if not 0 <= row <= full:
                raise TopologyError(f"row {i} out of range")
            if not row >> i & 1:
                raise TopologyError(f"relation not reflexive at {i}")
        for i in range(self.n):
            row = self.up[i]
            for j in range(self.n):
                if row >> j & 1 and self.up[j] | row != row:
                    raise TopologyError(f"relation not transitive via {i} <= {j}")


def _preorder_rows(n: int):
    """The up-set row tuples of all preorders on n points, in increasing
    order: a depth-first search that gives point i each up-set containing i
    that is consistent with the rows already fixed."""
    check_ground(n)
    candidates = [[m for m in range(1 << n) if m >> i & 1] for i in range(n)]
    rows = [0] * n

    def extend(i: int):
        if i == n:
            yield tuple(rows)
            return
        for m in candidates[i]:
            for j in range(i):
                rj = rows[j]
                if m >> j & 1 and rj | m != m:      # i <= j forces up[j] subset of up[i]
                    break
                if rj >> i & 1 and m | rj != rj:    # j <= i forces up[i] subset of up[j]
                    break
            else:
                rows[i] = m
                yield from extend(i + 1)

    return extend(0)


def enumerate_preorders(n: int) -> tuple[Preorder, ...]:
    """All preorders on n points, sorted by their up-set rows."""
    return tuple(Preorder(n, rows) for rows in _preorder_rows(n))


def _up_opens(up) -> tuple[int, ...]:
    """The opens of the up-set (Alexandrov) topology of a preorder given by
    its up-set rows: every union of principal up-sets, sorted."""
    opens = {0}
    for row in up:
        opens |= {o | row for o in opens}
    return tuple(sorted(opens))


def preorder_of_topology(t: FiniteTopology) -> Preorder:
    """Specialization preorder: row i is the least open set containing i."""
    rows = []
    full = t.full
    for i in range(t.n):
        acc = full
        bit = 1 << i
        for o in t.opens:
            if o & bit:
                acc &= o
        rows.append(acc)
    return Preorder(t.n, tuple(rows))


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
    return tuple(FiniteTopology(n, o) for o in sorted(found))


def enumerate_topologies_via_preorders(n: int) -> tuple[FiniteTopology, ...]:
    """Every preorder transported through the bijection, sorted: the
    topologies of the production catalog.  The open families are sorted as
    tuples, before any value is built."""
    return tuple(FiniteTopology(n, o) for o in sorted(map(_up_opens, _preorder_rows(n))))


@dataclass(frozen=True)
class TopologyCatalog:
    """All topologies on n points plus their homeomorphism-orbit partition."""

    n: int
    topologies: tuple[FiniteTopology, ...]
    orbit_reps: tuple[FiniteTopology, ...]
    orbits: dict[FiniteTopology, tuple[FiniteTopology, ...]] = field(repr=False)

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
    so no topology is built twice."""
    topologies = enumerate_topologies_via_preorders(n)
    orbits: dict[FiniteTopology, tuple[FiniteTopology, ...]] = {}
    unseen = {t.opens: t for t in topologies}
    for t in topologies:
        if t.opens in unseen:
            members = tuple(unseen.pop(o) for o in orbit_opens(t))
            orbits[members[0]] = members
    reps = tuple(sorted(orbits))
    return TopologyCatalog(n, topologies, reps, orbits)


@lru_cache(maxsize=None)
def catalog(n: int) -> TopologyCatalog:
    """Cached catalog shared by all verification suites."""
    return enumerate_topologies(n)
