"""Exhaustive enumeration of all topologies on n points, two independent ways.

The production catalog walks all preorders and transports them through the
specialization bijection; the cross-check is Close-by-One closure
enumeration, which builds each topology once, from the antidiscrete one, by
adjoining point sets in increasing order and closing.  It reads neither
preorders nor the catalog.  Both must produce identical catalogs
(1, 1, 4, 29, 355, 6942 for n = 0..5).
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


def enumerate_preorders(n: int) -> tuple[Preorder, ...]:
    """All preorders on n points, sorted by their up-set rows."""
    check_ground(n)
    if n == 0:
        return (Preorder(0, ()),)
    size = 1 << n
    candidates = [[m for m in range(size) if m >> i & 1] for i in range(n)]
    rows = [0] * n
    out: list[tuple[int, ...]] = []

    def extend(i: int):
        if i == n:
            out.append(tuple(rows))
            return
        for m in candidates[i]:
            ok = True
            for j in range(i):
                rj = rows[j]
                if m >> j & 1 and rj | m != m:      # i <= j forces up[j] subset of up[i]
                    ok = False
                    break
                if rj >> i & 1 and m | rj != rj:    # j <= i forces up[i] subset of up[j]
                    ok = False
                    break
            if ok:
                rows[i] = m
                extend(i + 1)
        rows[i] = 0

    extend(0)
    out.sort()
    return tuple(Preorder(n, rows) for rows in out)


def topology_of_preorder(p: Preorder) -> FiniteTopology:
    """The up-set (Alexandrov) topology: opens are the up-closed point sets."""
    full = full_mask(p.n)
    opens = []
    for m in range(full + 1):
        rest = m
        ok = True
        while rest:
            i = (rest & -rest).bit_length() - 1
            if p.up[i] | m != m:
                ok = False
                break
            rest &= rest - 1
        if ok:
            opens.append(m)
    return FiniteTopology(p.n, tuple(opens))


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
    (Kuznetsov 1993; Ganter, LNCS 5986, 2010).  The stack is explicit
    because the depth reaches 2^n - 2.  Sorted like the catalog."""
    check_ground(n)
    full = full_mask(n)
    start = antidiscrete_topology(n).opens
    found = [start]
    stack = [(start, 0)]
    while stack:
        opens, last = stack.pop()
        base = set(opens)
        for g in range(last + 1, full):
            if g in base:
                continue
            child = adjoin_open(opens, g)
            # child contains opens, so equal counts below g mean equal sets
            if bisect_left(child, g) == bisect_left(opens, g):
                found.append(child)
                stack.append((child, g))
    return tuple(FiniteTopology(n, o) for o in sorted(found))


def enumerate_topologies_via_preorders(n: int) -> tuple[FiniteTopology, ...]:
    """Every preorder transported through the bijection, sorted: the
    topologies of the production catalog."""
    tops = sorted(topology_of_preorder(p) for p in enumerate_preorders(n))
    return tuple(tops)


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
