"""The condensational preorder on topologies and the reversibility hierarchy.

Homeomorphism classes, the four equivalent reversibility tests, the three
equivalent formulations of the condensational ordering, convex hulls and weak
reversibility, strong reversibility with its classification, and the
quotient order digraph.  The quotient order reads no labelled catalog: its
nodes are canonical preorder keys, one per orbit, and it is the reachability
of upper covers read from the keys' rows (:func:`cover_graph`).  The
reversibility tests read orbits from ``catalog(n)``.  A convex hull reads no
catalog: it walks up from its members by one-open adjoins.  The permutation
searches are the second route; two of them walk only the bijections that
preserve the specialization preorder.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from operator import attrgetter, itemgetter

from .enumeration import _bits, _up_opens, catalog, cover_graph
from .topology import (
    DimensionMismatchError,
    FiniteTopology,
    adjoin_open,
    antidiscrete_topology,
    canonical_form,
    computed_topologies,
    discrete_topology,
    homeo_class,
    image_opens,
    image_topology,
    mask_tables,
    opens_bitset,
    preimages_open,
    preorder_of_topology,
)

REVERSIBILITY_METHODS = ("no_coarser", "no_finer", "antichain", "direct")
LEQ_METHODS = ("coarsening_of_t2_side", "refinement_of_t1_side", "witness_map")


def _monotone_bijections(dom_up, cod_up):
    """Every bijection f (point i maps to f[i]) that preserves the preorders
    given by the up-set rows dom_up and cod_up (bit j of up[i] set iff
    i <= j): x <= y implies f[x] <= f[y].

    A depth-first search assigns f[0], f[1], ... to unused points.  A point v
    is refused as f[k] unless it lies below the images of the assigned points
    above k and above the images of the assigned points below k, and unless
    up(v) is at least as large as up(k), which f maps into it injectively.
    Every continuous map preserves the specialization preorder (Alexandroff
    1937), so no continuous bijection is skipped."""
    n = len(dom_up)
    # the points assigned before k that lie above k and below k, and the
    # points with room for up(k)
    above_k = [[x for x in range(k) if dom_up[k] >> x & 1] for k in range(n)]
    below_k = [[x for x in range(k) if dom_up[x] >> k & 1] for k in range(n)]
    fits = [sum(1 << v for v in range(n) if cod_up[v].bit_count() >= row.bit_count())
            for row in dom_up]
    f = [0] * n

    def extend(k: int, free: int):
        if k == n:
            yield tuple(f)
            return
        above = 0                   # the images that f[k] must lie below
        for x in above_k[k]:
            above |= 1 << f[x]
        allowed = free & fits[k]    # and the ones it must lie above
        for x in below_k[k]:
            allowed &= cod_up[f[x]]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            if cod_up[v] & above == above:
                f[k] = v
                yield from extend(k + 1, free ^ low)

    return extend(0, (1 << n) - 1)


def _homeo_class(t: FiniteTopology) -> tuple[FiniteTopology, ...]:
    """The homeomorphism class of t: its orbit in ``catalog(t.n)``, or the
    permutation images when t is not a representative."""
    return catalog(t.n).orbits.get(t) or homeo_class(t)


def is_reversible(t: FiniteTopology, method: str = "antichain") -> bool:
    """Is every continuous self-bijection of (X, t) a homeomorphism?

    All four methods are equivalent; each is implemented independently so
    they can be tested against one another.  The three that read the
    homeomorphism class need t.n within the point cap, for ``catalog(t.n)``.
    "direct" searches the self-bijections itself and reads neither the
    catalog nor the permutation tables: it prunes by a necessary condition,
    that a continuous map preserves the specialization preorder, and decides
    each complete candidate by the definition, its preimages of opens being
    open and its image family differing from t.
    """
    if method in ("no_coarser", "no_finer", "antichain"):
        cls = _homeo_class(t)
    if method == "no_coarser":
        t_set = frozenset(t.opens)
        return not any(u != t and t_set.issuperset(u.opens) for u in cls)
    if method == "no_finer":
        t_set = frozenset(t.opens)
        return not any(u != t and t_set.issubset(u.opens) for u in cls)
    if method == "antichain":
        # distinct nested families differ in open count, so only members of
        # different counts are compared; a repeated member is a nested pair
        groups: dict[int, set[int]] = {}
        for u in cls:
            groups.setdefault(len(u.opens), set()).add(opens_bitset(u))
        if sum(map(len, groups.values())) != len(cls):
            return False
        counts = sorted(groups)
        return not any(a & b == a for i, k in enumerate(counts) for m in counts[i + 1:]
                       for a in groups[k] for b in groups[m])
    if method == "direct":
        # a continuous self-bijection whose image family is not t itself
        opens = frozenset(t.opens)
        up = preorder_of_topology(t)
        return not any(preimages_open(f, opens, t.opens) and image_opens(f, t.opens) != t.opens
                       for f in _monotone_bijections(up, up))
    raise ValueError(f"unknown reversibility method {method!r}")


def condensational_leq(t1: FiniteTopology, t2: FiniteTopology,
                       method: str = "coarsening_of_t2_side") -> bool:
    """Does some homeomorphic copy of t1 fit inside t2?

    The three methods are equivalent formulations quantifying over
    permutations: a copy of t1 below t2, a copy of t2 above t1, or a
    continuous bijection from (X, t2) onto (X, t1).  The first two read the
    permutation tables.  "witness_map" reads neither them nor the catalog:
    it searches only the bijections that preserve the specialization
    preorders, a necessary condition for continuity, and decides each
    complete candidate by the definition, its preimages of t1's opens being
    open in t2.
    """
    if t1.n != t2.n:
        raise DimensionMismatchError("comparing topologies on different ground sets")
    if method not in LEQ_METHODS:
        raise ValueError(f"unknown ordering method {method!r}")
    # a copy of t1 has as many opens as t1, so it fits only if t2 has as many
    if len(t1.opens) > len(t2.opens):
        return False
    n = t1.n
    if method == "coarsening_of_t2_side":
        # images picks the images of t1's opens out of a permutation's table
        # (the leading 0 keeps its result a tuple when t1 has one open)
        into_t2 = frozenset(t2.opens).issuperset
        images = itemgetter(0, *t1.opens)
        return any(map(into_t2, map(images, mask_tables(n))))
    if method == "refinement_of_t1_side":
        covers_t1 = frozenset(t1.opens).issubset
        images = itemgetter(0, *t2.opens)
        return any(map(covers_t1, map(images, mask_tables(n))))
    # witness_map: a continuous bijection from (X, t2) onto (X, t1), whose
    # preimage map sends t1's opens into t2's; the empty and full sets pull
    # back to themselves
    dom, inner = frozenset(t2.opens), t1.opens[1:-1]
    return any(preimages_open(f, dom, inner) for f in _monotone_bijections(
        preorder_of_topology(t2), preorder_of_topology(t1)))


def _open_sizes(t: FiniteTopology) -> list[int]:
    return sorted(o.bit_count() for o in t.opens)


def sim_class(t: FiniteTopology) -> tuple[FiniteTopology, ...]:
    """All members u of ``catalog(t.n)`` with t <= u <= t in the
    condensational preorder, sorted.

    t <= u is invariant under relabelling u, so orbits are compared at their
    representatives, and t <= u <= t needs equal open counts (the copy of t is
    then all of u): only orbits with the open sizes of t are compared."""
    k, sizes = len(t.opens), _open_sizes(t)
    return tuple(sorted(u for rep, orbit in catalog(t.n).orbits.items()
                        if len(rep.opens) == k and _open_sizes(rep) == sizes
                        and condensational_leq(t, rep) and condensational_leq(rep, t)
                        for u in orbit))


def conv_hull(topologies) -> tuple[FiniteTopology, ...]:
    """Minimal convex superset in the inclusion lattice: everything that sits
    between two members (inclusive bounds).  Reads no catalog.

    Nested families differ in open count, so a family with one open count is
    an antichain and its own hull; every orbit is one.  Otherwise the hull is
    walked up from the members: from each hull member u, adjoin each point
    set g open in some member b above u (:func:`adjoin_open`).  The result
    lies below b, since b is a topology holding u and g, so it is in the
    hull.  The walk is exact: every u between members a and b is reached
    from a by adjoining u's extra opens one at a time, and each step stays
    below u, hence below b.  Each hull member is compared with every member
    and tries up to 2^n point sets, so a hull spanning the whole lattice at
    n = 5 takes seconds; every hull a command computes is of one orbit.
    """
    tops = set(topologies)
    if not tops:
        return ()
    if len({t.n for t in tops}) > 1:
        raise DimensionMismatchError("family mixes topologies on different ground sets")
    if len({len(t.opens) for t in tops}) > 1:
        members = {t.opens for t in tops}
        family = [opens_bitset(t) for t in tops]
        found = set(members)
        todo = list(members)
        while todo:
            opens = todo.pop()
            bits = sum(map((1).__lshift__, opens))
            extra = 0       # the point sets open in a member above, not in opens
            for b in family:
                if b & bits == bits:
                    extra |= b & ~bits
            for g in _bits(extra):
                child = adjoin_open(opens, g)
                if child not in found:
                    found.add(child)
                    todo.append(child)
        tops.update(computed_topologies(next(iter(tops)).n, found - members))
    # one ground set, so the opens alone order the topologies
    return tuple(sorted(tops, key=attrgetter("opens")))


def is_weakly_reversible(t: FiniteTopology) -> bool:
    """True iff the homeomorphism class of t is convex in the inclusion lattice.
    The class comes from ``catalog(t.n)`` (CapExceededError above the cap): the
    first call at n = 6 builds it, about 1.3 s, against milliseconds for
    ``homeo_class(t)``.  At n = 7 it would hold 9,535,241 members, so of the
    finite commands only ``order`` and the ``enum`` summary, which read no
    catalog, reach n = 7."""
    cls = _homeo_class(t)
    return conv_hull(cls) == cls


def is_strongly_reversible(t: FiniteTopology) -> bool:
    """True iff every permutation fixes t; transpositions generate, so
    n*(n-1)/2 checks suffice."""
    for i in range(t.n):
        for j in range(i + 1, t.n):
            f = list(range(t.n))
            f[i], f[j] = j, i
            if image_topology(tuple(f), t) != t:
                return False
    return True


class StrongKind(Enum):
    DISCRETE = "discrete"
    ANTIDISCRETE = "antidiscrete"
    NOT_STRONGLY_REVERSIBLE = "not_strongly_reversible"


def classify_strongly_reversible(t: FiniteTopology) -> StrongKind:
    """Match t against the canonical strongly reversible shapes.

    On a finite ground set the complements-of-small-sets shape collapses
    into the discrete topology; it exists only on countable ground sets
    (see revtop.symbolic.CoSmall).
    """
    if t == discrete_topology(t.n):
        return StrongKind.DISCRETE
    if t == antidiscrete_topology(t.n):
        return StrongKind.ANTIDISCRETE
    return StrongKind.NOT_STRONGLY_REVERSIBLE


def _covers(up) -> list[int]:
    """Transitive reduction of a partial order given by up-set rows (bit j of
    up[i] set iff i <= j): the covers of i are its strict up-set minus the
    strict up-sets of its members."""
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    covers = []
    for row in strict:
        above = 0
        for j in _bits(row):
            above |= strict[j]
        covers.append(row & ~above)
    return covers


class CondOrderDigraph(namedtuple("CondOrderDigraph",
                                  ("n", "nodes", "orbit_sizes", "up", "hasse"))):
    """The condensational order on equivalence classes of topologies.

    Nodes are the orbits' least members, in increasing order: every finite
    space is reversible, so each equivalence class is a single homeomorphism
    orbit.  up holds the induced partial order as up-set rows (bit j of up[i]
    set iff node i <= node j) and hasse its transitive reduction.
    """

    __slots__ = ()

    def to_dot(self) -> str:
        lines = ["digraph condensational_order {"]
        for i, node in enumerate(self.nodes):
            label = f"orbit={self.orbit_sizes[i]} opens={len(node.opens)}"
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in self.hasse:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def json_chunks(self):
        """The JSON object with keys hasse, leq (the 0/1 matrix of up), n and
        nodes (opens and orbit_size of each), as ``json.dumps`` writes it with
        sorted keys and no spaces, plus a newline.  It comes in pieces, one
        per row of leq, so the matrix (4535 by 4535 at n = 7) is never held
        as one string."""
        k = len(self.nodes)
        yield ('{"hasse":[' + ",".join(f"[{i},{j}]" for i, j in self.hasse)
               + '],"leq":[')
        for i, row in enumerate(self.up):
            # bit j of the row is character k-1-j of its binary numeral
            yield ("," if i else "") + "[" + ",".join(format(row, f"0{k}b")[::-1]) + "]"
        yield f'],"n":{self.n},"nodes":[' + ",".join(
            f'{{"opens":[{",".join(map(str, t.opens))}],"orbit_size":{s}}}'
            for t, s in zip(self.nodes, self.orbit_sizes)) + "]}\n"


def condensational_order(n: int) -> CondOrderDigraph:
    """The condensational order on the homeomorphism orbits of the topologies
    on n points, with Hasse edges: orbit i is below orbit j iff a member of i
    is coarser than a member of j.

    Every topology finer than t is reached from it by a chain of upper
    covers, and relabelling carries covers onto covers, so the order is the
    reflexive-transitive closure of :func:`cover_graph`.  Each cover has more
    opens than its parent (an AssertionError if not), so one pass over the
    orbits in decreasing open count ORs in the finished rows of the covers.
    The nodes are the orbits' least members (:func:`canonical_form`), sorted."""
    keys, sizes, covers = cover_graph(n)
    tops = computed_topologies(n, map(_up_opens, keys))
    for i, children in enumerate(covers):
        for c in children:
            if len(tops[c].opens) <= len(tops[i].opens):
                raise AssertionError(f"the cover {list(keys[c])} of the preorder "
                                     f"{list(keys[i])} has no more opens")
    forms = [canonical_form(t) for t in tops]
    order = sorted(range(len(keys)), key=forms.__getitem__)
    place = [0] * len(keys)
    for p, i in enumerate(order):
        place[i] = p
    up = [0] * len(keys)
    for i in sorted(range(len(keys)), key=lambda i: -len(tops[i].opens)):
        row = 1 << place[i]
        for c in covers[i]:
            row |= up[place[c]]
        up[place[i]] = row
    up = tuple(up)
    hasse = tuple((i, j) for i, row in enumerate(_covers(up)) for j in _bits(row))
    return CondOrderDigraph(n, tuple(forms[i] for i in order),
                            tuple(sizes[i] for i in order), up, hasse)
