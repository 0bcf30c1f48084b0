import os
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from operator import itemgetter

import pytest

from revtop.descriptors import Z_FIRST, AllZ, ClosedLeftZ, EmptyZ, OpenLeftZ
from revtop.enumeration import _bits, catalog
from revtop.order import CondOrderDigraph, _covers
from revtop.ramsey import (
    KIND_CONSTANT,
    KIND_INJECTIVE,
    KIND_NON_INCREASING,
    KIND_STRICTLY_INCREASING,
    HomogeneousResult,
    _checked,
    _longest_run,
)
from revtop.topology import (
    FiniteTopology,
    adjoin_open,
    MissingEmptyError,
    MissingFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    full_mask,
    mask_tables,
    opens_bitset,
    orbit_opens,
)

RUN_N6 = os.environ.get("REVTOP_N6", "") not in ("", "0")

needs_n6 = pytest.mark.skipif(
    not RUN_N6, reason="n=6 checks are gated behind REVTOP_N6=1")

RUN_N7 = os.environ.get("REVTOP_N7", "") not in ("", "0")

needs_n7 = pytest.mark.skipif(
    not RUN_N7, reason="n=7 checks are gated behind REVTOP_N7=1")

RUN_N8 = os.environ.get("REVTOP_N8", "") not in ("", "0")

needs_n8 = pytest.mark.skipif(
    not RUN_N8, reason="n=8 checks are gated behind REVTOP_N8=1")


def closure_fault(n: int, ops: tuple[int, ...]):
    """The definition of a topology, checked pair by pair on a strictly
    sorted family of point sets on n points: None when the family holds the
    empty and full sets and is closed under union and intersection, else the
    error class the constructor must raise and its witness, the first pair
    whose union or intersection is missing (None for a missing empty or full
    set)."""
    if not ops or ops[0] != 0:
        return MissingEmptyError, None
    if ops[-1] != full_mask(n):
        return MissingFullError, None
    present = set(ops)
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if a | b not in present:
                return NotClosedUnderUnionError, (a, b)
            if a & b not in present:
                return NotClosedUnderIntersectionError, (a, b)
    return None


def brute_force_topologies(n: int) -> list[FiniteTopology]:
    """Oracle enumerator: filter every family of subsets containing the empty
    and full sets through the pairwise closure definition.  Exponential in
    2^n, so only usable for n <= 4."""
    full = full_mask(n)
    nontrivial = [m for m in range(1, full)]
    out = []
    for r in range(len(nontrivial) + 1):
        for extra in combinations(nontrivial, r):
            ops = tuple(sorted({0, full, *extra}))
            if closure_fault(n, ops) is None:
                out.append(FiniteTopology(n, ops))
    return sorted(out)


@lru_cache(maxsize=None)
def brute_force_preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """Oracle for the preorders: the up-set rows of every reflexive transitive
    relation on n points, sorted, found by testing every tuple of rows that
    holds the diagonal (16^5 of them at n = 5).  Built once per session."""
    candidates = [[m for m in range(1 << n) if m >> i & 1] for i in range(n)]

    def transitive(rows):
        return all(rows[j] | row == row
                   for row in rows for j in range(n) if row >> j & 1)

    return tuple(rows for rows in product(*candidates) if transitive(rows))


def all_preorders(n: int):
    """Oracle for the catalog's preorder search: (up-set rows, opens) of every
    preorder on n points, rows in increasing order, 209,527 of them at n = 6.
    A depth-first search gives point i each up-set containing i that is
    consistent with the rows already fixed: i plus a subset of the
    intersection ``cap`` of the earlier rows holding i, holding the row of
    every earlier point inside it.  It carries the union closure of the rows
    fixed so far, the opens of the up-set topology, and extends it by each
    new row."""
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
            if all(rows[j] | m == m for j in range(i) if m >> j & 1):
                rows[i] = m
                yield from extend(i + 1, opens | {o | m for o in opens})
            sub = (sub - rest) & rest       # the next subset of rest
            if not sub:
                return

    return extend(0, {0})


def transported_catalog(n: int):
    """Oracle for the catalog: every preorder of :func:`all_preorders`
    transported through the bijection, sorted, then partitioned by the orbit
    images of each member no orbit holds yet.  Returns the topologies, the
    orbit representatives (least members) and the orbits keyed by them, in
    the order the catalog keeps."""
    topologies = tuple(sorted(FiniteTopology(n, tuple(sorted(opens)))
                              for _, opens in all_preorders(n)))
    orbits = {}
    claimed = set()
    for t in topologies:
        if t not in claimed:
            members = tuple(FiniteTopology(n, o) for o in orbit_opens(n, t.opens))
            claimed.update(members)
            orbits[members[0]] = members
    return topologies, tuple(orbits), orbits


def labelled_order(n: int) -> CondOrderDigraph:
    """Oracle for the condensational order, on the labelled catalog: orbit i
    is below orbit j iff j is reachable by adjoining one point set at a time.
    Every topology finer than rep i is reached from it by adjoining its extra
    opens one at a time, and relabelling commutes with adjoin_open, so the
    order is the reflexive-transitive closure of i -> orbit of
    ``adjoin_open(rep i, g)`` over the point sets g not open in rep i.  Each
    child has more opens, so one pass over the representatives in decreasing
    open count ORs in the finished rows of the children."""
    cat = catalog(n)
    reps = tuple(cat.orbits)
    orbit_of = {u.opens: i for i, orbit in enumerate(cat.orbits.values()) for u in orbit}
    up = [0] * len(reps)
    for i in sorted(range(len(reps)), key=lambda i: -len(reps[i].opens)):
        opens = reps[i].opens
        present = set(opens)
        row = 1 << i
        for g in range(1, full_mask(n)):
            if g not in present:
                row |= up[orbit_of[adjoin_open(opens, g)]]
        up[i] = row
    up = tuple(up)
    hasse = tuple((i, j) for i, row in enumerate(_covers(up)) for j in _bits(row))
    return CondOrderDigraph(n, reps, tuple(map(len, cat.orbits.values())), up, hasse)


def brute_force_canonical_form(t: FiniteTopology) -> FiniteTopology:
    """Oracle for the least image: the minimum of the sorted images of the
    opens under all n! permutation tables.  The leading 0 of each image (the
    image of the empty set) keeps itemgetter's result a tuple when there is
    one open, and is cut off the least."""
    images = itemgetter(0, *t.opens)
    return FiniteTopology(t.n, tuple(min(map(sorted, map(images, mask_tables(t.n)))))[1:])


def reference_canonical_preorder(up):
    """Oracle for :func:`revtop.enumeration.canonical_preorder`: the same
    individualisation-refinement written plainly, every count recomputed
    from the rows bit by bit and every cell regrouped, so that a faster
    production loop must give the same (key, labelling, aut_count)."""
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
        classes = {}
        for v in cells[i]:
            classes.setdefault(twin[v], []).append(v)
        for v, *others in classes.values():
            rest = [u for u in cells[i] if u != v]
            yield from leaves(cells[:i] + [[v], rest] + cells[i + 1:],
                              weight * (1 + len(others)))

    found = sorted(leaves([list(range(k))], 1))    # with k = 0 the empty cell refines away
    key, labelling, _ = found[0]
    return key, labelling, sum(weight for leaf, _, weight in found if leaf == key)


def isomorphic_rows(a, b) -> bool:
    """Oracle for isomorphism of two relations given as up-set rows (bit j of
    a[i] set iff i <= j): try all k! bijections f for one with i <= j in a
    iff f[i] <= f[j] in b.  Only usable for k <= 7 or so."""
    k = len(a)
    return len(b) == k and any(
        all((a[i] >> j & 1) == (b[f[i]] >> f[j] & 1) for i in range(k) for j in range(k))
        for f in permutations(range(k)))


def relabelled_rows(up, labelling) -> tuple[int, ...]:
    """The up-set rows up carried by a labelling (point i goes to position
    labelling[i]), in position order."""
    rows = [0] * len(up)
    for i, row in enumerate(up):
        rows[labelling[i]] = sum(1 << labelling[j] for j in range(len(up)) if row >> j & 1)
    return tuple(rows)


def inclusion_rows(family) -> list[int]:
    """Up-set rows of a family of distinct topologies ordered by inclusion of
    their open families: bit j of row i set iff every open of family[i] is
    open in family[j]."""
    bits = [opens_bitset(t) for t in family]
    return [sum(1 << j for j, b in enumerate(bits) if a & b == a) for a in bits]


def topology_of_preorder(up) -> FiniteTopology:
    """Oracle for the up-set (Alexandrov) topology of the preorder with up-set
    rows up: test every one of the 2^n point sets for being up-closed."""
    n = len(up)
    full = full_mask(n)
    opens = []
    for m in range(full + 1):
        rest = m
        while rest:
            i = (rest & -rest).bit_length() - 1
            if up[i] | m != m:
                break
            rest &= rest - 1
        else:
            opens.append(m)
    return FiniteTopology(n, tuple(opens))


def z_points(d, window) -> frozenset:
    """Oracle for a z-line shape: its points in a window of the line, by the
    definition of each shape."""
    if isinstance(d, EmptyZ):
        return frozenset()
    if isinstance(d, AllZ):
        return frozenset(window)
    if isinstance(d, ClosedLeftZ):
        return frozenset(p for p in window if p is Z_FIRST or p < d.a)
    if isinstance(d, OpenLeftZ):
        return frozenset(p for p in window if p is not Z_FIRST and p < d.b)
    raise AssertionError(d)


def reference_verify_result(values, result: HomogeneousResult) -> bool:
    """Oracle for :func:`revtop.ramsey.verify_result`: each check written as
    a plain loop over the claimed indices and the values they pick."""
    idx = result.indices
    if not idx or any(b <= a for a, b in zip(idx, idx[1:])):
        return False
    if idx[0] < 0 or idx[-1] >= len(values):
        return False
    picked = [values[i] for i in idx]
    if result.kind == KIND_CONSTANT:
        return all(v == result.value for v in picked)
    if result.kind == KIND_STRICTLY_INCREASING:
        return all(a < b for a, b in zip(picked, picked[1:]))
    if result.kind == KIND_INJECTIVE:
        return len(set(picked)) == len(picked)
    if result.kind == KIND_NON_INCREASING:
        return all(a >= b for a, b in zip(picked, picked[1:]))
    return False


def reference_constant_or_rainbow(values, threshold: int | None = None) -> HomogeneousResult:
    """Oracle for :func:`revtop.ramsey._constant_or_rainbow`: every value
    counted, then the first positions taken by one pass with a seen set."""
    counts = Counter(values)
    top = max(counts.values())
    if top >= (len(counts) + 1 if threshold is None else threshold):
        value = min(v for v in counts if counts[v] == top)
        picked = tuple(i for i, v in enumerate(values) if v == value)
        return HomogeneousResult(picked, KIND_CONSTANT, value)
    seen: set[int] = set()
    first = []
    for i, v in enumerate(values):
        if v not in seen:
            seen.add(v)
            first.append(i)
    return HomogeneousResult(tuple(first), KIND_INJECTIVE)


def reference_constant_or_increasing(stream, target: int, fuel: int):
    """Oracle for :func:`revtop.ramsey.constant_or_increasing`: a reader that
    takes one value at a time, stops as soon as a value occurs target times
    (checked first) or the increasing run reaches target, and so reads no
    value past the one that decides."""
    if target < 1:
        raise ValueError("target size must be positive")
    if fuel < target:
        raise ValueError("fuel must be at least the target size")
    values: list = []
    counts: dict[int, int] = {}

    def unrepeated():
        """The values read, until one of them occurs target times."""
        for v in islice(stream, fuel):
            values.append(v)
            counts[v] = seen = counts.get(v, 0) + 1
            if seen == target:
                return
            yield v

    run = _longest_run(unrepeated(), bisect_left, target)
    if values and counts[values[-1]] == target:    # reading stopped on a repeat
        value = values[-1]
        picked = tuple(i for i, v in enumerate(values) if v == value)
        result = HomogeneousResult(picked, KIND_CONSTANT, value)
    elif len(run) == target:
        result = HomogeneousResult(tuple(run), KIND_STRICTLY_INCREASING)
    else:
        return None
    return _checked(values, result, "stream witness")


@pytest.fixture(scope="session")
def cat2():
    return catalog(2)


@pytest.fixture(scope="session")
def cat3():
    return catalog(3)


@pytest.fixture(scope="session")
def cat4():
    return catalog(4)
