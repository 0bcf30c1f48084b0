"""Homogeneous-subsequence extraction for pair colorings induced by sequences.

Two colorings of index pairs: `increasing_pairs` (value at the smaller index
below the value at the larger one) and `distinct_pairs` (values differ).
Extraction is an exact search, so the returned homogeneous set is a largest
one: for `increasing_pairs` the longer of the longest strictly increasing
and the longest non-increasing subsequence, for `distinct_pairs` the larger
of one index per distinct value and the positions of the most frequent
value.  Either way it has at least ceil(sqrt(N)) indices, which dominates
the documented floor(log2 N) bound.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from itertools import islice
from math import isqrt

COLORINGS = ("increasing_pairs", "distinct_pairs")

KIND_CONSTANT = "constant"
KIND_STRICTLY_INCREASING = "strictly_increasing"
KIND_INJECTIVE = "injective"
KIND_NON_INCREASING = "non_increasing"


class HomogeneousResult(namedtuple("HomogeneousResult", ("indices", "kind", "value"),
                                   defaults=(None,))):
    """A verified homogeneous index set (a tuple of ints) with its witnessed
    kind, and value, the repeated value for the constant kind (else None)."""

    __slots__ = ()

    def to_json(self) -> dict:
        data = {"indices": list(self.indices), "kind": self.kind}
        if self.value is not None:
            data["value"] = self.value
        return data


def verify_result(values, result: HomogeneousResult) -> bool:
    """Independent re-check of a claimed homogeneous set against the sequence."""
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


def _checked(values, result: HomogeneousResult, what: str) -> HomogeneousResult:
    """result, after verify_result re-checks it; the AssertionError survives
    python -O."""
    if not verify_result(values, result):
        raise AssertionError(f"{what} fails verification: {result}")
    return result


def sqrt_bound(n: int) -> int:
    """ceil(sqrt(n)), the guaranteed homogeneous size for length-n inputs."""
    root = isqrt(n)
    return root if root * root == n else root + 1


def _longest_run(values, find, stop: int = 0) -> list[int]:
    """Indices of a longest run found by patience sorting: strictly
    increasing with ``bisect_left``, non-decreasing with ``bisect_right``.

    values may be any iterable.  With stop > 0 reading ends as soon as a run
    has stop values, and that run is returned: from the end back, the last
    index at each level (a best run's length there, less one)."""
    tails: list = []               # value at the end of the best run per length
    levels: list[int] = []
    top = 0
    for v in values:
        pos = find(tails, v)
        levels.append(pos)
        if pos == top:
            tails.append(v)
            top += 1
            if top == stop:
                break
        else:
            tails[pos] = v
    levels.reverse()               # latest value first
    out = []
    j = 0
    for level in range(top - 1, -1, -1):
        j = levels.index(level, j)
        out.append(len(levels) - 1 - j)
    return out[::-1]


def _constant_or_rainbow(values, threshold: int | None = None) -> HomogeneousResult:
    """One of the two homogeneous sets of the distinct coloring: the positions
    of the least most frequent value (constant), or the first position of
    each value (injective).  The constant set is taken when its size reaches
    threshold, by default when it is larger than the injective one; only the
    set taken is built."""
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


def homogeneous_pairs(values, coloring: str = "increasing_pairs") -> HomogeneousResult:
    """Extract a monochromatic index set for the induced pair coloring.

    Deterministic and exact: the result is a largest homogeneous set, so it
    always has at least ceil(sqrt(N)) indices.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two values")
    if coloring == "distinct_pairs":
        return _checked(values, _constant_or_rainbow(values), "extracted set")
    if coloring != "increasing_pairs":
        raise ValueError(f"unknown coloring {coloring!r}")
    inc = _longest_run(values, bisect_left)
    dec = _longest_run((-v for v in values), bisect_right)  # non-increasing
    if len(inc) >= len(dec):
        result = HomogeneousResult(tuple(inc), KIND_STRICTLY_INCREASING)
    elif len({values[i] for i in dec}) == 1:
        result = HomogeneousResult(tuple(dec), KIND_CONSTANT, values[dec[0]])
    else:
        result = HomogeneousResult(tuple(dec), KIND_NON_INCREASING)
    return _checked(values, result, "extracted set")


def constant_or_injective(values) -> HomogeneousResult:
    """Pigeonhole dichotomy: a value repeated ceil(sqrt(N)) times, or one
    position per distinct value; either way at least ceil(sqrt(N)) indices."""
    values = list(values)
    n = len(values)
    if n < 1:
        raise ValueError("need at least one value")
    threshold = sqrt_bound(n)
    result = _constant_or_rainbow(values, threshold)
    if len(result.indices) < threshold:
        raise AssertionError(f"dichotomy set below ceil(sqrt(N)) = {threshold}: {result}")
    return _checked(values, result, "dichotomy set")


def constant_or_increasing(stream, target: int, fuel: int) -> HomogeneousResult | None:
    """Search the first `fuel` values of an iterable for a constant or strictly
    increasing subsequence of the target size.

    The dichotomy is a theorem only for total functions on the naturals, so
    exhausting the fuel returns None rather than fabricating a witness.
    After each read the constant check runs before the increasing check.
    """
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
