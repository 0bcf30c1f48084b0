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
from itertools import chain, islice
from math import isqrt
from operator import ge, itemgetter, lt, neg

COLORINGS = ("increasing_pairs", "distinct_pairs")

KIND_CONSTANT = "constant"
KIND_STRICTLY_INCREASING = "strictly_increasing"
KIND_INJECTIVE = "injective"
KIND_NON_INCREASING = "non_increasing"

_PROBE = 64     # leading values whose repeats pick the first table of the distinct coloring


class HomogeneousResult(namedtuple("HomogeneousResult", ("indices", "kind", "value"),
                                   defaults=(None,))):
    """A verified homogeneous index set (a tuple of ints) with its witnessed
    kind, and value, the repeated value for the constant kind (else None)."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The result as JSON-ready data; indices stay a tuple, which json
        writes as an array."""
        data = {"indices": self.indices, "kind": self.kind}
        if self.value is not None:
            data["value"] = self.value
        return data


def verify_result(values, result: HomogeneousResult) -> bool:
    """Independent re-check of a claimed homogeneous set against the sequence."""
    idx = result.indices
    if not idx or idx[0] < 0 or idx[-1] >= len(values):
        return False
    if not all(map(lt, idx, islice(idx, 1, None))):
        return False
    picked = itemgetter(*idx)(values) if len(idx) > 1 else (values[idx[0]],)
    if result.kind == KIND_CONSTANT:
        return picked.count(result.value) == len(picked)
    if result.kind == KIND_STRICTLY_INCREASING:
        return all(map(lt, picked, islice(picked, 1, None)))
    if result.kind == KIND_INJECTIVE:
        return len(set(picked)) == len(picked)
    if result.kind == KIND_NON_INCREASING:
        return all(map(ge, picked, islice(picked, 1, None)))
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


def _first_positions(values: list) -> dict:
    """Each value's first position, as the last write when read from the end."""
    return dict(zip(reversed(values), range(len(values) - 1, -1, -1)))


def _first_copies(values: list, value, count: int) -> list[int]:
    """Indices of the first count copies of value, which values holds."""
    out = [values.index(value)]
    for _ in range(count - 1):
        out.append(values.index(value, out[-1] + 1))
    return out


def _constant_or_rainbow(values: list, threshold: int | None = None) -> HomogeneousResult:
    """One of the two homogeneous sets of the distinct coloring: the positions
    of the least most frequent value (constant), or the first position of
    each value (injective).  The constant set is taken when its size reaches
    threshold, by default when it is larger than the injective one; only the
    set taken is built.

    The injective set reads a table of first positions, the constant one a
    count of each value, and either gives the number d of distinct values.
    With no repeat among the first _PROBE values the table is built first:
    no value occurs more than n - d + 1 times among n, so when that is below
    the size the constant set needs, nothing is counted."""
    n = len(values)
    first = None
    probe = values[:_PROBE]
    if len(set(probe)) == len(probe):
        first = _first_positions(values)
        if n - len(first) + 1 < (len(first) + 1 if threshold is None else threshold):
            return HomogeneousResult(tuple(sorted(first.values())), KIND_INJECTIVE)
    counts = Counter(values)
    top = max(counts.values())
    if top >= (len(counts) + 1 if threshold is None else threshold):
        value = min(v for v in counts if counts[v] == top)
        return HomogeneousResult(tuple(_first_copies(values, value, top)), KIND_CONSTANT, value)
    if first is None:
        first = _first_positions(values)
    return HomogeneousResult(tuple(sorted(first.values())), KIND_INJECTIVE)


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
    dec = _longest_run(map(neg, values), bisect_right)   # non-increasing
    if len(inc) >= len(dec):
        result = HomogeneousResult(tuple(inc), KIND_STRICTLY_INCREASING)
    elif values[dec[0]] == values[dec[-1]]:           # a non-increasing run is constant
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
    The answer is the one a value-by-value reader gives when after each read
    it checks for target copies of a value before the increasing run: the
    constant set wins when its last copy is at or before the index where
    the run first reaches the target size.  The stream is read in slices,
    each a quarter longer than the last, from `target` values on, so the
    call may take more values than the answer needs, though never more than
    `fuel`.  The run reads each slice first; the slice is then counted, and
    a value is searched for only once the pigeonhole bound lets one reach
    target copies.
    """
    if target < 1:
        raise ValueError("target size must be positive")
    if fuel < target:
        raise ValueError("fuel must be at least the target size")
    source = islice(stream, fuel)
    values: list = []              # every value read
    counts: Counter = Counter()    # of values[:counted]; none of them reaches target
    counted = 0
    hit = None                     # index of the first target-th copy of a value

    def count_to(end: int) -> int | None:
        """Count the values up to end; the index where a value first got
        its target-th copy among them, else None.  With d distinct values
        among n counted, none occurs more than n - d + 1 times."""
        nonlocal counted
        start, counted = counted, end
        counts.update(values[start:end])
        if end - len(counts) + 1 < target or max(counts.values(), default=0) < target:
            return None
        first = None
        for i in range(end - 1, start - 1, -1):    # counts[v] is v's copies up to i
            v = values[i]
            if counts[v] == target:
                first = i
            counts[v] -= 1
        return first

    def slices():
        """The values read, a slice at a time, each counted once the run has
        read all of it, until one holds a value's target-th copy."""
        nonlocal hit
        size = target
        while chunk := list(islice(source, size)):
            values.extend(chunk)
            yield chunk
            hit = count_to(len(values))
            if hit is not None:
                return
            size += (size + 3) // 4

    run = _longest_run(chain.from_iterable(slices()), bisect_left, target)
    if len(run) == target:         # the slice read last is counted up to the run's end
        hit = count_to(run[-1] + 1)
    if hit is not None:
        result = HomogeneousResult(tuple(_first_copies(values, values[hit], target)),
                                   KIND_CONSTANT, values[hit])
    elif len(run) == target:
        result = HomogeneousResult(tuple(run), KIND_STRICTLY_INCREASING)
    else:
        return None
    return _checked(values, result, "stream witness")
