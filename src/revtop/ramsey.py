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
from collections import Counter
from dataclasses import dataclass
from math import isqrt

COLORINGS = ("increasing_pairs", "distinct_pairs")

KIND_CONSTANT = "constant"
KIND_STRICTLY_INCREASING = "strictly_increasing"
KIND_INJECTIVE = "injective"
KIND_NON_INCREASING = "non_increasing"


@dataclass(frozen=True)
class HomogeneousResult:
    """A verified homogeneous index set with its witnessed kind."""

    indices: tuple[int, ...]
    kind: str
    value: int | None = None  # the repeated value for the constant kind

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


def sqrt_bound(n: int) -> int:
    """ceil(sqrt(n)), the guaranteed homogeneous size for length-n inputs."""
    root = isqrt(n)
    return root if root * root == n else root + 1


def _longest_run(values, find) -> list[int]:
    """Indices of a longest run found by patience sorting: strictly
    increasing with ``bisect_left``, non-decreasing with ``bisect_right``."""
    tails: list = []               # value at the end of the best run per length
    tail_idx: list[int] = []
    prev = [-1] * len(values)
    for i, v in enumerate(values):
        pos = find(tails, v)
        if pos == len(tails):
            tails.append(v)
            tail_idx.append(i)
        else:
            tails[pos] = v
            tail_idx[pos] = i
        prev[i] = tail_idx[pos - 1] if pos else -1
    out = []
    i = tail_idx[-1]
    while i >= 0:
        out.append(i)
        i = prev[i]
    return out[::-1]


def _exact_extract(values, coloring: str) -> tuple[list[int], int]:
    """A largest homogeneous index set and its color: 0 for the open class
    (strictly increasing, or injective), 1 for the closed one."""
    if coloring not in COLORINGS:
        raise ValueError(f"unknown coloring {coloring!r}")
    if coloring == "increasing_pairs":
        inc = _longest_run(values, bisect_left)
        dec = _longest_run([-v for v in values], bisect_right)  # non-increasing
        return (inc, 0) if len(inc) >= len(dec) else (dec, 1)
    counts = Counter(values)
    top = max(counts.values())
    top_value = min(v for v in counts if counts[v] == top)
    const = [i for i, v in enumerate(values) if v == top_value]
    seen: set[int] = set()
    rainbow = []
    for i, v in enumerate(values):
        if v not in seen:
            seen.add(v)
            rainbow.append(i)
    return (rainbow, 0) if len(rainbow) >= len(const) else (const, 1)


def _kind_of(values, picked, coloring: str, color: int) -> tuple[str, int | None]:
    if coloring == "increasing_pairs":
        if color == 0:
            return KIND_STRICTLY_INCREASING, None
        chosen = [values[i] for i in picked]
        if len(set(chosen)) == 1:
            return KIND_CONSTANT, chosen[0]
        return KIND_NON_INCREASING, None
    if color == 0:
        return KIND_INJECTIVE, None
    return KIND_CONSTANT, values[picked[0]]


def homogeneous_pairs(values, coloring: str = "increasing_pairs") -> HomogeneousResult:
    """Extract a monochromatic index set for the induced pair coloring.

    Deterministic and exact: the result is a largest homogeneous set, so it
    always has at least ceil(sqrt(N)) indices.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two values")
    picked, color = _exact_extract(values, coloring)
    kind, value = _kind_of(values, picked, coloring, color)
    result = HomogeneousResult(tuple(picked), kind, value)
    if not verify_result(values, result):
        raise AssertionError(f"extracted set fails verification: {result}")
    return result


def constant_or_injective(values) -> HomogeneousResult:
    """Pigeonhole dichotomy: a value repeated ceil(sqrt(N)) times, or one
    position per distinct value; either way at least ceil(sqrt(N)) indices."""
    values = list(values)
    n = len(values)
    if n < 1:
        raise ValueError("need at least one value")
    threshold = sqrt_bound(n)
    counts = Counter(values)
    top = max(counts.values())
    if top >= threshold:
        value = min(v for v in counts if counts[v] == top)
        picked = tuple(i for i, v in enumerate(values) if v == value)
        result = HomogeneousResult(picked, KIND_CONSTANT, value)
    else:
        seen: set[int] = set()
        picked_list = []
        for i, v in enumerate(values):
            if v not in seen:
                seen.add(v)
                picked_list.append(i)
        result = HomogeneousResult(tuple(picked_list), KIND_INJECTIVE, None)
    if len(result.indices) < threshold:
        raise AssertionError(f"dichotomy set below ceil(sqrt(N)) = {threshold}: {result}")
    if not verify_result(values, result):
        raise AssertionError(f"dichotomy set fails verification: {result}")
    return result


def constant_or_increasing(stream, target: int, fuel: int) -> HomogeneousResult | None:
    """Search a stream prefix for a constant or strictly increasing subsequence
    of the target size.

    The dichotomy is a theorem only for total functions on the naturals, so
    exhausting the fuel returns None rather than fabricating a witness.
    After each read the constant check runs before the increasing check.
    """
    if target < 1:
        raise ValueError("target size must be positive")
    if fuel < target:
        raise ValueError("fuel must be at least the target size")
    if callable(stream):
        source = (stream(i) for i in range(fuel))
    else:
        source = iter(stream)
    positions: dict[int, list[int]] = {}
    values: list[int] = []
    tails: list[int] = []
    tail_idx: list[int] = []
    prev: list[int] = []
    for i in range(fuel):
        try:
            v = next(source)
        except StopIteration:
            break
        values.append(v)
        bucket = positions.setdefault(v, [])
        bucket.append(i)
        if len(bucket) >= target:
            result = HomogeneousResult(tuple(bucket[:target]), KIND_CONSTANT, v)
            if not verify_result(values, result):
                raise AssertionError(f"stream witness fails verification: {result}")
            return result
        pos = bisect_left(tails, v)
        if pos == len(tails):
            tails.append(v)
            tail_idx.append(i)
        else:
            tails[pos] = v
            tail_idx[pos] = i
        prev.append(tail_idx[pos - 1] if pos else -1)
        if len(tails) >= target:
            out = []
            j = tail_idx[target - 1]
            while j >= 0 and len(out) < target:
                out.append(j)
                j = prev[j]
            result = HomogeneousResult(tuple(out[::-1]), KIND_STRICTLY_INCREASING, None)
            if not verify_result(values, result):
                raise AssertionError(f"stream witness fails verification: {result}")
            return result
    return None
