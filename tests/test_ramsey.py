import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from itertools import combinations, count, product, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_constant_or_increasing,
    reference_constant_or_rainbow,
    reference_verify_result,
)
from revtop.ramsey import (
    KIND_CONSTANT,
    KIND_INJECTIVE,
    KIND_NON_INCREASING,
    KIND_STRICTLY_INCREASING,
    _PROBE,
    HomogeneousResult,
    _constant_or_rainbow,
    _longest_run,
    constant_or_increasing,
    constant_or_injective,
    homogeneous_pairs,
    sqrt_bound,
    verify_result,
)


def test_sqrt_bound():
    assert [sqrt_bound(n) for n in (1, 2, 4, 8, 9, 15, 16, 256)] == [1, 2, 2, 3, 3, 4, 4, 16]


def test_pairs_on_increasing_run():
    res = homogeneous_pairs(list(range(16)), "increasing_pairs")
    assert res.kind == KIND_STRICTLY_INCREASING
    assert len(res.indices) == 16


def test_pairs_on_constant_run():
    res = homogeneous_pairs([7] * 16, "increasing_pairs")
    assert res.kind == KIND_CONSTANT and res.value == 7
    assert len(res.indices) == 16


def test_pairs_on_decreasing_run():
    res = homogeneous_pairs(list(range(15, -1, -1)), "increasing_pairs")
    assert res.kind == KIND_NON_INCREASING
    assert len(res.indices) == 16
    res = homogeneous_pairs([3, 2.5, 2.7, 2.2], "increasing_pairs")  # non-integer values
    assert res.kind == KIND_NON_INCREASING and res.indices == (0, 2, 3)


def test_pairs_distinct_coloring():
    res = homogeneous_pairs([3, 1, 4, 1, 5], "distinct_pairs")
    assert res.kind == KIND_INJECTIVE
    assert len(res.indices) == 4
    res = homogeneous_pairs([2, 2, 2, 5], "distinct_pairs")
    assert res.kind == KIND_CONSTANT and res.value == 2


def test_pairs_log_bound_small_cases():
    rng = random.Random(7)
    for n in (2, 4, 8, 16, 32):
        bound = max(1, n.bit_length() - 1)
        for _ in range(50):
            seq = [rng.randrange(0, 10)] * 0 + [rng.randrange(0, 10) for _ in range(n)]
            for coloring in ("increasing_pairs", "distinct_pairs"):
                res = homogeneous_pairs(seq, coloring)
                assert len(res.indices) >= bound
                assert verify_result(seq, res)


def test_pairs_requires_two_values():
    with pytest.raises(ValueError):
        homogeneous_pairs([1], "increasing_pairs")
    with pytest.raises(ValueError):
        homogeneous_pairs([1, 2], "no_such_coloring")


def test_pairs_size_is_the_brute_force_optimum():
    def homogeneous(seq, idx, coloring):
        pairs = [(seq[a], seq[b]) for k, a in enumerate(idx) for b in idx[k + 1:]]
        if coloring == "increasing_pairs":
            return all(x < y for x, y in pairs) or all(x >= y for x, y in pairs)
        return all(x != y for x, y in pairs) or all(x == y for x, y in pairs)

    for n in range(2, 7):
        for seq in product(range(3), repeat=n):
            for coloring in ("increasing_pairs", "distinct_pairs"):
                best = max(r for r in range(1, n + 1)
                           for idx in combinations(range(n), r)
                           if homogeneous(seq, idx, coloring))
                assert len(homogeneous_pairs(seq, coloring).indices) == best


def test_pairs_distinct_on_many_distinct_values():
    values = list(range(100_000, 0, -1))
    res = homogeneous_pairs(values, "distinct_pairs")
    assert res.kind == KIND_INJECTIVE
    assert res.indices == tuple(range(len(values)))


def _back_pointer_run(values, find, stop=0):
    """Reference patience sort that keeps, for each value, the index ending
    the best run one shorter at the time it is read, and follows those
    pointers back from the index ending the longest run."""
    tails, tail_idx, prev = [], [], []
    for i, v in enumerate(values):
        pos = find(tails, v)
        prev.append(tail_idx[pos - 1] if pos else -1)
        if pos == len(tails):
            tails.append(v)
            tail_idx.append(i)
            if pos + 1 == stop:
                break
        else:
            tails[pos] = v
            tail_idx[pos] = i
    out = []
    i = tail_idx[-1] if tail_idx else -1
    while i >= 0:
        out.append(i)
        i = prev[i]
    return out[::-1]


def test_longest_run_picks_the_back_pointer_run():
    """Among equal-length runs the core returns the one the back pointers
    give, for both comparisons and with reading stopped early."""
    rng = random.Random(11)
    cases = [[], [5], [3, 2.5, 2.7, 2.2], [2.5, 2.5, 1.0, 2.5, 3.75, 1.0]]
    for _ in range(300):
        n = rng.randrange(1, 60)
        cases.append([rng.randrange(rng.choice((2, 4, 8))) for _ in range(n)])
        cases.append([rng.randrange(6) / 4 for _ in range(n)])
    for values in cases:
        for seq in (values, [-v for v in values]):
            for find in (bisect_left, bisect_right):
                for stop in (0, 1, 2, 3, 5):
                    want = _back_pointer_run(seq, find, stop)
                    assert _longest_run(seq, find, stop) == want, (seq, find, stop)
                    assert _longest_run(iter(seq), find, stop) == want


def test_constant_or_injective_examples():
    res = constant_or_injective([5] * 9)
    assert res.kind == KIND_CONSTANT and res.value == 5 and len(res.indices) == 9
    res = constant_or_injective(list(range(9)))
    assert res.kind == KIND_INJECTIVE and len(res.indices) == 9
    res = constant_or_injective([0, 0, 1, 1, 2, 2, 3, 3, 4])
    assert res.kind == KIND_INJECTIVE and len(res.indices) == 5


def test_constant_or_injective_exhaustive_short():
    for n in (1, 2, 3, 4, 5):
        for seq in product(range(3), repeat=n):
            res = constant_or_injective(seq)
            assert len(res.indices) >= sqrt_bound(n)
            assert verify_result(seq, res)


def test_constant_or_increasing_examples():
    res = constant_or_increasing(count(), 10, 100)
    assert res is not None and res.kind == KIND_STRICTLY_INCREASING
    assert len(res.indices) == 10
    res = constant_or_increasing(repeat(3), 10, 100)
    assert res is not None and res.kind == KIND_CONSTANT and res.value == 3
    # a finite descent bottoms out into a constant run
    stream = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0] + [0] * 40
    res = constant_or_increasing(iter(stream), 4, 50)
    assert res is not None and res.kind == KIND_CONSTANT and res.value == 0
    assert verify_result(stream, res)


def test_constant_or_increasing_stops_at_the_first_qualifying_prefix():
    """The stream stops at the first read where the value just read occurs
    target times (constant, checked first) or the longest strictly increasing
    run of the prefix reaches target."""
    def longest_increasing(prefix):
        best = [1] * len(prefix)
        for j in range(len(prefix)):
            for i in range(j):
                if prefix[i] < prefix[j]:
                    best[j] = max(best[j], best[i] + 1)
        return max(best)

    def reference(seq, target):
        for end in range(1, len(seq) + 1):
            prefix = seq[:end]
            if prefix.count(prefix[-1]) == target:
                return end - 1, KIND_CONSTANT
            if longest_increasing(prefix) == target:
                return end - 1, KIND_STRICTLY_INCREASING
        return None

    for n in range(1, 8):
        for seq in product(range(3), repeat=n):
            for target in range(1, 5):
                res = constant_or_increasing(iter(seq), target, max(n, target))
                want = reference(list(seq), target)
                if want is None:
                    assert res is None, (seq, target)
                else:
                    assert res is not None and (res.indices[-1], res.kind) == want, (seq, target)
                    assert len(res.indices) == target and verify_result(seq, res)


def test_constant_or_increasing_fuel_exhaustion():
    # strictly decreasing forever within fuel: neither branch can fire
    assert constant_or_increasing(count(1000, -1), 2, 50) is None


def test_constant_or_increasing_preconditions():
    with pytest.raises(ValueError):
        constant_or_increasing(count(), 0, 10)
    with pytest.raises(ValueError):
        constant_or_increasing(count(), 5, 4)


def test_self_check_survives_optimisation():
    """Each public extraction raises AssertionError under python -O when its
    result fails verification."""
    for call in ("r.homogeneous_pairs([3, 1, 2])",
                 "r.constant_or_injective([3, 1, 2])",
                 "r.constant_or_increasing(iter([1, 2, 3]), 2, 3)"):
        code = ("import revtop.ramsey as r\n"
                "r.verify_result = lambda values, result: False\n"
                f"{call}\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode != 0, call
        assert "AssertionError" in proc.stderr, call


def test_verifier_rejects_bad_claims():
    seq = [1, 2, 3]
    repeats = [1, 1, 2]
    bad = [
        (seq, HomogeneousResult((), KIND_INJECTIVE)),                  # empty
        (seq, HomogeneousResult((-1, 1), KIND_INJECTIVE)),             # negative first index
        (seq, HomogeneousResult((0, 0), KIND_INJECTIVE)),              # repeated index
        (seq, HomogeneousResult((2, 1), KIND_STRICTLY_INCREASING)),    # decreasing indices
        (seq, HomogeneousResult((0, 5), KIND_INJECTIVE)),              # past the end
        (seq, HomogeneousResult((1, 3), KIND_INJECTIVE)),              # last index == len
        (seq, HomogeneousResult((0, 1), KIND_CONSTANT, 1)),            # one value differs
        (repeats, HomogeneousResult((0, 1, 2), KIND_CONSTANT, 1)),
        (repeats, HomogeneousResult((0, 1), KIND_STRICTLY_INCREASING)),  # equal neighbours
        (seq, HomogeneousResult((0, 1), KIND_NON_INCREASING)),         # a rise
        (repeats, HomogeneousResult((0, 1), KIND_INJECTIVE)),          # a repeated value
        (seq, HomogeneousResult((0, 1), "sideways")),                  # unknown kind
    ]
    for values, claim in bad:
        assert not verify_result(values, claim), claim
    good = [
        (seq, HomogeneousResult((0, 1), KIND_STRICTLY_INCREASING)),
        (repeats, HomogeneousResult((0, 1), KIND_CONSTANT, 1)),
        (repeats, HomogeneousResult((0, 2), KIND_INJECTIVE)),
        (repeats, HomogeneousResult((0, 1), KIND_NON_INCREASING)),
        (seq, HomogeneousResult((2,), KIND_NON_INCREASING)),
    ]
    for values, claim in good:
        assert verify_result(values, claim), claim


KINDS = (KIND_CONSTANT, KIND_STRICTLY_INCREASING, KIND_INJECTIVE, KIND_NON_INCREASING,
         "sideways")


@given(st.lists(st.integers(0, 4), max_size=12),
       st.lists(st.integers(-2, 13), max_size=8), st.sampled_from(KINDS),
       st.none() | st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_verifier_matches_the_plain_reference(seq, indices, kind, value):
    """Arbitrary claims, most of them wrong: unsorted, repeated, negative or
    past-the-end indices, every kind and a stray value."""
    for idx in (indices, sorted(set(indices))):
        claim = HomogeneousResult(tuple(idx), kind, value)
        assert verify_result(seq, claim) == reference_verify_result(seq, claim), claim


def _seeded_sequences(seed: int):
    """Seeded inputs for the oracle comparisons: small alphabets with heavy
    repeats, skewed draws, wide draws and runs."""
    rng = random.Random(seed)
    cases = [[0], [5, 5], [1, 2], list(range(20)), list(range(20, 0, -1)), [7] * 30,
             list(range(_PROBE)) + [5] * 100, [0, 0] + list(range(1, 100))]
    for _ in range(300):
        n = rng.randrange(1, 80)
        alphabet = rng.choice((1, 2, 3, 5, 10, 100, 10**9))
        cases.append([rng.randrange(alphabet) for _ in range(n)])
        cases.append([min(rng.randrange(alphabet), rng.randrange(alphabet))
                      for _ in range(n)])                           # skewed to small values
        cases.append([i // rng.randrange(1, 5) + rng.randrange(3) for i in range(n)])
    for _ in range(100):
        # the leading values decide which table the distinct coloring builds first
        head = rng.sample(range(10**6), _PROBE - rng.randrange(2))
        cases.append(head + [rng.randrange(rng.choice((3, 50, 10**6)))
                             for _ in range(rng.randrange(200))])
    return cases


def _pigeonhole_edges():
    """Inputs where n - distinct + 1 equals the size the constant set needs:
    one value holds every repeat, or the repeats are spread over values."""
    cases = []
    for d in range(1, 8):
        for extra in range(0, 8):
            n = d + extra
            # one value holds all n - d + 1 copies
            cases.append(([0] * (extra + 1) + list(range(1, d)), extra + 1))
            cases.append((list(range(1, d)) + [0] * (extra + 1), extra + 1))
            # the same n and d with the repeats spread over two values
            if d >= 2 and extra >= 2:
                half = extra // 2
                spread = [0] * (half + 1) + [1] * (extra - half + 1) + list(range(2, d))
                assert len(spread) == n and len(set(spread)) == d
                cases.append((spread, extra + 1))
            # threshold None needs distinct + 1 copies: n = 2 * distinct
            if extra == d:
                cases.append(([0] * (d + 1) + list(range(1, d)), None))
                cases.append((list(range(d - 1, 0, -1)) + [0] * (d + 1), None))
                cases.append(([0] * d + list(range(1, d + 1)), None))
    return cases


def _triple(result):
    return None if result is None else (result.indices, result.kind, result.value)


def test_constant_or_rainbow_matches_the_oracle():
    cases = [(values, threshold) for values in _seeded_sequences(34)
             for threshold in (None, 1, 2, sqrt_bound(len(values)), len(values))]
    cases += _pigeonhole_edges()
    for values, threshold in cases:
        want = reference_constant_or_rainbow(values, threshold)
        got = _constant_or_rainbow(values, threshold)
        assert _triple(got) == _triple(want), (values, threshold)
        assert type(got.indices) is tuple


def _stream_edges():
    """(values, target, fuel) where the constant check and the run decide at
    the same index, or one index apart."""
    return [
        ([2, 2, 0, 1, 2], 3, 5),           # target-th copy completes the run: constant
        ([2, 2, 0, 1, 3, 2], 3, 6),        # the run completes first
        ([0, 1, 1, 2], 2, 4),              # copy first: constant at index 2
        ([0, 1, 2, 1], 3, 4),              # run at index 2, copy only later
        ([5, 5], 2, 2),                    # copy completes on the last value of fuel
        ([3, 2, 1, 3, 2, 1], 3, 6),        # fuel exhausted: neither
        ([3, 2, 1, 3, 2, 1, 3], 3, 6),     # the deciding copy lies past the fuel
        ([4, 4, 4], 1, 3),                 # target 1: the first value is constant
        ([], 1, 3),                        # empty stream
        ([], 2, 9),
        (list(range(10)), 10, 10),         # the run ends on the last value
        ([9] * 10, 10, 10),
    ]


def test_constant_or_increasing_matches_the_oracle():
    cases = _stream_edges()
    rng = random.Random(3434)
    for values in _seeded_sequences(35):
        for target in {1, 2, 3, rng.randrange(1, 8), len(values)}:
            for fuel in {max(target, f) for f in (0, len(values) // 2, len(values),
                                                  len(values) + 5)}:
                cases.append((values, target, fuel))
    for alphabet in (3, 50, 400, 10**6):       # long streams: the answer lies many slices in
        values = [rng.randrange(alphabet) for _ in range(3000)]
        for target in (5, 20, 60, 200):
            cases.append((values, target, len(values)))
    for values, target, fuel in cases:
        want = reference_constant_or_increasing(iter(values), target, fuel)
        got = constant_or_increasing(iter(values), target, fuel)
        assert _triple(got) == _triple(want), (values, target, fuel)
        assert constant_or_increasing(values, target, fuel) == got    # a list as the stream
    for stream, target, fuel in [(count, 1, 1), (count, 25, 25), (count, 600, 10**4),
                                 (lambda: repeat(3), 1, 5), (lambda: repeat(3), 40, 100),
                                 (lambda: count(1000, -1), 4, 300),
                                 (lambda: (i % 7 for i in count()), 9, 10**4)]:
        want = reference_constant_or_increasing(stream(), target, fuel)
        assert _triple(constant_or_increasing(stream(), target, fuel)) == _triple(want)


def test_constant_or_increasing_reads_the_stream_in_slices():
    """The stream is read a slice at a time, so an answer near the start
    leaves the rest of the fuel unread, and no more than fuel is taken."""
    stream = count()
    assert constant_or_increasing(stream, 3, 10**9).indices == (0, 1, 2)
    assert next(stream) == 3
    stream = count(1000, -1)            # never increasing, never repeating
    assert constant_or_increasing(stream, 2, 50) is None
    assert next(stream) == 950


@given(st.lists(st.integers(0, 30), min_size=2, max_size=60))
@settings(max_examples=250, deadline=None)
def test_pairs_outputs_always_verify(seq):
    for coloring in ("increasing_pairs", "distinct_pairs"):
        res = homogeneous_pairs(seq, coloring)
        assert verify_result(seq, res)
        assert len(res.indices) >= max(1, len(seq).bit_length() - 1)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
@settings(max_examples=250, deadline=None)
def test_injective_outputs_always_verify(seq):
    res = constant_or_injective(seq)
    assert verify_result(seq, res)
    assert len(res.indices) >= sqrt_bound(len(seq))


@given(st.lists(st.integers(0, 9), min_size=3, max_size=50), st.integers(2, 5))
@settings(max_examples=200, deadline=None)
def test_stream_outputs_always_verify(seq, k):
    res = constant_or_increasing(iter(seq), k, max(len(seq), k))
    if res is not None:
        assert verify_result(seq, res)
        assert len(res.indices) == k
        assert res.kind in (KIND_CONSTANT, KIND_STRICTLY_INCREASING)


def test_k1_restriction_is_non_increasing():
    # when the increasing coloring lands in the closed class, the restriction
    # must be non-increasing
    rng = random.Random(3)
    for _ in range(200):
        seq = [rng.randrange(0, 8) for _ in range(24)]
        res = homogeneous_pairs(seq, "increasing_pairs")
        if res.kind in (KIND_NON_INCREASING, KIND_CONSTANT):
            picked = [seq[i] for i in res.indices]
            assert all(a >= b for a, b in zip(picked, picked[1:]))
