"""Seeded inputs for the benchmark workloads.

Every value here is a pure function of the benchmark seed, so one seed gives
byte-identical input files and program flags on every machine.  Each stream
gets its own ``random.Random`` seeded from a string, which Python hashes with
SHA-512 and therefore does not depend on ``PYTHONHASHSEED``.
"""
from __future__ import annotations

import random

RAMSEY_LONG = 200_000     # length of the long Ramsey inputs
RAMSEY_SHORT = 4_000      # length of the inputs that drive the pivot chain
RAMSEY_SYMBOLS = 50       # alphabet of the repeated-symbol input
RAMSEY_SWAP_FRAC = 0.02   # share of adjacent swaps in the nearly sorted input


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator for one named stream of one seed."""
    return random.Random(f"revtop-bench:{seed}:{stream}")


def program_seed(seed: int, name: str) -> int:
    """The value passed to a command's own ``--seed`` flag."""
    return rng_for(seed, f"flag:{name}").randrange(1 << 31)


def wide_random(seed: int) -> list[int]:
    """Uniform values from a range so wide that repeats are rare."""
    rng = rng_for(seed, "wide")
    return [rng.randrange(-10**9, 10**9) for _ in range(RAMSEY_LONG)]


def few_symbols(seed: int) -> list[int]:
    """Uniform draws from a small alphabet: every value repeats often."""
    rng = rng_for(seed, "symbols")
    alphabet = rng.sample(range(10**6), RAMSEY_SYMBOLS)
    return [alphabet[rng.randrange(RAMSEY_SYMBOLS)] for _ in range(RAMSEY_LONG)]


def all_distinct(seed: int) -> list[int]:
    """A random arrangement of distinct values."""
    return rng_for(seed, "distinct").sample(range(10**9), RAMSEY_SHORT)


def nearly_sorted(seed: int) -> list[int]:
    """Distinct increasing values with a few random adjacent swaps."""
    rng = rng_for(seed, "sorted")
    values = sorted(rng.sample(range(10**9), RAMSEY_SHORT))
    for _ in range(int(RAMSEY_SHORT * RAMSEY_SWAP_FRAC)):
        i = rng.randrange(RAMSEY_SHORT - 1)
        values[i], values[i + 1] = values[i + 1], values[i]
    return values


def ramsey_inputs(seed: int) -> dict[str, list[int]]:
    """The four input files of the ramsey-long workload, by name."""
    return {
        "wide": wide_random(seed),
        "symbols": few_symbols(seed),
        "distinct": all_distinct(seed),
        "sorted": nearly_sorted(seed),
    }


def write_values(path, values) -> None:
    """Write values the way a user feeds the CLI: one integer per line."""
    with open(path, "w") as handle:
        handle.write("\n".join(map(str, values)) + "\n")
