import os
from itertools import combinations

import pytest

from revtop.enumeration import Preorder, catalog
from revtop.topology import (
    FiniteTopology,
    TopologyError,
    full_mask,
    validate_topology,
)

RUN_N5 = os.environ.get("REVTOP_N5", "") not in ("", "0")

needs_n5 = pytest.mark.skipif(
    not RUN_N5, reason="n=5 suites are gated behind REVTOP_N5=1")


def brute_force_topologies(n: int) -> list[FiniteTopology]:
    """Oracle enumerator: filter every family of subsets containing the empty
    and full sets through the closure definition.  Exponential in 2^n, so
    only usable for n <= 4."""
    full = full_mask(n)
    nontrivial = [m for m in range(1, full)]
    out = []
    for r in range(len(nontrivial) + 1):
        for extra in combinations(nontrivial, r):
            fam = {0, full, *extra}
            try:
                out.append(validate_topology(n, fam))
            except TopologyError:
                continue
    return sorted(set(out))


def topology_of_preorder(p: Preorder) -> FiniteTopology:
    """Oracle for the up-set (Alexandrov) topology: test every one of the 2^n
    point sets for being up-closed."""
    full = full_mask(p.n)
    opens = []
    for m in range(full + 1):
        rest = m
        while rest:
            i = (rest & -rest).bit_length() - 1
            if p.up[i] | m != m:
                break
            rest &= rest - 1
        else:
            opens.append(m)
    return FiniteTopology(p.n, tuple(opens))


@pytest.fixture(scope="session")
def cat2():
    return catalog(2)


@pytest.fixture(scope="session")
def cat3():
    return catalog(3)


@pytest.fixture(scope="session")
def cat4():
    return catalog(4)
