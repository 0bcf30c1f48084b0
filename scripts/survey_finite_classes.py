"""Survey the finite catalogs: counts, orbits, order structure, reversibility.

Usage: python scripts/survey_finite_classes.py [--max-n 4] [--dot-dir DIR]
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from revtop.enumeration import catalog, enumerate_topologies_by_closure
from revtop.order import (
    condensational_order,
    is_strongly_reversible,
    is_weakly_reversible,
    sim_class,
)
from revtop.topology import homeo_class


def longest_chain(digraph) -> int:
    """The number of nodes on a longest chain of the order: a longest path
    of the Hasse diagram, found in decreasing open count, since the upper end
    of a Hasse edge has more opens than its lower end."""
    above = [[] for _ in digraph.nodes]
    for i, j in digraph.hasse:
        above[i].append(j)
    depth = [0] * len(digraph.nodes)    # nodes on a longest chain up from each node
    for i in sorted(range(len(depth)), key=lambda i: -len(digraph.nodes[i].opens)):
        depth[i] = 1 + max((depth[j] for j in above[i]), default=0)
    return max(depth)


def survey(n: int, dot_dir: str | None) -> None:
    start = time.time()
    cat = catalog(n)
    oracle = enumerate_topologies_by_closure(n)
    agree = cat.topologies == oracle
    digraph = condensational_order(n)
    strong = sum(1 for t in cat.orbits if is_strongly_reversible(t))
    weak = sum(1 for t in cat.orbits if is_weakly_reversible(t))
    longest = longest_chain(digraph)
    elapsed = time.time() - start
    print(f"n={n}: topologies={sum(digraph.orbit_sizes)} orbits={len(digraph.nodes)} "
          f"oracle_agrees={agree} strongly_reversible_orbits={strong} "
          f"weakly_reversible_orbits={weak} hasse_edges={len(digraph.hasse)} "
          f"longest_chain={longest} [{elapsed:.2f}s]")
    if dot_dir:
        path = os.path.join(dot_dir, f"order_n{n}.dot")
        with open(path, "w") as handle:
            handle.write(digraph.to_dot())
        print(f"  wrote {path}")


def check_class_structure(n: int) -> None:
    cat = catalog(n)
    mismatches = sum(1 for t in cat.topologies
                     if sim_class(t) != homeo_class(t))
    print(f"n={n}: equivalence classes differing from homeomorphism classes: "
          f"{mismatches} (finite ground sets force zero)")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--dot-dir", default=None)
    args = parser.parse_args()
    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
    for n in range(args.max_n + 1):
        survey(n, args.dot_dir)
    for n in range(min(args.max_n, 4) + 1):
        check_class_structure(n)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
