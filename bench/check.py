"""Output checkers for the benchmark's commands.

Each checker takes a finished command's ``Outcome`` and returns a list of
problems; an empty list means the output is correct.  Expected values come
from outside the program: OEIS counts, suite invariants stated in the paper,
and Ramsey optima recomputed here by code that shares nothing with
``revtop.ramsey``.
"""
from __future__ import annotations

import json
import os
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field

# OEIS A000798 (labelled topologies) and A001930 (unlabelled topologies).
TOPOLOGIES = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
ORBITS = {0: 1, 1: 1, 2: 3, 3: 9, 4: 33, 5: 139}
# Condensational-order quotient at n=5: one node per orbit, 413 Hasse edges.
ORDER_EDGES = {5: 413}


@dataclass
class Outcome:
    """What one command left behind: exit code, stdout and written files."""

    returncode: int
    stdout: str
    files: dict[str, str] = field(default_factory=dict)

    def collect(self, names, directory: str) -> None:
        """Read and remove the output files a command wrote; a missing one
        is left for its checker to report."""
        for name in names:
            path = os.path.join(directory, name)
            if os.path.exists(path):
                with open(path) as handle:
                    self.files[name] = handle.read()
                os.unlink(path)


def check_exit(outcome: Outcome) -> list[str]:
    if outcome.returncode != 0:
        return [f"exit code {outcome.returncode}, expected 0"]
    return []


def check_enum_summary(outcome: Outcome, n: int) -> list[str]:
    want = f"n={n} topologies={TOPOLOGIES[n]} orbits={ORBITS[n]}\n"
    problems = check_exit(outcome)
    if outcome.stdout != want:
        problems.append(f"enum summary {outcome.stdout!r}, expected {want!r}")
    return problems


def check_order(outcome: Outcome, n: int, dot: str, js: str) -> list[str]:
    nodes, edges = ORBITS[n], ORDER_EDGES[n]
    problems = check_exit(outcome)
    want = f"n={n} nodes={nodes} edges={edges}\n"
    if outcome.stdout != want:
        problems.append(f"order summary {outcome.stdout!r}, expected {want!r}")
    try:
        data = json.loads(outcome.files[js])
    except (KeyError, ValueError) as exc:
        return problems + [f"order JSON unreadable: {exc}"]
    if len(data.get("nodes", ())) != nodes or len(data.get("hasse", ())) != edges:
        problems.append("order JSON node or edge count wrong")
    elif sum(node["orbit_size"] for node in data["nodes"]) != TOPOLOGIES[n]:
        problems.append("order JSON orbit sizes do not sum to the topology count")
    text = outcome.files.get(dot, "")
    if (len(re.findall(r"^  n\d+ \[", text, re.M)) != nodes
            or len(re.findall(r"^  n\d+ -> n\d+;", text, re.M)) != edges):
        problems.append("order DOT node or edge count wrong")
    return problems


def check_classify_csv(outcome: Outcome, n: int) -> list[str]:
    problems = check_exit(outcome)
    lines = outcome.stdout.splitlines()
    if not lines or lines[0].split(";")[0] != "opens":
        return problems + ["classify CSV header missing"]
    rows = [line.split(";") for line in lines[1:]]
    if len(rows) != ORBITS[n] or any(len(r) != 6 for r in rows):
        return problems + [f"classify CSV has {len(rows)} rows, expected {ORBITS[n]}"]
    if sum(int(r[1]) for r in rows) != TOPOLOGIES[n]:
        problems.append("classify orbit sizes do not sum to the topology count")
    if any(r[2] != "1" for r in rows):
        problems.append("a finite topology classified as not reversible")
    strong = sorted(r[5] for r in rows if r[4] == "1")
    if strong != ["antidiscrete", "discrete"]:
        problems.append(f"strongly reversible orbits {strong}, expected the two trivial ones")
    return problems


_SUITE_LINE = re.compile(r"^(\w+): (\d+)/(\d+) agree(?: \((.*)\))?$")


def check_verify(outcome: Outcome, n: int, suites: list[str], samples: int) -> list[str]:
    """Every suite agrees on every instance, over the instance count it must
    cover, and thm31 finds exactly the two trivial topologies.  Written for
    n >= 4, where fact12 checks ``samples`` sampled pairs."""
    problems = check_exit(outcome)
    lines = outcome.stdout.splitlines()
    if len(lines) != len(suites):
        return problems + [f"{len(lines)} suite lines for {len(suites)} suites"]
    for name, line in zip(suites, lines):
        match = _SUITE_LINE.match(line)
        if not match or match.group(1) != name:
            problems.append(f"unreadable suite line {line!r}")
            continue
        agreed, total = int(match.group(2)), int(match.group(3))
        want = samples if name == "fact12" else TOPOLOGIES[n]
        if agreed != total or total != want:
            problems.append(f"{name}: {agreed}/{total}, expected {want}/{want}")
        if name == "thm31" and not re.match(r"strongly_reversible=2\b", match.group(4) or ""):
            problems.append(f"thm31 detail {match.group(4)!r}")
        if name == "enum" and match.group(4) != f"count={TOPOLOGIES[n]}":
            problems.append(f"enum detail {match.group(4)!r}")
    return problems


def check_ostar(outcome: Outcome, check: str, family_size: int, samples: int) -> list[str]:
    problems = check_exit(outcome)
    try:
        data = json.loads(outcome.stdout)
    except ValueError:
        return problems + ["ostar output is not JSON"]
    want = {"check": check, "family_size": family_size, "samples": samples,
            "passes": samples, "failures": 0}
    if data != want:
        problems.append(f"ostar reported {data}, expected {want}")
    return problems


def check_witness_chain(outcome: Outcome, start: int, length: int) -> list[str]:
    """A verified chain of unit shifts raising the cutoff from ``start``."""
    problems = check_exit(outcome)
    try:
        data = json.loads(outcome.stdout)
    except ValueError:
        return problems + ["witness output is not JSON"]
    chain = data.get("chain", [])
    if data.get("verified") is not True:
        problems.append("witness chain not verified")
    if len(chain) != length or not all(w.get("verified") is True for w in chain):
        problems.append(f"witness chain has {len(chain)} links, expected {length} verified")
    elif [w["image_c"] for w in chain] != list(range(start + 1, start + length + 1)):
        problems.append("witness chain cutoffs do not rise by one")
    return problems


# ---------------------------------------------------------------------------
# Ramsey: homogeneity and optimality, recomputed independently
# ---------------------------------------------------------------------------

def longest_increasing(values) -> int:
    """Length of a longest strictly increasing subsequence."""
    tails: list[int] = []
    for v in values:
        pos = bisect_left(tails, v)
        tails[pos:pos + 1] = [v]
    return len(tails)


def longest_non_increasing(values) -> int:
    """Length of a longest non-increasing subsequence."""
    tails: list[int] = []  # non-decreasing run of the negated values
    for v in values:
        pos = bisect_right(tails, -v)
        tails[pos:pos + 1] = [-v]
    return len(tails)


def pairs_optimum(values, coloring: str) -> int:
    """Size of a largest homogeneous set for the induced pair coloring."""
    if coloring == "increasing":
        return max(longest_increasing(values), longest_non_increasing(values))
    counts = Counter(values)
    return max(len(counts), max(counts.values()))


def is_homogeneous(values, indices, coloring: str) -> bool:
    """Do all index pairs get one colour?  Increasing: the picked values rise
    strictly or never rise.  Distinct: they are all different or all equal."""
    if not indices or any(b <= a for a, b in zip(indices, indices[1:])):
        return False
    if indices[0] < 0 or indices[-1] >= len(values):
        return False
    picked = [values[i] for i in indices]
    steps = list(zip(picked, picked[1:]))
    if coloring == "increasing":
        return all(a < b for a, b in steps) or all(a >= b for a, b in steps)
    return len(set(picked)) in (1, len(picked))


def _ramsey_payload(outcome: Outcome) -> tuple[dict | None, list[str]]:
    problems = check_exit(outcome)
    try:
        data = json.loads(outcome.stdout)
    except ValueError:
        return None, problems + ["ramsey output is not JSON"]
    if data.get("found") is not True or data.get("size") != len(data.get("indices", ())):
        return None, problems + ["ramsey result missing or size field inconsistent"]
    return data, problems


def check_ramsey_pairs(outcome: Outcome, values, coloring: str, optimum: int) -> list[str]:
    data, problems = _ramsey_payload(outcome)
    if data is None:
        return problems
    if not is_homogeneous(values, data["indices"], coloring):
        problems.append(f"index set is not homogeneous for {coloring} pairs")
    if data["size"] != optimum:
        problems.append(f"size {data['size']}, optimum {optimum}")
    return problems


def injective_expected(values) -> tuple[str, int]:
    """The documented dichotomy: the most frequent value if it repeats at
    least ceil(sqrt(N)) times, else one index per distinct value."""
    counts = Counter(values)
    top = max(counts.values())
    root = 0
    while root * root < len(values):
        root += 1
    return ("constant", top) if top >= root else ("injective", len(counts))


def check_ramsey_injective(outcome: Outcome, values) -> list[str]:
    data, problems = _ramsey_payload(outcome)
    if data is None:
        return problems
    kind, size = injective_expected(values)
    if data.get("kind") != kind or data["size"] != size:
        problems.append(f"got {data.get('kind')} of size {data['size']}, expected {kind} of {size}")
    if not is_homogeneous(values, data["indices"], "distinct"):
        problems.append("index set is neither constant nor injective")
    return problems


def first_stop(values, k: int, fuel: int) -> int | None:
    """Index of the first read after which the prefix holds k equal values or
    a strictly increasing run of length k; None if the fuel runs out first."""
    counts: Counter = Counter()
    tails: list[int] = []
    for i, v in enumerate(values[:fuel]):
        counts[v] += 1
        pos = bisect_left(tails, v)
        tails[pos:pos + 1] = [v]
        if counts[v] >= k or len(tails) >= k:
            return i
    return None


def check_ramsey_increasing(outcome: Outcome, values, k: int, fuel: int) -> list[str]:
    data, problems = _ramsey_payload(outcome)
    if data is None:
        return problems
    idx = data["indices"]
    if data["size"] != k:
        problems.append(f"size {data['size']}, target {k}")
    if not idx or idx[-1] != first_stop(values, k, fuel):
        problems.append("search did not stop at the first prefix that holds a witness")
    picked = [values[i] for i in idx if 0 <= i < len(values)]
    steps = list(zip(picked, picked[1:]))
    if (len(picked) != len(idx) or any(b <= a for a, b in zip(idx, idx[1:]))
            or not (all(a < b for a, b in steps) or len(set(picked)) == 1)):
        problems.append("index set is neither constant nor strictly increasing")
    return problems
