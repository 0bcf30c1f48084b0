"""The benchmark's workloads: seeded CLI commands, each with its output check.

A workload is a list of ``Command``s.  Building one writes its input files
into the work directory; the commands then name those files by relative path
and are run from that directory, as a fresh ``python -m revtop`` process in
the timed run and as an in-process ``revtop.cli.main`` call in the traced run.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import check
import gen
from check import Outcome

FINITE_N = 5
PAIR_SAMPLES = 1000        # fact12 ordered pairs per verify command
FAMILY_SIZE = 64           # almost-disjoint family size for ostar
BLOCKING_SAMPLES = 400
CLOSURE_SAMPLES = 4000
CHAIN_LENGTH = 2000        # witness ordered-z --iterate
INCREASING_K = 600         # well below the ~2*sqrt(N) longest run of wide input
INCREASING_FUEL = gen.RAMSEY_LONG


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how to judge what it printed and wrote."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[Outcome], list[str]]
    files: tuple[str, ...] = ()   # output files to read back for the check
    case: str | None = None       # Ramsey input case, for per-case layer time
    values: int = 0               # Ramsey input length
    optimum: int | None = None    # size the Ramsey result must reach


def finite_n5(seed: int, workdir: str) -> list[Command]:
    n = FINITE_N
    suites = ["enum", "thm31"]
    return [
        Command("enum", ("enum", "--n", str(n)),
                lambda o: check.check_enum_summary(o, n)),
        Command("order", ("order", "--n", str(n), "--dot", "order.dot", "--json", "order.json"),
                lambda o: check.check_order(o, n, "order.dot", "order.json"),
                files=("order.dot", "order.json")),
        Command("classify", ("classify", "--n", str(n), "--format", "csv"),
                lambda o: check.check_classify_csv(o, n)),
        Command("verify", ("verify", "--suite", ",".join(suites), "--n", str(n)),
                lambda o: check.check_verify(o, n, suites, 0)),
    ]


def finite_pairs(seed: int, workdir: str) -> list[Command]:
    small = ["enum", "fact11", "fact12", "prop14", "thm31"]
    large = ["fact11", "fact12"]
    commands = []
    for n, suites in ((4, small), (FINITE_N, large)):
        argv = ("verify", "--suite", ",".join(suites), "--n", str(n),
                "--seed", str(gen.program_seed(seed, f"verify{n}")),
                "--samples", str(PAIR_SAMPLES))
        commands.append(Command(f"verify-n{n}", argv,
                                lambda o, n=n, s=suites: check.check_verify(o, n, s, PAIR_SAMPLES)))
    return commands


def ramsey_long(seed: int, workdir: str) -> list[Command]:
    inputs = gen.ramsey_inputs(seed)
    for name, values in inputs.items():
        gen.write_values(os.path.join(workdir, f"{name}.txt"), values)
    commands = []
    for case, coloring in (("wide", "increasing"), ("symbols", "distinct"),
                           ("distinct", "distinct"), ("sorted", "increasing")):
        values = inputs[case]
        optimum = check.pairs_optimum(values, coloring)
        commands.append(Command(
            f"pairs-{case}", ("ramsey", "--mode", "pairs", "--coloring", coloring, f"{case}.txt"),
            lambda o, v=values, c=coloring, opt=optimum: check.check_ramsey_pairs(o, v, c, opt),
            case=case, values=len(values), optimum=optimum))
    wide = inputs["wide"]
    commands.append(Command(
        "injective-wide", ("ramsey", "--mode", "injective", "wide.txt"),
        lambda o: check.check_ramsey_injective(o, wide), case="injective",
        values=len(wide), optimum=check.injective_expected(wide)[1]))
    commands.append(Command(
        "increasing-wide", ("ramsey", "--mode", "increasing", "--k", str(INCREASING_K),
                            "--fuel", str(INCREASING_FUEL), "wide.txt"),
        lambda o: check.check_ramsey_increasing(o, wide, INCREASING_K, INCREASING_FUEL),
        case="increasing", values=len(wide), optimum=INCREASING_K))
    return commands


def symbolic_certs(seed: int, workdir: str) -> list[Command]:
    commands = []
    for kind, samples in (("blocking", BLOCKING_SAMPLES), ("closure", CLOSURE_SAMPLES)):
        argv = ("ostar", "--check", kind, "--family-size", str(FAMILY_SIZE),
                "--samples", str(samples), "--seed", str(gen.program_seed(seed, kind)))
        commands.append(Command(
            f"ostar-{kind}", argv,
            lambda o, k=kind, s=samples: check.check_ostar(o, k, FAMILY_SIZE, s)))
    start = gen.program_seed(seed, "witness") % 1000
    commands.append(Command(
        "witness-chain",
        ("witness", "ordered-z", "--c", str(start), "--iterate", str(CHAIN_LENGTH)),
        lambda o: check.check_witness_chain(o, start, CHAIN_LENGTH)))
    return commands


WORKLOADS = {
    "finite-n5": finite_n5,
    "finite-pairs": finite_pairs,
    "ramsey-long": ramsey_long,
    "symbolic-certs": symbolic_certs,
}
