"""Command-line entry point.

Subcommands: enum, classify, order, verify, witness, ostar, ramsey.
Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error
(including a verification that would check nothing: an empty suite list
or --samples below 1), 3 internal error (a self-check of a computed
result failed).
All randomized suites take --seed and produce byte-identical output for a
fixed seed; files are written atomically.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

from . import ramsey as ramsey_mod
from .enumeration import catalog
from .order import (
    classify_strongly_reversible,
    condensational_order,
    is_reversible,
    is_strongly_reversible,
    is_weakly_reversible,
)
from .suites import SUITES, run_suites
from .topology import TopologyError


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".revtop-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp makes the file 0600: give it open()'s mode (umask read by swapping)
        os.umask(umask := os.umask(0))
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def cmd_enum(args) -> int:
    cat = catalog(args.n)
    if args.format == "summary":
        text = f"n={args.n} topologies={len(cat)} orbits={cat.orbit_count}\n"
    else:
        lines = [_dumps(t.to_json()) for t in cat.topologies]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_classify(args) -> int:
    cat = catalog(args.n)
    rows = []
    for rep in cat.orbit_reps:
        rows.append({
            "opens": list(rep.opens),
            "orbit_size": len(cat.orbits[rep]),
            "reversible": is_reversible(rep),
            "weakly_reversible": is_weakly_reversible(rep),
            "strongly_reversible": is_strongly_reversible(rep),
            "classification": classify_strongly_reversible(rep).value,
        })
    if args.format == "summary":
        strong = sum(1 for r in rows if r["strongly_reversible"])
        text = (f"n={args.n} topologies={len(cat)} orbits={cat.orbit_count} "
                f"strongly_reversible_orbits={strong}\n")
    elif args.format == "csv":
        header = "opens;orbit_size;reversible;weakly_reversible;strongly_reversible;classification"
        lines = [header]
        for r in rows:
            opens = "|".join(str(o) for o in r["opens"])
            lines.append(";".join([
                opens, str(r["orbit_size"]),
                str(int(r["reversible"])), str(int(r["weakly_reversible"])),
                str(int(r["strongly_reversible"])), r["classification"]]))
        text = "\n".join(lines) + "\n"
    else:
        text = "\n".join(_dumps(r) for r in rows) + "\n"
    _emit(text, args.out)
    return 0


def cmd_order(args) -> int:
    digraph = condensational_order(args.n)
    if args.dot:
        _emit(digraph.to_dot(), args.dot)
    if args.json:
        _emit(_dumps(digraph.to_json()) + "\n", args.json)
    sys.stdout.write(f"n={args.n} nodes={len(digraph.nodes)} edges={len(digraph.hasse)}\n")
    return 0


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")


def cmd_verify(args) -> int:
    names = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not names:
        raise ValueError(f"--suite {args.suite!r} names no suite")
    _require_samples(args.samples)
    results = run_suites(names, args.n, seed=args.seed, samples=args.samples)
    for res in results:
        sys.stdout.write(res.summary() + "\n")
    return 0 if all(r.ok for r in results) else 1


def cmd_witness(args) -> int:
    from . import symbolic as sym   # the countable layer: only witness and ostar load it
    if args.kind != "ordered-z":
        raise ValueError(f"unknown witness kind {args.kind!r}")
    if args.iterate <= 1:
        payload = sym.nonreversibility_witness(sym.OrderedZ(args.c)).to_json()
    else:
        chain = sym.increasing_chain(sym.OrderedZ(args.c), args.iterate)
        links = [w.to_json() for w in chain]
        payload = {"chain": links, "verified": all(link["verified"] for link in links)}
    sys.stdout.write(_dumps(payload) + "\n")
    return 0 if payload["verified"] else 1


def cmd_ostar(args) -> int:
    from . import symbolic as sym
    from .descriptors import CofiniteSet, DifferenceSet, FiniteSet, OmegaStarSet
    _require_samples(args.samples)
    rng = random.Random(args.seed)
    family = sym.ad_family(args.family_size)
    refined = sym.construct_o_star(family)
    passes = failures = 0
    if args.check == "closure":
        for _ in range(args.samples):
            size = rng.randrange(0, min(5, len(family)))
            blocked = tuple(sorted(rng.sample(range(len(family)), size)))
            excluded = tuple(sorted(rng.sample(range(30), rng.randrange(8))))
            nbhd = OmegaStarSet(CofiniteSet(excluded), star=True)
            witness = sym.star_in_closure_check(family, blocked, nbhd)
            if witness.verify():
                passes += 1
            else:
                failures += 1
    else:
        for _ in range(args.samples):
            idx = rng.randrange(len(family))
            member = family.members[idx]
            removed = tuple(sym.nf_enumerate(sym.nf(member), rng.randrange(4)))
            candidate = DifferenceSet(member, FiniteSet(removed))
            cert = sym.blocking_nbhd(candidate, family)
            seq = sym.EventualSequence((), sym.EnumerationTail(candidate))
            flip = (sym.converges(seq, sym.STAR, sym.ConvSeq())
                    and not sym.converges(seq, sym.STAR, refined))
            if cert is not None and cert.index == idx and cert.verify() and flip:
                passes += 1
            else:
                failures += 1
    payload = {"check": args.check, "family_size": args.family_size,
               "samples": args.samples, "passes": passes, "failures": failures}
    sys.stdout.write(_dumps(payload) + "\n")
    return 0 if failures == 0 else 1


def cmd_ramsey(args) -> int:
    if args.input and args.input != "-":
        with open(args.input) as handle:
            tokens = handle.read().split()
    else:
        tokens = sys.stdin.read().split()
    values = [int(tok) for tok in tokens]
    if args.mode == "pairs":
        coloring = ("increasing_pairs" if args.coloring == "increasing"
                    else "distinct_pairs")
        result = ramsey_mod.homogeneous_pairs(values, coloring)
    elif args.mode == "injective":
        result = ramsey_mod.constant_or_injective(values)
    else:
        result = ramsey_mod.constant_or_increasing(iter(values), args.k, args.fuel)
    if result is None:
        sys.stdout.write(_dumps({"found": False}) + "\n")
        return 1
    payload = result.to_json()
    payload["found"] = True
    payload["size"] = len(result.indices)
    sys.stdout.write(_dumps(payload) + "\n")
    if args.mode != "increasing" and args.k and len(result.indices) < args.k:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revtop",
        description="decision procedures for reversibility of topologies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate all topologies on n points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "summary"], default="summary")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("classify", help="classify orbit representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "summary"], default="summary")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("order", help="export the condensational order digraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", default=None, help="write the Hasse diagram as DOT")
    p.add_argument("--json", default=None, help="write the adjacency as JSON")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True,
                   help="comma-separated suite names: " + ",".join(sorted(SUITES)))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="emit symbolic non-reversibility witnesses")
    p.add_argument("kind", choices=["ordered-z"])
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--iterate", type=int, default=1)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("ostar", help="certificate suites for the refined sequence space")
    p.add_argument("--family-size", type=int, default=8)
    p.add_argument("--check", choices=["closure", "blocking"], required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ostar)

    p = sub.add_parser("ramsey", help="homogeneous subsequence extraction")
    p.add_argument("--mode", choices=["pairs", "injective", "increasing"], required=True)
    p.add_argument("--coloring", choices=["increasing", "distinct"], default="increasing")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--fuel", type=int, default=10000)
    p.add_argument("input", nargs="?", default=None,
                   help="file of whitespace-separated integers (default stdin)")
    p.set_defaults(func=cmd_ramsey)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TopologyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
