"""Acceptance suite: one test per criterion, one pass/fail line per criterion.

Run it, with the PASS lines, as:
    pytest tests/test_acceptance.py -s
"""
import random
import subprocess
import sys
import time
from itertools import combinations, product

from conftest import brute_force_topologies

from revtop.descriptors import (
    STAR,
    CofiniteSet,
    DifferenceSet,
    FiniteSet,
    FinSupportPerm,
    OmegaStarSet,
    OpenLeftZ,
    ShiftZ,
    nf,
    nf_enumerate,
    word_contains,
)
from revtop.enumeration import catalog, enumerate_topologies_by_closure
from revtop.order import (
    LEQ_METHODS,
    REVERSIBILITY_METHODS,
    StrongKind,
    classify_strongly_reversible,
    condensational_leq,
    conv_hull,
    homeo_class,
    is_reversible,
    is_strongly_reversible,
    is_weakly_reversible,
    sim_class,
)
from revtop.ramsey import (
    constant_or_injective,
    homogeneous_pairs,
    sqrt_bound,
    verify_result,
)
from revtop.symbolic import (
    ConvSeq,
    member_open,
    CoSmall,
    EnumerationTail,
    EventualSequence,
    OrderedZ,
    ad_family,
    blocking_nbhd,
    construct_o_star,
    converges,
    image_topology_symbolic,
    increasing_chain,
    nonreversibility_witness,
    star_in_closure_check,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{extra}")
    assert ok, f"{name} failed: {detail}"


EXPECTED_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}


def test_criterion_1_enumeration_cross_validation():
    start = time.time()
    ok = True
    for n, count in EXPECTED_COUNTS.items():
        direct = catalog(n).topologies
        oracle = enumerate_topologies_by_closure(n)
        ok = ok and len(direct) == count and direct == oracle
        if n <= 3:
            ok = ok and list(direct) == brute_force_topologies(n)
    elapsed = time.time() - start
    report("criterion-1 enumeration cross-validation", ok and elapsed < 10.0,
           f"counts={[len(catalog(n)) for n in range(5)]} elapsed={elapsed:.2f}s")


def test_criterion_1_enumeration_n5_flagged():
    start = time.time()
    direct = catalog(5).topologies
    oracle = enumerate_topologies_by_closure(5)
    elapsed = time.time() - start
    ok = len(direct) == 6942 and direct == oracle and elapsed < 120.0
    report("criterion-1 enumeration n=5", ok,
           f"count={len(direct)} elapsed={elapsed:.2f}s")


def test_criterion_2_reversibility_methods_agree_n4():
    cat = catalog(4)
    bad = 0
    for t in cat.topologies:
        answers = [is_reversible(t, m) for m in REVERSIBILITY_METHODS]
        if answers != [True, True, True, True]:
            bad += 1
    report("criterion-2 four reversibility tests on all 355",
           bad == 0, f"disagreements={bad}")


def test_criterion_3_ordering_methods_agree():
    cat3 = catalog(3)
    bad = 0
    for a in cat3.topologies:
        for b in cat3.topologies:
            if len({condensational_leq(a, b, m) for m in LEQ_METHODS}) != 1:
                bad += 1
    cat4 = catalog(4)
    rng = random.Random(0)
    tops = cat4.topologies
    for _ in range(10000):
        a = tops[rng.randrange(len(tops))]
        b = tops[rng.randrange(len(tops))]
        if len({condensational_leq(a, b, m) for m in LEQ_METHODS}) != 1:
            bad += 1
    report("criterion-3 three ordering tests (841 pairs n=3, 10000 seeded n=4)",
           bad == 0, f"disagreements={bad}")


def test_criterion_4_class_convexity_and_weak_reversibility():
    bad = 0
    for n in range(5):
        cat = catalog(n)
        for t in cat.topologies:
            cls = homeo_class(t)
            sim = sim_class(t)
            if sim != conv_hull(cls):
                bad += 1
            if is_weakly_reversible(t) != (sim == cls):
                bad += 1
    report("criterion-4 equivalence classes are convex hulls, n <= 4",
           bad == 0, f"violations={bad}")


def _strong_classification_consistent(cat) -> tuple[int, int]:
    bad = 0
    strong = 0
    for t in cat.topologies:
        brute = len(homeo_class(t)) == 1
        fast = is_strongly_reversible(t)
        label = classify_strongly_reversible(t)
        if fast != brute or fast != (label != StrongKind.NOT_STRONGLY_REVERSIBLE):
            bad += 1
        if fast:
            strong += 1
    return bad, strong


def test_criterion_5_strong_reversibility_finite():
    bad = 0
    counts = {}
    for n in range(5):
        errs, strong = _strong_classification_consistent(catalog(n))
        bad += errs
        counts[n] = strong
    ok = (bad == 0 and counts[0] == 1 and counts[1] == 1
          and all(counts[n] == 2 for n in (2, 3, 4)))
    report("criterion-5 strong-reversibility classification, n <= 4",
           ok, f"counts={counts}")


def test_criterion_5_strong_reversibility_n5_flagged():
    errs, strong = _strong_classification_consistent(catalog(5))
    report("criterion-5 strong-reversibility n=5",
           errs == 0 and strong == 2, f"count={strong}")


def test_criterion_6_cofinite_preservation():
    rng = random.Random(0)
    failures = 0
    for _ in range(1000):
        size = rng.randrange(0, 9)
        support = rng.sample(range(40), size)
        images = support[:]
        rng.shuffle(images)
        perm = FinSupportPerm(tuple(zip(support, images)))
        schema = image_topology_symbolic(perm, CoSmall())
        if not (schema.topology == CoSmall() and schema.verify()):
            failures += 1
    report("criterion-6 1000 seeded permutations preserve the cofinite topology",
           failures == 0, f"failures={failures}")


def test_criterion_7_ordered_line_witness_chain():
    ok = True
    w = nonreversibility_witness(OrderedZ(0))
    ok = ok and w.map == ShiftZ(1) and w.separator == OpenLeftZ(1) and w.verify()
    chain = increasing_chain(OrderedZ(0), 10)
    ok = ok and [x.image.c for x in chain] == list(range(1, 11))
    ok = ok and all(x.verify() for x in chain)
    # strictly increasing: each separator certifies the strict step
    for x in chain:
        ok = ok and x.source.c < x.image.c
        ok = ok and member_open(x.separator, x.image)
        ok = ok and not member_open(x.separator, x.source)
    # pairwise homeomorphic via shift schemas
    for i in range(10):
        for j in range(i + 1, 10):
            hop = image_topology_symbolic(ShiftZ(j - i), OrderedZ(i))
            ok = ok and hop.topology == OrderedZ(j) and hop.verify()
    report("criterion-7 ten-level homeomorphic chain with separators", ok)


def test_criterion_8_refined_sequence_space_mechanism():
    start = time.time()
    fam = ad_family(8)
    refined = construct_o_star(fam)
    failures = []

    # (i) pairwise intersections equal shared-prefix lengths, by enumeration
    for i, j in combinations(range(8), 2):
        claimed = fam.intersection_size(i, j)
        wi, wj = fam.words[i], fam.words[j]
        actual = {k for k in range(1 << 12) if word_contains(wi, k) and word_contains(wj, k)}
        if len(actual) != claimed:
            failures.append(f"pair ({i},{j})")

    # (ii) every small blocked set and sampled cofinite neighborhood is met
    rng = random.Random(8)
    neighborhoods = []
    for _ in range(20):
        excluded = tuple(sorted(rng.sample(range(64), rng.randrange(12))))
        neighborhoods.append(OmegaStarSet(CofiniteSet(excluded), star=True))
    blocked_sets = [ks for size in range(5) for ks in combinations(range(8), size)]
    assert len(blocked_sets) == 163
    for blocked in blocked_sets:
        for nbhd in neighborhoods:
            witness = star_in_closure_check(fam, blocked, nbhd)
            if not witness.verify():
                failures.append(f"closure {blocked}")

    # (iii) blockers exist for every member and small modification; convergence flips
    for idx, member in enumerate(fam.members):
        candidates = [member]
        els = nf_enumerate(nf(member), 3)
        for drop in range(1, 4):
            candidates.append(DifferenceSet(member, FiniteSet(els[:drop])))
        for cand in candidates:
            cert = blocking_nbhd(cand, fam)
            if cert is None or cert.index != idx or not cert.verify():
                failures.append(f"blocking {idx}")
                continue
            seq = EventualSequence((), EnumerationTail(cand))
            if not converges(seq, STAR, ConvSeq()) or converges(seq, STAR, refined):
                failures.append(f"flip {idx}")

    elapsed = time.time() - start
    report("criterion-8 refined-space mechanism (family of 8)",
           not failures and elapsed < 30.0,
           f"failures={failures[:3]} elapsed={elapsed:.1f}s")


def test_criterion_9_ramsey_bounds():
    failures = 0
    for seq in product(range(3), repeat=8):
        res = constant_or_injective(seq)
        if len(res.indices) < sqrt_bound(8) or not verify_result(seq, res):
            failures += 1
    rng = random.Random(9)
    floor_log = 8  # for length-256 inputs
    for i in range(10000):
        wide = i % 2 == 0
        # random bytes are uniform on 0..255, and their low five bits on 0..31
        data = rng.randbytes(256)
        seq = list(data) if wide else [b & 31 for b in data]
        coloring = "increasing_pairs" if i % 4 < 2 else "distinct_pairs"
        res = homogeneous_pairs(seq, coloring)
        if len(res.indices) < floor_log or not verify_result(seq, res):
            failures += 1
    report("criterion-9 homogeneous extraction bounds",
           failures == 0, f"failures={failures}")


CLI_COMMANDS = [
    ("enum", "--n", "3", "--format", "json"),
    ("enum", "--n", "4", "--format", "summary"),
    ("classify", "--n", "3", "--format", "csv"),
    ("order", "--n", "3"),
    ("verify", "--suite", "enum,fact11,fact12,prop14,thm31", "--n", "3", "--seed", "0"),
    ("witness", "ordered-z", "--c", "0", "--iterate", "10"),
    ("ostar", "--family-size", "8", "--check", "closure", "--samples", "20", "--seed", "0"),
    ("ostar", "--family-size", "8", "--check", "blocking", "--samples", "20", "--seed", "0"),
    ("ramsey", "--mode", "pairs", "--coloring", "distinct"),
]


def test_criterion_10_cli_determinism():
    ok = True
    detail = ""
    for args in CLI_COMMANDS:
        # the two processes of a pair run side by side
        procs = [subprocess.Popen([sys.executable, "-m", "revtop", *args], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for _ in range(2)]
        runs = []
        for proc in procs:
            out, _ = proc.communicate(b"3 1 4 1 5 9 2 6", timeout=300)
            runs.append((proc.returncode, out))
        if runs[0] != runs[1] or runs[0][0] != 0:
            ok = False
            detail = f"nondeterministic or failing: {args}"
            break
    report("criterion-10 byte-identical CLI output", ok, detail)
