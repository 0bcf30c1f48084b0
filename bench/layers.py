"""Per-layer metrics derived from the spans of one traced replay.

Every metric is reported on every workload; a layer the workload does not
call reads 0.  Times are in seconds of span time.  ``<layer>.<fn>_s`` counts
only the outermost span of that name, so recursion is not double-counted;
``<layer>.self_s`` is the time inside the layer's spans not covered by a
child span, which splits the replay's time between the layers.  The metric
names, units and directions are declared once, in ``BENCHMARK.json``.
"""
from __future__ import annotations

from collections import defaultdict

from tracing import COMMAND, END, INFO, NAME, PARENT, START

SUITES = ("enum", "fact11", "fact12", "prop14", "thm31")
RAMSEY_CASES = ("wide", "symbols", "distinct", "sorted", "injective", "increasing")
LAYERS = ("enumeration", "topology", "order", "suites", "ramsey", "descriptors", "symbolic")

# Span name behind each "<name>_s" metric that is a plain outermost-span sum.
SPAN_TIMES = {
    "enumeration.closure_catalog_s": "enumeration.closure_catalog",
    "enumeration.preorder_catalog_s": "enumeration.preorder_catalog",
    "topology.mask_tables_s": "topology.mask_tables",
    "topology.canonical_form_s": "topology.canonical_form",
    "order.cond_order_s": "order.cond_order",
    "order.reversible_s": "order.reversible",
    "order.weakly_reversible_s": "order.weakly_reversible",
    "order.strongly_reversible_s": "order.strongly_reversible",
    "order.conv_hull_s": "order.conv_hull",
    "descriptors.nf_s": "descriptors.nf",
    "descriptors.nf_intersection_s": "descriptors.nf_intersection",
    "descriptors.nf_enumerate_s": "descriptors.nf_enumerate",
    "symbolic.blocking_nbhd_s": "symbolic.blocking_nbhd",
    "symbolic.star_in_closure_s": "symbolic.star_in_closure",
    "symbolic.converges_s": "symbolic.converges",
    "symbolic.cert_verify_s": "symbolic.cert_verify",
    "symbolic.increasing_chain_s": "symbolic.increasing_chain",
    "cli.main_s": "cli.main",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(spans, commands, outcomes, untraced_s: list[float],
           traced_s: list[float]) -> dict[str, float]:
    """Every per-layer metric from one traced replay of ``commands``.
    ``untraced_s`` and ``traced_s`` are each command's replay time without and
    with spans."""
    duration = [(s[END] - s[START]) / 1e9 for s in spans]
    children = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]] += duration[i]

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield p
            p = spans[p][PARENT]

    outermost = [all(spans[p][NAME] != span[NAME] for p in ancestors(i))
                 for i, span in enumerate(spans)]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if outermost[i]:
            by_name[span[NAME]].append(i)

    def total(name: str) -> float:
        return sum(duration[i] for i in by_name[name])

    m = {metric: total(name) for metric, name in SPAN_TIMES.items()}

    builds = [spans[i][INFO] for i in by_name["enumeration.closure_catalog"] if spans[i][INFO]]
    m["enumeration.topologies"] = sum(b[0] for b in builds)
    m["enumeration.orbits"] = sum(b[1] for b in builds)
    m["enumeration.catalog_builds"] = len(builds)
    m["topology.canonical_form_calls"] = len(by_name["topology.canonical_form"])
    orders = [spans[i][INFO] for i in by_name["order.cond_order"] if spans[i][INFO]]
    m["order.nodes"] = sum(o[0] for o in orders)
    m["order.hasse_edges"] = sum(o[1] for o in orders)

    # Suite time with the catalog prebuilt: a catalog build inside a suite
    # is charged to enumeration, not to the suite.
    catalog_in_suite: dict[int, float] = defaultdict(float)
    for i in by_name["enumeration.closure_catalog"]:
        for p in ancestors(i):
            if spans[p][NAME].startswith("suites."):
                catalog_in_suite[p] += duration[i]
                break
    agreed = instances = 0
    for suite in SUITES:
        ids = by_name[f"suites.{suite}"]
        seconds = sum(duration[i] - catalog_in_suite[i] for i in ids)
        count = sum(spans[i][INFO][1] for i in ids if spans[i][INFO])
        agreed += sum(spans[i][INFO][0] for i in ids if spans[i][INFO])
        instances += count
        m[f"suites.{suite}_s"] = seconds
        m[f"suites.{suite}_instances"] = count
        m[f"suites.{suite}_us_per_instance"] = _ratio(seconds * 1e6, count)
    m["suites.agreed_ratio"] = _ratio(agreed, instances)

    case_seconds: dict[str, float] = defaultdict(float)
    size_of: dict[int, int] = {}
    for i in by_name["ramsey.extract"]:
        command = commands[spans[i][COMMAND]]
        case_seconds[command.case] += duration[i]
        if spans[i][INFO] is not None:
            size_of[spans[i][COMMAND]] = spans[i][INFO]
    for case in RAMSEY_CASES:
        m[f"ramsey.{case}_s"] = case_seconds[case]
    m["ramsey.values"] = sum(c.values for c in commands)
    ratios = [size_of.get(k, 0) / c.optimum for k, c in enumerate(commands) if c.optimum]
    m["ramsey.size_over_optimum"] = min(ratios) if ratios else 0.0

    m["descriptors.nf_intersection_calls"] = len(by_name["descriptors.nf_intersection"])
    m["symbolic.certs"] = len(by_name["symbolic.cert_verify"])
    blocking = [spans[i][INFO] for i, s in enumerate(spans) if s[NAME] == "symbolic.blocking_nbhd"]
    m["symbolic.blocked_ratio"] = _ratio(sum(blocking), len(blocking))

    self_time: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        self_time[span[NAME].split(".")[0]] += duration[i] - children[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["cli.self_s"] = self_time["cli"]
    m["cli.output_bytes"] = sum(len(text.encode()) for o in outcomes
                                for text in (o.stdout, *o.files.values()))
    m["trace.overhead_frac"] = _ratio(sum(traced_s) - sum(untraced_s), sum(untraced_s))
    m["trace.spans"] = len(spans)
    return m
