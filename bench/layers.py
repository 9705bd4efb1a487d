"""What the traced run measures, and which end-to-end metric each layer
metric is expected to move.

Layers are the package modules (graph_core, dual_tree, constructive,
domination, generators, cli).  Each span is a public function, patched on
the module that calls it; every span yields ``<name>.self_s`` (seconds) and
``<name>.calls`` (count).  The derived metrics after the span table are
ratios of counts.  A metric whose base is zero on a workload (for example
the engine counters on exact_oracle, where the engine does not run) reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    name: str
    targets: tuple[str, ...]  # "module:attr" of each caller-side binding
    moves: str  # the end-to-end metric this layer should move, and where
    generator: bool = False
    on_return: tuple[str, Callable[[Any], int]] | None = None


def _trace_depth(result: Any) -> int:
    return result.trace.depth


SPANS = (
    Span(
        "graph_core.build_mop",
        ("mopdom.graph_core:build_mop",),
        "solve_ms_p50 on engine_large (the O(m^2) crossing scan); "
        "no change predicted on campaign_band or exact_oracle",
    ),
    Span(
        "graph_core.reduce_graph",
        ("mopdom.constructive:reduce_graph",),
        "graphs_per_s on campaign_band, solve_ms_p50 on engine_large",
    ),
    Span("graph_core.from_json", ("mopdom.cli:from_json",), "graphs_per_s on campaign_band"),
    Span("graph_core.to_json", ("mopdom.cli:to_json",), "graphs_per_s on campaign_band"),
    Span(
        "dual_tree.build_dual_tree",
        ("mopdom.constructive:build_dual_tree",),
        "solve_ms_p50 on engine_large first, then graphs_per_s on campaign_band",
    ),
    Span(
        "dual_tree.match_branch_shape",
        ("mopdom.constructive:match_branch_shape",),
        "solve_ms_p50 on engine_large (local leaf re-walks)",
    ),
    Span(
        "constructive.solve_bound",
        ("mopdom.constructive:solve_bound", "mopdom.cli:solve_bound"),
        "engine residual (candidate pairing, remap/inverse, trace steps): "
        "solve_ms_p50 on engine_large, graphs_per_s on campaign_band",
        on_return=("constructive.levels", _trace_depth),
    ),
    Span(
        "constructive.certify",
        ("mopdom.constructive:certify",),
        "solve_ms_p50 on engine_large, graphs_per_s on campaign_band",
    ),
    Span(
        "constructive.apply_rule",
        ("mopdom.constructive:apply_rule",),
        "graphs_per_s on campaign_band, solve_ms_p50 on engine_large",
    ),
    Span(
        "constructive.base_case_solve",
        ("mopdom.constructive:base_case_solve",),
        "graphs_per_s on campaign_band",
    ),
    Span(
        "domination.is_double_dominating",
        ("mopdom.constructive:is_double_dominating",),
        "solve_ms_p50 on engine_large, graphs_per_s on campaign_band",
    ),
    Span(
        "domination.bad_vertices",
        ("mopdom.constructive:bad_vertices", "mopdom.domination:bad_vertices"),
        "graphs_per_s on campaign_band (about 8 calls per graph)",
    ),
    Span(
        "domination.bound_report",
        ("mopdom.domination:bound_report",),
        "solve_ms_p50 on exact_oracle; no change predicted on engine workloads",
    ),
    Span(
        "domination.exact_min_double_dom",
        ("mopdom.domination:exact_min_double_dom",),
        "solve_ms_p50 on exact_oracle; no change predicted on engine workloads",
    ),
    Span(
        "domination.exact_min_two_dom",
        ("mopdom.domination:exact_min_two_dom",),
        "solve_ms_p50 on exact_oracle; no change predicted on engine workloads",
    ),
    Span(
        "generators.enumerate_all",
        ("mopdom.cli:enumerate_all",),
        "graphs_per_s on campaign_band",
        generator=True,
    ),
    Span(
        "generators.random_mop",
        ("mopdom.generators:random_mop",),
        "setup_s on engine_large and exact_oracle",
    ),
    Span(
        "cli.stress",
        ("mopdom.cli:_cmd_stress",),
        "graphs_per_s on campaign_band (instance building, aggregation, printing)",
    ),
)

# name -> (numerator, denominator, what it should move)
RATIOS = {
    "dual_tree.leaf_walks_per_level": (
        "dual_tree.match_branch_shape.calls",
        "constructive.levels",
        "leaf walks per reduction level, the waste an incremental engine cuts: "
        "solve_ms_p50 on engine_large",
    ),
    "constructive.candidate_yield": (
        "constructive.levels",
        "constructive.apply_rule.calls",
        "levels kept per rule application attempted",
    ),
}
# Hits over lookups of the engine's base-case cache; moves graphs_per_s on
# campaign_band.
CACHE_RATIO = "constructive.base_case.cache_hit_ratio"

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: dict[str, str] = {}
for _span in SPANS:
    PER_LAYER_UNITS[_span.name + ".self_s"] = "s"
    PER_LAYER_UNITS[_span.name + ".calls"] = "count"
PER_LAYER_UNITS["constructive.levels"] = "count"
for _name in (*RATIOS, CACHE_RATIO):
    PER_LAYER_UNITS[_name] = "ratio"
PER_LAYER_UNITS["trace_overhead_frac"] = "ratio"

# Metrics that must repeat exactly across traced runs with the same seed.
DETERMINISTIC = tuple(
    name for name in PER_LAYER_UNITS if not name.endswith(".self_s") and name != "trace_overhead_frac"
)


def base_case_cache() -> tuple[int, int] | None:
    """(hits, lookups) of the engine's base-case cache, or None if it is gone."""
    try:
        from mopdom.constructive import _base_case

        info = _base_case.cache_info()
    except (ImportError, AttributeError):
        return None
    return info.hits, info.hits + info.misses


def install(tracer: Any) -> list[str]:
    """Patch every span into the package; return the absent metric names."""
    absent = []
    for span in SPANS:
        if not tracer.install(span.name, span.targets, span.generator, span.on_return):
            absent += [span.name + ".self_s", span.name + ".calls"]
    return absent


def collect(tracer: Any, absent: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values after a traced run (trace_overhead_frac aside)."""
    absent = list(absent)
    values: dict[str, float] = {}
    for span in SPANS:
        if span.name + ".calls" in absent:
            continue
        values[span.name + ".self_s"] = tracer.self_s.get(span.name, 0.0)
        values[span.name + ".calls"] = tracer.calls.get(span.name, 0)
    if "constructive.levels" in tracer.broken or "constructive.solve_bound.calls" in absent:
        absent.append("constructive.levels")
    else:
        values["constructive.levels"] = tracer.counters.get("constructive.levels", 0)
    for name, (num, den, _) in RATIOS.items():
        if num in absent or den in absent:
            absent.append(name)
        else:
            values[name] = values[num] / values[den] if values[den] else 0.0
    cache = base_case_cache()
    if cache is None:
        absent.append(CACHE_RATIO)
    else:
        hits, lookups = cache
        values[CACHE_RATIO] = hits / lookups if lookups else 0.0
    return values, absent
