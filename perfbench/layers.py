"""Per-layer metrics from the traced run's span records."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOTS = ("service.search", "service.compare", "service.ingest", "service.delete")
SPANS = ROOTS + (
    "search.parse",
    "storage.postings",
    "search.match",
    "search.xseek",
    "xmlmodel.copy",
    "search.rank",
    "storage.lazy_decode",
    "service.encode",
    "features.extract",
    "core.dfs",
    "comparison.table",
    "xmlmodel.parse",
    "storage.clone",
    "storage.mutate",
    "storage.finalize",
    "storage.snapshot_save",
    "storage.snapshot_load",
    "service.http_overhead",
)
# Ratios and counts besides the spans: (name, unit).
RATIOS = (
    ("engine.cache_hit_ratio", "ratio"),
    ("search.copies_per_served_result", "ratio"),
    ("storage.lazy_decodes_per_request", "count"),
    ("service.cursor_410s", "count"),
    ("storage.snapshot_save.overlap_ms", "ms"),
    ("trace.overhead_pct", "%"),
)
# Client-side figures of the untraced run that are too noisy across seeds to
# bound (or exist on one workload only); reported here, 0 where they do not
# apply.
CLIENT = {
    "throughput_rps": "1/s",
    "search_p90_ms": "ms",
    "compare_p50_ms": "ms",
    "compare_p90_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "walk_complete_ratio": "ratio",
    "generator_lag_ms": "ms",
    "error_ratio": "ratio",
}


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    units = []
    for span in SPANS:
        units += [(f"{span}.self_ms", "ms"), (f"{span}.calls", "count")]
    return units + list(RATIOS) + list(CLIENT.items())


def _union_overlap(interval: Tuple[float, float], others: List[Tuple[float, float]]) -> float:
    """Seconds of ``interval`` covered by the union of ``others``."""
    low, high = interval
    clipped = sorted((max(low, a), min(high, b)) for a, b in others if b > low and a < high)
    covered, reach = 0.0, low
    for a, b in clipped:
        if b > reach:
            covered += b - max(a, reach)
            reach = b
    return covered


def span_metrics(
    spans_path: Path, window: Tuple[float, float], client_latencies: List[float]
) -> Tuple[Dict[str, float], Dict[str, List[float]], int]:
    """Aggregate the records of the measured window.

    Returns the per-layer metrics, the total ``[calls, self seconds]`` of
    every span path (for :func:`print_tree`) and the root request count.  Span metrics are means per
    root request; ``storage.snapshot_load`` is per boot, since loading
    happens once, before any request.
    """
    records = json.loads(spans_path.read_text(encoding="utf-8"))
    low, high = window
    requests = [r for r in records if r["root"] in ROOTS and low <= r["start"] and r["end"] <= high]
    saves = [r for r in records if r["root"] == "storage.snapshot_save" and low <= r["start"] <= high]
    loads = [r for r in records if r["root"] == "storage.snapshot_load"]
    count = max(1, len(requests))

    tree: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    counters: Dict[str, int] = defaultdict(int)
    for record in requests + saves:
        for path, (calls, seconds) in record["spans"].items():
            tree[path][0] += calls
            tree[path][1] += seconds
            by_name[path.rsplit("/", 1)[-1]][0] += calls
            by_name[path.rsplit("/", 1)[-1]][1] += seconds
        for name, value in record["counters"].items():
            counters[name] += value

    metrics: Dict[str, float] = {}
    for span in SPANS:
        calls, seconds = by_name.get(span, (0, 0.0))
        metrics[f"{span}.self_ms"] = seconds * 1000.0 / count
        metrics[f"{span}.calls"] = calls / count
    load_seconds = [r["spans"]["storage.snapshot_load"][1] for r in loads]
    metrics["storage.snapshot_load.self_ms"] = (
        1000.0 * sum(load_seconds) / len(load_seconds) if load_seconds else 0.0
    )
    metrics["storage.snapshot_load.calls"] = float(len(loads))
    for record in loads:
        for path, (calls, seconds) in record["spans"].items():
            tree[path][0] += calls
            tree[path][1] += seconds

    root_mean = sum(r["end"] - r["start"] for r in requests) / count
    client_mean = sum(client_latencies) / max(1, len(client_latencies))
    metrics["service.http_overhead.self_ms"] = (client_mean - root_mean) * 1000.0
    metrics["service.http_overhead.calls"] = 1.0 if requests else 0.0

    lookups = counters.get("cache_lookups", 0)
    metrics["engine.cache_hit_ratio"] = (
        1.0 - counters.get("evaluations", 0) / lookups if lookups else 0.0
    )
    served = counters.get("served_items", 0)
    metrics["search.copies_per_served_result"] = (
        by_name.get("xmlmodel.copy", (0, 0.0))[0] / served if served else 0.0
    )
    metrics["storage.lazy_decodes_per_request"] = by_name.get("storage.lazy_decode", (0, 0.0))[0] / count
    metrics["service.cursor_410s"] = float(
        sum(1 for r in requests if r["error"] == "InvalidCursorError")
    )
    foreground = [(r["start"], r["end"]) for r in requests]
    overlaps = [_union_overlap((s["start"], s["end"]), foreground) for s in saves]
    metrics["storage.snapshot_save.overlap_ms"] = (
        1000.0 * sum(overlaps) / len(overlaps) if overlaps else 0.0
    )
    return metrics, dict(tree), len(requests)


def print_tree(tree: Dict[str, List[float]], requests: int, out) -> None:
    """The span tree: per path, self ms and calls per root request."""
    print(f"span tree (per root request, {requests} requests; load per boot):", file=out)
    print(f"  {'span':<58} {'self_ms':>10} {'calls':>9}", file=out)
    for path in sorted(tree):
        calls, seconds = tree[path]
        depth = path.count("/")
        name = "  " * depth + path.rsplit("/", 1)[-1]
        per = 1 if path.startswith("storage.snapshot_load") else max(1, requests)
        print(f"  {name:<58} {seconds * 1000.0 / per:>10.3f} {calls / per:>9.3f}", file=out)
