"""Metric definitions and the arithmetic shared by every workload.

Metric names and units are read from ``BENCHMARK.json``.  End-to-end
metrics come from the run with the benchmark's tracing off; per-layer
metrics from the separate traced run (``--trace 1``).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

_DECLARED = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: The tail percentile of each workload, fixed so that a faster program
#: is not judged on a deeper tail.  At the operation count of a 15 s run
#: with this commit's default backend, burst's p90 leaves ~14
#: operations beyond it (of ~140).  Trickle's p95 leaves ~35 (of ~700):
#: its p98 swung by 40% between runs on a 2-vCPU host, too much for
#: the bound.  Corpus makes only 15-25 operations of 0.6-1 s, so its
#: p66 leaves 5-8 beyond it and is a weak tail.
TAIL_PERCENTILE = {"corpus": 66, "trickle": 95, "burst": 90}

#: Service stages of the span tree, in request order.
STAGES = ("parse", "queue_wait", "batch_mine", "finalize", "serialize")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values, default: float = 0.0) -> float:
    """Median of ``values``; ``default`` when there are none."""
    values = list(values)
    return statistics.median(values) if values else default


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def end_to_end(workload: str, setups, latencies_s, docs: int,
               window_s: float, rss_kib: int) -> dict:
    """The end-to-end metric values of one measured window."""
    if not latencies_s:
        raise RuntimeError("no operation completed in the timed window")
    latencies_ms = [value * 1000.0 for value in latencies_s]
    return {
        "setup_s": statistics.median(setups),
        "docs_per_s": docs / window_s,
        "p50_ms": statistics.median(latencies_ms),
        "tail_ms": percentile(latencies_ms, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def per_layer(values: dict, traced: dict, untraced: dict) -> dict:
    """Every per-layer metric: ``values`` for the layers the workload
    loads, 0 for the layers it does not, and the tracing overhead
    (traced minus untraced) of each end-to-end metric."""
    values = dict(values)
    for name in END_TO_END:
        values[f"obs.trace_overhead.{name}"] = traced[name] - untraced[name]
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def render(values: dict, units: dict) -> dict:
    """``{name: {"value", "unit"}}`` in declaration order."""
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
