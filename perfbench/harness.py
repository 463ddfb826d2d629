"""The measuring loop shared by every workload.

A workload object provides:

- ``build(seed)`` — construct the system under test (timed as set-up);
- ``prepare(seed)`` — generate the inputs and compute the oracles
  (untimed, run once, after the first build);
- ``warm()`` — warm caches and lazy state (timed as set-up);
- ``reference()`` — once, after the last set-up and before any
  wrapping: record what each operation is charged when untraced, which
  every measured round must repeat exactly (untimed);
- ``instrument(recorder)`` — wrap the layers' entry points (traced runs);
- ``begin_measurement()`` — note the counters the layer metrics diff;
- ``run_round(recorder)`` — one whole round of the fixed operation list,
  returning a :class:`Round`;
- ``layer_counts(ops)`` — per-layer counts over the measured phase;
- ``close()``;

and a ``setup_problems`` list of wrong answers found while preparing.

Set-up runs ``SETUPS`` times and reports the median; the last system
built is the one measured.  The measured phase repeats whole rounds
until ``seconds`` have passed and at least ``MIN_OPS`` operations ran,
so the 99th percentile always has ten samples beyond it.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List

from tracing import SpanRecorder, clock, self_times

SETUPS = 3
MIN_OPS = 1000

#: Span names (layer entry points) whose self time is reported as
#: ``<name>_us`` per operation.
SPAN_LAYERS = (
    "bench.self",
    "serving.overhead",
    "core.stats",
    "core.choose",
    "core.execute",
    "gateway.client",
    "remote.scatter",
    "remote.transport",
    "remote.codec",
    "textsys.search",
    "textsys.retrieve",
    "diskindex.decode",
)

#: Every per-layer metric with its unit, as registered in BENCHMARK.json.
LAYER_UNITS: Dict[str, str] = {
    **{f"{name}_us": "us" for name in SPAN_LAYERS},
    "bench.op_us": "us",
    "core.searches_per_query": "count",
    "serving.snapshot_ms": "ms",
    "serving.shared_joins": "count",
    "gateway.cache_hit_rate": "ratio",
    "gateway.cache_lookups": "count",
    "gateway.tracer_spans": "count",
    "remote.frame_bytes": "bytes",
    "textsys.postings_per_search": "count",
    "diskindex.block_fetches": "count",
    "diskindex.bytes_read": "bytes",
    "diskindex.block_hit_rate": "ratio",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops": "ops/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
    "charged_s": "s",
}


@dataclass
class Round:
    """What one round of operations did."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    charged: float = 0.0
    #: Seconds of the round spent checking answers (excluded from the
    #: throughput denominator).
    check_seconds: float = 0.0
    #: Descriptions of wrong answers or broken identities.
    mismatches: List[str] = field(default_factory=list)


def nearest_rank(sorted_values: List[float], fraction: float) -> float:
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    setups: int = SETUPS,
    min_ops: int = MIN_OPS,
) -> Dict[str, Any]:
    """Set up, run the measured phase, and return the result object."""
    setup_times = []
    for attempt in range(setups):
        if attempt:
            workload.close()
        started = clock()
        workload.build(seed)
        built = clock()
        if attempt == 0:
            workload.prepare(seed)
        warm_start = clock()
        workload.warm()
        setup_times.append(built - started + clock() - warm_start)
    workload.reference()

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        workload.instrument(recorder)
    workload.begin_measurement()
    latencies: List[float] = []
    attempted = failed = 0
    charged = check_seconds = 0.0
    mismatches: List[str] = list(workload.setup_problems)
    started = clock()
    while True:
        result = workload.run_round(recorder)
        latencies.extend(result.latencies)
        attempted += result.attempted
        failed += result.failed
        charged += result.charged
        check_seconds += result.check_seconds
        mismatches.extend(result.mismatches)
        if clock() - started >= seconds and attempted >= min_ops:
            break
    busy = clock() - started - check_seconds
    ops = attempted - failed
    layer_counts = workload.layer_counts(max(ops, 1))
    if recorder is not None:
        recorder.unpatch()
    workload.close()

    if recorder is None:
        ordered = sorted(latencies)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_ops": ops / busy,
            "p50_ms": 1e3 * nearest_rank(ordered, 0.50),
            "p99_ms": 1e3 * nearest_rank(ordered, 0.99),
            "peak_rss_mb": peak_rss_mb(),
            "charged_s": charged / max(ops, 1),
        }
        units = END_TO_END_UNITS
    else:
        metrics = layer_metrics(recorder, layer_counts, workload.name, out_dir, mismatches)
        units = LAYER_UNITS
    for problem in mismatches[:20]:
        print(f"MISMATCH {workload.name}: {problem}")
    if len(mismatches) > 20:
        print(f"... {len(mismatches) - 20} more mismatches")
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_metrics(
    recorder: SpanRecorder,
    counts: Dict[str, float],
    workload_name: str,
    out_dir: str,
    mismatches: List[str],
) -> Dict[str, float]:
    """Per-operation self time of every layer, plus the layer counts."""
    os.makedirs(out_dir, exist_ok=True)
    recorder.write(os.path.join(out_dir, f"trace-{workload_name}.jsonl"))
    seconds_by_span, root_seconds, ops = self_times(recorder.spans)
    unknown = set(seconds_by_span) - set(SPAN_LAYERS)
    if unknown:
        mismatches.append(f"spans outside the layer table: {sorted(unknown)}")
    attributed = sum(seconds_by_span.values())
    if not math.isclose(attributed, root_seconds, rel_tol=1e-6, abs_tol=1e-9 * max(ops, 1)):
        mismatches.append(
            f"layer self times add up to {attributed:.6f}s but the traced "
            f"operations took {root_seconds:.6f}s"
        )
    ops = max(ops, 1)
    metrics = {f"{name}_us": 1e6 * seconds_by_span.get(name, 0.0) / ops for name in SPAN_LAYERS}
    metrics["bench.op_us"] = 1e6 * root_seconds / ops
    for name in LAYER_UNITS:
        if name not in metrics:
            metrics[name] = float(counts.get(name, 0.0))
    return metrics
