"""What the layer benchmark measures: workloads, metrics, bounds.

This module is the single source of ``BENCHMARK.json`` (``python3
layerbench/run.py --write-spec`` regenerates it) and of the metric
tables the workloads fill in.  It imports nothing from ``repro``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: How long one run measures, in seconds.
RUN_SECONDS = 25

#: name -> one-line reason the workload is in the benchmark.
WORKLOADS = {
    "frontier-stabilize": (
        "native lane, synchronous daemon, n=10^5 gnm and colony: kernel, "
        "engine step and monitor do all the work at ~40k moves per step; "
        "no networkx, dispatch or cache"
    ),
    "campaign-cold": (
        "~680 small networkx-built scenarios on every lane and daemon, with "
        "transient, rewire and churn faults: scenario driver, graph build, "
        "object engine and per-step overhead, cache writes beside compute"
    ),
    "campaign-warm": (
        "the read side of the cache campaign-cold writes: every pass is 100% "
        "hits, so cache get, checkpoint appends, content hashing and "
        "aggregation do the work and the kernel does none"
    ),
}

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which the metric may worsen.
#: The timing bounds sit at the allowed maximum: on the 2-vCPU host the
#: benchmark was tuned on, identical work runs 15-25% slower for
#: stretches of 20-60 s (a fixed pure-Python loop slows in step), which
#: no estimator inside one run can average away.
END_TO_END = (
    ("scenarios_per_s", "1/s", "higher", 0.25),
    ("ns_per_node_step", "ns", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p98_ms", "ms", "lower", 0.25),
    ("ok_fraction", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("graphs.build_s", "s", "lower"),
    ("graphs.builds", "count", "lower"),
    ("core.kernel_s", "s", "lower"),
    ("core.kernel_calls", "count", "lower"),
    ("core.rows_evaluated", "count", "lower"),
    ("core.kernel_ns_per_node_step", "ns", "lower"),
    ("model.step_self_s", "s", "lower"),
    ("model.steps", "count", "lower"),
    ("model.node_steps", "count", "lower"),
    ("model.moves", "count", "lower"),
    ("model.advance_ns_per_node_step", "ns", "lower"),
    ("model.step_ns_per_node_step", "ns", "lower"),
    ("model.run_ns_per_node_step", "ns", "lower"),
    ("model.run_over_advance", "ratio", "lower"),
    ("model.alloc_bytes_per_node", "B", "lower"),
    ("model.replica.ensemble_s", "s", "lower"),
    ("model.replica.replicas", "count", "higher"),
    ("analysis.monitor_s", "s", "lower"),
    ("analysis.predicate_s", "s", "lower"),
    ("analysis.predicate_calls", "count", "lower"),
    ("net.scenario_s", "s", "lower"),
    ("campaigns.runner.scenario_self_s", "s", "lower"),
    ("campaigns.runner.scenarios", "count", "higher"),
    ("campaigns.runner.campaign_self_s", "s", "lower"),
    ("campaigns.dispatch.jobs", "count", "lower"),
    ("campaigns.dispatch.batched_jobs", "count", "higher"),
    ("campaigns.cache.get_s", "s", "lower"),
    ("campaigns.cache.gets", "count", "lower"),
    ("campaigns.cache.hit_ratio", "ratio", "higher"),
    ("campaigns.cache.put_s", "s", "lower"),
    ("campaigns.cache.puts", "count", "lower"),
    ("campaigns.cache.bytes_written", "B", "lower"),
    ("campaigns.spec.content_hash_s", "s", "lower"),
    ("campaigns.spec.content_hashes", "count", "lower"),
    ("campaigns.registry.build_s", "s", "lower"),
    ("campaigns.aggregate.aggregate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "layerbench/run.py"],
        "paths": ["layerbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(path: Path) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
