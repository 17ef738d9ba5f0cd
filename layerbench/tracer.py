"""Span tracer for the traced run.

The tracer wraps public functions of each ``repro`` layer, from the
benchmark's own files, and only for the duration of the traced work:
:meth:`Tracer.install` patches them and :meth:`Tracer.uninstall` puts
the originals back, so the untraced run in the same process executes
the unmodified program.  Spans (name, start, end, parent) are kept in
flat in-memory lists and written out by :meth:`Tracer.write` at the end.
A layer's self time is its spans' durations minus the durations of
their direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: Span names that are the runner's per-scenario spans; a scenario
#: span nested in another (a batch falling back to solo runs) is not
#: counted twice.
SCENARIO_SPANS = ("campaigns.runner.scenario", "net.scenario")


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.names[self._stack[-1]] if self._stack else None

    def _wrap(self, fn: Callable, name, count: Optional[Callable]) -> Callable:
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if count is not None:
                enclosing = names[stack[-1]] if stack else None
            index = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result, span, enclosing)
            return result

        return traced

    def patch(self, owner, attr: str, name, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module function or a method defined
        on the class ``owner``) with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name, count))
        self._patches.append((owner, attr, original))

    def patch_counter(self, owner, attr: str, count: Callable) -> None:
        """Wrap ``owner.attr`` to count its calls without a span (for
        generators, whose call returns before the work is done)."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            count(self.counts, args, kwargs)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- ledger ---------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: summed duration minus direct-children time."""
        if not self.names:
            return {}
        starts = np.asarray(self.starts, dtype=np.int64)
        duration = np.asarray(self.ends, dtype=np.int64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - child
        labels, ids = np.unique(np.asarray(self.names, dtype=object), return_inverse=True)
        sums = np.bincount(ids, weights=own, minlength=len(labels))
        return {str(label): float(total) / 1e9 for label, total in zip(labels, sums)}

    def calls(self) -> Counter:
        """Per span name: spans not nested directly in a span of the
        same name (an override calling its base counts once)."""
        out: Counter = Counter()
        names = self.names
        for span, parent in zip(names, self.parents):
            if parent < 0 or names[parent] != span:
                out[span] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            ):
                handle.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent})
                    + "\n"
                )


# ----------------------------------------------------------------------
# The layer map: which public functions make up which layer.
# ----------------------------------------------------------------------


def _count_rows(counts, args, kwargs, result, span, enclosing) -> None:
    counts["core.rows_evaluated"] += len(result) if hasattr(result, "__len__") else 1


def _count_step(counts, args, kwargs, result, span, enclosing) -> None:
    if span == "model.step":
        counts["model.node_steps"] += args[0].topology.n
        counts["model.moves"] += len(result.changed)


def _count_replicas(counts, args, kwargs, result, span, enclosing) -> None:
    counts["model.replica.replicas"] += len(result)


def _count_scenarios(counts, args, kwargs, result, span, enclosing) -> None:
    if enclosing not in SCENARIO_SPANS:
        counts["campaigns.runner.scenarios"] += (
            len(result) if isinstance(result, list) else 1
        )


def _count_get(counts, args, kwargs, result, span, enclosing) -> None:
    counts["campaigns.cache.hits"] += result is not None


def _count_put(counts, args, kwargs, result, span, enclosing) -> None:
    # Entries embed the wall-clock ``elapsed_ms``, so bytes_written moves
    # by a few bytes between runs; every other count here repeats exactly.
    if result:
        cache, scenario = args[0], args[1]
        # The unwrapped hash: counting must not add a content_hash span.
        path = cache.entry_path(scenario.content_hash.__wrapped__(scenario))
        counts["campaigns.cache.bytes_written"] += os.path.getsize(path)


def _count_jobs(counts, args, kwargs) -> None:
    jobs = args[1]
    counts["campaigns.dispatch.jobs"] += len(jobs)
    counts["campaigns.dispatch.batched_jobs"] += sum(1 for job in jobs if len(job) > 1)


def _scenario_span(args, kwargs) -> str:
    first = args[0]
    scenario = first[0] if isinstance(first, (list, tuple)) else first
    return "net.scenario" if scenario.runtime == "net" else "campaigns.runner.scenario"


def _step_span(args, kwargs) -> str:
    from repro.net.runtime import NetExecution

    return "net.step" if isinstance(args[0], NetExecution) else "model.step"


def _monitor_classes() -> List[type]:
    from repro.model.engine import Monitor

    found, todo = [], [Monitor]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "on_step" in sub.__dict__:
                found.append(sub)
    return found


def install_layers(tracer: Tracer) -> None:
    """Patch the public entry points of every layer the ledger prices."""
    import repro.analysis.containment  # noqa: F401  (registers monitors)
    import repro.analysis.trace  # noqa: F401
    import repro.campaigns.aggregate as aggregate
    import repro.campaigns.cache as cache
    import repro.campaigns.dispatch as dispatch
    import repro.campaigns.registry as registry
    import repro.campaigns.runner as runner
    import repro.campaigns.spec as spec
    import repro.graphs.frontier as frontier
    import repro.graphs.generators as generators
    from repro.core.algau_native import NativeKernel
    from repro.core.algau_vec import VectorKernel
    from repro.model.array_engine import ArrayExecution
    from repro.model.engine import ExecutionBase
    from repro.model.execution import Execution
    from repro.model.replica_engine import ReplicaBatchExecution

    tracer.patch(generators, "make_graph", "graphs.build")
    tracer.patch(runner, "make_graph", "graphs.build")
    for builder in ("frontier_gnm", "frontier_colony"):
        tracer.patch(frontier, builder, "graphs.build")

    for method in ("delta_rows", "goodness_counts", "fold_pair_delta", "fold_pair_delta_by_owner"):
        tracer.patch(NativeKernel, method, "core.kernel",
                     _count_rows if method == "delta_rows" else None)
    for method in ("signal_presence", "delta_batch", "delta_one", "pair_deltas", "goodness_counts", "is_good"):
        tracer.patch(VectorKernel, method, "core.kernel",
                     _count_rows if method in ("delta_batch", "delta_one") else None)

    tracer.patch(ExecutionBase, "step", _step_span, _count_step)
    tracer.patch(ReplicaBatchExecution, "run_ensemble", "model.replica.ensemble", _count_replicas)

    for cls in _monitor_classes():
        tracer.patch(cls, "on_step", "analysis.monitor")
    for cls in (ExecutionBase, ArrayExecution, Execution):
        tracer.patch(cls, "graph_is_good", "analysis.predicate")

    tracer.patch(runner, "run_campaign", "campaigns.runner.campaign")
    tracer.patch(runner, "run_scenario", _scenario_span, _count_scenarios)
    tracer.patch(runner, "run_scenario_batch", _scenario_span, _count_scenarios)
    tracer.patch_counter(dispatch.SerialDispatcher, "dispatch", _count_jobs)
    tracer.patch(cache.ResultCache, "get", "campaigns.cache.get", _count_get)
    tracer.patch(cache.ResultCache, "put", "campaigns.cache.put", _count_put)
    tracer.patch(spec.Scenario, "content_hash", "campaigns.spec.content_hash")
    tracer.patch(registry, "build_campaign", "campaigns.registry.build")
    tracer.patch(aggregate, "aggregate_results", "campaigns.aggregate")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run."""
    own = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counts
    node_steps = counts["model.node_steps"]
    kernel_s = own.get("core.kernel", 0.0)
    gets = calls["campaigns.cache.get"]
    return {
        "graphs.build_s": own.get("graphs.build", 0.0),
        "graphs.builds": calls["graphs.build"],
        "core.kernel_s": kernel_s,
        "core.kernel_calls": calls["core.kernel"],
        "core.rows_evaluated": counts["core.rows_evaluated"],
        "core.kernel_ns_per_node_step": kernel_s * 1e9 / node_steps if node_steps else 0.0,
        "model.step_self_s": own.get("model.step", 0.0),
        "model.steps": calls["model.step"],
        "model.node_steps": node_steps,
        "model.moves": counts["model.moves"],
        "model.replica.ensemble_s": own.get("model.replica.ensemble", 0.0),
        "model.replica.replicas": counts["model.replica.replicas"],
        "analysis.monitor_s": own.get("analysis.monitor", 0.0),
        "analysis.predicate_s": own.get("analysis.predicate", 0.0),
        "analysis.predicate_calls": calls["analysis.predicate"],
        "net.scenario_s": own.get("net.scenario", 0.0) + own.get("net.step", 0.0),
        "campaigns.runner.scenario_self_s": own.get("campaigns.runner.scenario", 0.0),
        "campaigns.runner.scenarios": counts["campaigns.runner.scenarios"],
        "campaigns.runner.campaign_self_s": own.get("campaigns.runner.campaign", 0.0),
        "campaigns.dispatch.jobs": counts["campaigns.dispatch.jobs"],
        "campaigns.dispatch.batched_jobs": counts["campaigns.dispatch.batched_jobs"],
        "campaigns.cache.get_s": own.get("campaigns.cache.get", 0.0),
        "campaigns.cache.gets": gets,
        "campaigns.cache.hit_ratio": counts["campaigns.cache.hits"] / gets if gets else 0.0,
        "campaigns.cache.put_s": own.get("campaigns.cache.put", 0.0),
        "campaigns.cache.puts": calls["campaigns.cache.put"],
        "campaigns.cache.bytes_written": counts["campaigns.cache.bytes_written"],
        "campaigns.spec.content_hash_s": own.get("campaigns.spec.content_hash", 0.0),
        "campaigns.spec.content_hashes": calls["campaigns.spec.content_hash"],
        "campaigns.registry.build_s": own.get("campaigns.registry.build", 0.0),
        "campaigns.aggregate.aggregate_s": own.get("campaigns.aggregate", 0.0),
    }
