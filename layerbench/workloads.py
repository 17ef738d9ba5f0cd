"""One workload in one fresh process: set up, measure, check, report.

Started by ``run.py`` (never by hand) as
``workloads.py --workload W --seed S --seconds T --trace 0|1``.  With
``--trace 0`` it measures the end-to-end metrics with the program
unmodified; with ``--trace 1`` it runs a fixed amount of work once
untraced and once under :mod:`tracer`, and reports the per-layer
ledger.  ``--probe`` only imports ``repro`` and resolves the native
backend, and prints how long that took.

The last stdout line is the result object; the lines before it print
provenance and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

_T0 = time.perf_counter()
# Everything from here to IMPORT_S is set-up a user pays per invocation.
import networkx  # noqa: E402
import numpy as np  # noqa: E402

import numpy.random  # noqa: E402,F401
import repro.baselines  # noqa: E402,F401  (the zoo lanes campaigns load)
import repro.campaigns.aggregate as aggregate  # noqa: E402
import repro.campaigns.registry as registry  # noqa: E402
import repro.campaigns.runner as runner  # noqa: E402
import repro.graphs.frontier as frontier  # noqa: E402
from repro.analysis.monitors import MoveCounter  # noqa: E402
from repro.campaigns.cache import ResultCache  # noqa: E402
from repro.campaigns.spec import PERMANENT_FAULT_KINDS  # noqa: E402
from repro.core.algau import ThinUnison  # noqa: E402
from repro.core.algau_native import native_backend, native_backend_name  # noqa: E402
from repro.model.engine import create_execution  # noqa: E402
from repro.model.native_engine import NativeExecution  # noqa: E402
from repro.model.scheduler import SynchronousScheduler  # noqa: E402
from repro.net.adapter import NetAdapter  # noqa: E402,F401  (the net lane)

native_backend()
IMPORT_S = time.perf_counter() - _T0

import spec  # noqa: E402
import tracer as tracing  # noqa: E402

#: Frontier scale and diameter bound.
FRONTIER_N = 100_000
FRONTIER_D = 2
#: Registry campaigns of the cold/warm mix.  ``byzantine`` is left out
#: (48 s serially, single scenarios of 7-17 s); see also
#: :func:`campaign_scenarios`.
MIX = (
    "full",
    "native-pairing",
    "dynamic",
    "smoke",
    "thm11-scaling",
    "enabled-daemons",
    "bio",
    "fault-recovery",
    "net-smoke",
    "pareto-unison",
    "churn-phase",
)
#: ``churn-phase`` cells kept in the mix: the array and native sim lanes.
CHURN_LANES = {("array", "sim"), ("native", "sim")}
#: The engine-paired registries of the mix -> the rows each pairs
#: (pareto-unison pairs only its multi-engine algorithms).
PAIRED = {
    "native-pairing": lambda row: True,
    "enabled-daemons": lambda row: True,
    "net-smoke": lambda row: True,
    "churn-phase": lambda row: True,
    "pareto-unison": lambda row: row["algorithm"] in PARETO_PAIRED,
}
PARETO_PAIRED = {name for name, engines in registry.PARETO_ALGORITHMS if len(engines) > 1}
#: Set-up repetitions whose median is reported.
SETUP_REPEATS = 3
#: Fixed work of a traced run (it must repeat its counts exactly).
TRACE_FRONTIER_STARTS = 2
TRACE_WARM_PASSES = 10


class Sizes:
    """Input sizes; ``tiny`` shrinks every workload for the self-test."""

    def __init__(self, tiny: bool) -> None:
        self.frontier_n = 3_000 if tiny else FRONTIER_N
        self.mix = ("micro", "native-pairing") if tiny else MIX


def fail(message: str) -> None:
    """Abort the run without a result (the program is not measurable)."""
    print(f"layerbench: {message}", file=sys.stderr)
    sys.exit(3)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(samples) -> float:
    """The highest percentile with at least ten samples beyond it,
    between p50 and p98 (p98 for the ~570 jobs of a cold pass)."""
    return max(50.0, min(98.0, 100.0 * (1 - 10 / len(samples))))


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# frontier-stabilize
# ----------------------------------------------------------------------


def frontier_graphs(seed: int, n: int) -> dict:
    return {
        "gnm": frontier.frontier_gnm(n, 2 * n, seed),
        "colony": frontier.frontier_colony(n),
    }


def start_codes(seed: int, family: str, k: int, n: int) -> np.ndarray:
    """Start ``k`` of ``family``: a uniform random code vector."""
    rng = np.random.default_rng([seed, 0 if family == "gnm" else 1, k])
    return rng.integers(0, ThinUnison(FRONTIER_D).encoding.size, n)


def new_execution(topology, codes, engine="native", monitors=()):
    algorithm = ThinUnison(FRONTIER_D)
    initial = algorithm.encoding.decode_configuration(topology, codes)
    execution = create_execution(
        topology,
        algorithm,
        initial,
        SynchronousScheduler(),
        rng=np.random.default_rng(0),
        monitors=monitors,
        engine=engine,
    )
    if engine == "native" and not isinstance(execution, NativeExecution):
        fail(f"engine='native' built {type(execution).__name__}, not the native lane")
    return execution


def stabilize(topology, codes, engine="native") -> dict:
    """One start through the campaign path: ``MoveCounter`` plus
    ``run(until=graph_is_good)``."""
    started = time.perf_counter()
    mover = MoveCounter()
    execution = new_execution(topology, codes, engine, monitors=(mover,))
    ran = time.perf_counter()
    outcome = execution.run(
        max_rounds=registry.au_round_budget(FRONTIER_D), until=lambda e: e.graph_is_good()
    )
    done = time.perf_counter()
    return {
        "seconds": done - started,
        "run_s": done - ran,
        "steps": outcome.steps,
        "moves": mover.moves,
        "ok": outcome.stopped_by_predicate and execution.graph_is_good(),
        "codes": execution.codes.copy(),
    }


def frontier_checks(topology, codes, reference: dict) -> tuple:
    """Replay one start through a bare ``step()`` loop, ``advance()`` and
    the ``array`` lane; all must match ``reference`` (the ``run()``
    start).  Returns ``(problems, timings)``."""
    problems = []
    steps, n = reference["steps"], topology.n
    looped = new_execution(topology, codes)
    began = time.perf_counter()
    moves = 0
    for _ in range(steps):
        moves += len(looped.step().changed)
    step_s = time.perf_counter() - began
    advanced = new_execution(topology, codes)
    began = time.perf_counter()
    advanced.advance(steps)
    advance_s = time.perf_counter() - began
    replay = stabilize(topology, codes, engine="array")
    problems += compare_start(topology.name, reference, {"codes": looped.codes, "steps": steps, "moves": moves}, "step() loop")
    problems += compare_start(topology.name, reference, {"codes": advanced.codes, "steps": advanced.t, "moves": reference["moves"]}, "advance()")
    problems += compare_start(topology.name, reference, replay, "array replay")
    timings = {"run_s": reference["run_s"], "step_s": step_s, "advance_s": advance_s, "node_steps": steps * n}
    return problems, timings


def compare_start(name: str, reference: dict, other: dict, label: str) -> list:
    """Same code vector, same step count, same moves."""
    problems = []
    if other["steps"] != reference["steps"]:
        problems.append(f"{name}: {label} took {other['steps']} steps, run() {reference['steps']}")
    if other["moves"] != reference["moves"]:
        problems.append(f"{name}: {label} counted {other['moves']} moves, run() {reference['moves']}")
    if not np.array_equal(other["codes"], reference["codes"]):
        problems.append(f"{name}: {label} reached another code vector than run()")
    return problems


def alloc_bytes_per_node(graphs: dict, seed: int) -> float:
    """``tracemalloc`` peak around execution construction, per node."""
    total = nodes = 0
    for family, topology in graphs.items():
        codes = start_codes(seed, family, 0, topology.n)
        tracemalloc.start()
        execution = new_execution(topology, codes, monitors=(MoveCounter(),))
        total += tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del execution
        nodes += topology.n
    return total / nodes


def frontier_starts(graphs: dict, seed: int, budget_s: float, min_per_family: int, max_per_family=None):
    """Alternate families until ``budget_s`` of timed starts (at least
    ``min_per_family`` each, at most ``max_per_family``)."""
    runs = {family: [] for family in graphs}
    timed = 0.0
    k = 0
    while (timed < budget_s or k < min_per_family) and (max_per_family is None or k < max_per_family):
        for family, topology in graphs.items():
            codes = start_codes(seed, family, k, topology.n)
            gc.collect()
            outcome = stabilize(topology, codes)
            timed += outcome["seconds"]
            if k > 0:
                outcome["codes"] = None  # only start 0 is replayed
            runs[family].append(outcome)
        k += 1
    return runs


def run_frontier(args, sizes: Sizes, import_s: float) -> dict:
    n = sizes.frontier_n
    problems = []
    if not args.trace:
        builds = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            graphs = frontier_graphs(args.seed, n)
            builds.append(time.perf_counter() - began)
        runs = frontier_starts(graphs, args.seed, args.seconds, 2)
        starts = [r for family in runs.values() for r in family]
        timed = sum(r["seconds"] for r in starts)
        node_steps = sum(r["steps"] for r in starts) * n
        for family, topology in graphs.items():
            found, _ = frontier_checks(topology, start_codes(args.seed, family, 0, n), runs[family][0])
            problems += found
            runs[family][0]["ok"] &= not found
        # Per-family quantiles, then combined: the families form two
        # clusters a pooled quantile would straddle.  A family has ~15
        # starts, too few for ten beyond any tail percentile, so its
        # tail is the plain p98 (near its slowest start).
        metrics = {
            "scenarios_per_s": len(starts) / timed,
            "ns_per_node_step": timed * 1e9 / node_steps,
            "latency_p50_ms": statistics.mean(
                percentile([r["seconds"] for r in family], 50) * 1e3 for family in runs.values()
            ),
            "latency_p98_ms": statistics.mean(
                percentile([r["seconds"] for r in family], 98) * 1e3 for family in runs.values()
            ),
            "setup_s": import_s + statistics.median(builds),
        }
        ok = sum(r["ok"] for r in starts)
        return finish(metrics, problems, len(starts), ok)

    def work():
        graphs = frontier_graphs(args.seed, n)
        return graphs, frontier_starts(graphs, args.seed, 0.0, TRACE_FRONTIER_STARTS, TRACE_FRONTIER_STARTS)

    (graphs, plain), (_, traced), ledger = traced_pair(work, args.trace_path)
    starts = 0
    for family in graphs:
        for a, b in zip(plain[family], traced[family]):
            starts += 1
            if (a["steps"], a["moves"]) != (b["steps"], b["moves"]):
                problems.append(f"{family}: traced run diverged from the untraced run")
        problems += compare_start(family, plain[family][0], traced[family][0], "traced run")
    timings = []
    for family, topology in graphs.items():
        found, timing = frontier_checks(topology, start_codes(args.seed, family, 0, n), plain[family][0])
        problems += found
        timings.append(timing)
    node_steps = sum(t["node_steps"] for t in timings)
    advance_ns = sum(t["advance_s"] for t in timings) * 1e9 / node_steps
    run_ns = sum(t["run_s"] for t in timings) * 1e9 / node_steps
    ledger.update(
        {
            "model.advance_ns_per_node_step": advance_ns,
            "model.step_ns_per_node_step": sum(t["step_s"] for t in timings) * 1e9 / node_steps,
            "model.run_ns_per_node_step": run_ns,
            "model.run_over_advance": run_ns / advance_ns,
            "model.alloc_bytes_per_node": alloc_bytes_per_node(graphs, args.seed),
        }
    )
    ok = sum(r["ok"] for runs in (plain, traced) for family in runs.values() for r in family)
    return finish(ledger, problems, 2 * starts, ok)


# ----------------------------------------------------------------------
# campaign-cold / campaign-warm
# ----------------------------------------------------------------------


def campaign_scenarios(name: str, seed: int) -> list:
    """The registry campaign minus the cells the mix leaves out: the
    net lane and object engine of ``churn-phase``, and every Byzantine
    or crash cell, whose fixed containment radius is missed for some
    fault placements (seeds 3, 29 and 32 of 0-39), on every lane alike."""
    return [
        s
        for s in registry.build_campaign(name, seed)
        if s.faults.kind not in PERMANENT_FAULT_KINDS
        and (name != "churn-phase" or (s.engine, s.runtime) in CHURN_LANES)
    ]


def build_mix(sizes: Sizes, seed: int) -> list:
    return [(name, campaign_scenarios(name, seed)) for name in sizes.mix]


def run_pass(mix, seed: int, cache: ResultCache, workdir: str) -> dict:
    """One pass over the mix: ``run_campaign`` (serial dispatch, the
    given store) then ``aggregate_results`` per campaign.  ``mix`` holds
    ``(name, scenarios)`` pairs, or names to build inside the pass."""
    gc.collect()
    latencies = []
    done = []
    began = time.perf_counter()
    for entry in mix:
        name, scenarios = (entry, None) if isinstance(entry, str) else entry
        if scenarios is None:
            scenarios = campaign_scenarios(name, seed)
        stats = {}
        last = [time.perf_counter()]

        def progress(completed, total, last=last):
            now = time.perf_counter()
            latencies.append(now - last[0])
            last[0] = now

        results = runner.run_campaign(
            scenarios,
            dispatch="serial",
            cache=cache,
            checkpoint_path=os.path.join(workdir, f"{name}.jsonl"),
            progress=progress,
            stats=stats,
        )
        done.append((name, results, aggregate.aggregate_results(name, scenarios, results, seed), stats))
    seconds = time.perf_counter() - began
    return {
        "seconds": seconds,
        "latencies": latencies,
        "digests": {name: digest(agg) for name, _, agg, _ in done},
        "scenarios": sum(len(results) for _, results, _, _ in done),
        "node_steps": sum(r.n * r.steps for _, results, _, _ in done for r in results),
        "misses": sum(stats["cache"]["misses"] for _, _, _, stats in done),
        "problems": campaign_problems(done),
        "bad_rows": sum(r.status != "" for _, results, _, _ in done for r in results),
    }


def campaign_problems(done) -> list:
    """``failure_count == 0`` everywhere, ``status == ""`` on every row,
    and zero ``verify_engine_pairing`` mismatches on paired campaigns."""
    problems = []
    for name, results, agg, _ in done:
        if agg["failure_count"]:
            problems.append(f"{name}: {agg['failure_count']} failed scenarios")
        bad = [r.scenario_id for r in results if r.status != ""]
        if bad:
            problems.append(f"{name}: status set on {bad[:3]}")
        if name in PAIRED:
            rows = [row for row in agg["rows"] if PAIRED[name](row)]
            problems += aggregate.verify_engine_pairing(rows, allow_unpaired=name == "net-smoke")
    return problems


def fresh_store(workdir: str, label: str) -> ResultCache:
    root = os.path.join(workdir, label)
    shutil.rmtree(root, ignore_errors=True)
    return ResultCache(os.path.join(root, "store"))


def judge(passes: list, reference: dict, warm: bool) -> tuple:
    """``(problems, attempted, ok)`` over the scenario units of
    ``passes``.  A pass whose campaigns failed a check, whose aggregates
    differ from ``reference`` or that missed the cache (warm) fails all
    its units."""
    problems = []
    attempted = ok = 0
    for i, p in enumerate(passes):
        found = list(p["problems"])
        if warm and p["misses"]:
            found.append(f"warm pass {i}: {p['misses']} cache misses")
        if p["digests"] != reference:
            changed = sorted(k for k in reference if p["digests"].get(k) != reference[k])
            found.append(f"pass {i}: aggregates differ from the reference on {changed}")
        problems += found
        attempted += p["scenarios"]
        ok += 0 if found else p["scenarios"] - p["bad_rows"]
    return problems, attempted, ok


def timed_passes(mix, seed, cache_for, workdir, budget_s) -> list:
    passes = []
    while not passes or sum(p["seconds"] for p in passes) < budget_s:
        passes.append(run_pass(mix, seed, cache_for(len(passes)), workdir))
    return passes


def run_campaign_workload(args, sizes: Sizes, import_s: float, warm: bool, workdir: str) -> dict:
    builds = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        began = time.perf_counter()
        mix = build_mix(sizes, args.seed)
        builds.append(time.perf_counter() - began)
    setup_s = import_s + statistics.median(builds)
    if warm:
        store = fresh_store(workdir, "warm")
        fill = run_pass(mix, args.seed, store, workdir)
        setup_s += fill["seconds"]
        reference = fill["digests"]
        problems = list(fill["problems"])
        cache_for = lambda i: store  # noqa: E731
        mix = sizes.mix  # warm passes rebuild their scenario lists
    else:
        reference = None
        problems = []
        cache_for = lambda i: fresh_store(workdir, f"cold{i}")  # noqa: E731

    if not args.trace:
        passes = timed_passes(mix, args.seed, cache_for, workdir, args.seconds)
        found, attempted, ok = judge(passes, reference or passes[0]["digests"], warm)
        # Every pass repeats the same work, so a pass is priced by
        # medians over passes: this host's speed wanders by 10-20% over
        # seconds, and a median keeps a slow stretch of one pass out.
        if warm:
            samples = [p["seconds"] for p in passes]
            pass_s = statistics.median(samples)
        else:
            # Per job: the median over passes of its time (jobs repeat
            # in the same order); the pass adds the median time spent
            # outside jobs (aggregation, the gaps between campaigns).
            samples = np.median(np.array([p["latencies"] for p in passes]), axis=0)
            pass_s = float(samples.sum()) + statistics.median(
                p["seconds"] - sum(p["latencies"]) for p in passes
            )
        metrics = {
            "scenarios_per_s": passes[0]["scenarios"] / pass_s,
            "ns_per_node_step": pass_s * 1e9 / passes[0]["node_steps"],
            "latency_p50_ms": percentile(samples, 50) * 1e3,
            "latency_p98_ms": percentile(samples, tail_percentile(samples)) * 1e3,
            "setup_s": setup_s,
        }
        return finish(metrics, problems + found, attempted, ok)

    count = TRACE_WARM_PASSES if warm else 1
    labels = itertools.count()

    def work():
        return [run_pass(mix, args.seed, cache_for(next(labels)), workdir) for _ in range(count)]

    plain, traced, ledger = traced_pair(work, args.trace_path)
    found, attempted, ok = judge(plain + traced, reference or plain[0]["digests"], warm)
    return finish(ledger, problems + found, attempted, ok)


# ----------------------------------------------------------------------
# Traced runs and the result line.
# ----------------------------------------------------------------------


def traced_pair(work, trace_path: str):
    """Run ``work`` untraced, then traced; returns both results and the
    ledger (with ``trace.overhead_s``).  Spans go to ``trace_path``."""
    gc.collect()
    began = time.perf_counter()
    plain = work()
    untraced_s = time.perf_counter() - began
    recorder = tracing.Tracer()
    tracing.install_layers(recorder)
    gc.collect()
    began = time.perf_counter()
    try:
        traced = work()
    finally:
        traced_s = time.perf_counter() - began
        recorder.uninstall()
    ledger = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    ledger.update(tracing.layer_metrics(recorder))
    ledger["trace.overhead_s"] = traced_s - untraced_s
    recorder.write(trace_path)
    return plain, traced, ledger


def finish(metrics: dict, problems: list, attempted: int, ok: int) -> dict:
    metrics = dict(metrics)
    if "scenarios_per_s" in metrics:
        metrics["ok_fraction"] = ok / attempted
        metrics["peak_rss_mb"] = peak_rss_mb()
    return {"problems": problems, "attempted": attempted, "ok": ok, "metrics": metrics}


def provenance(args, workdir: str) -> dict:
    def git(*cmd):
        try:
            out = subprocess.run(["git", *cmd], capture_output=True, text=True, timeout=10)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = git("rev-parse", "HEAD")
    return {
        "commit": commit,
        "dirty": None if commit is None else bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "native_backend": native_backend_name(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "store_dir": workdir,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-s", type=float, nargs="*", default=())
    parser.add_argument("--workdir", default=".bench_build/layerbench")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0
    if native_backend_name() is None:
        fail("no native backend resolved; engine='native' would fall back to the array lane")
    sizes = Sizes(args.tiny)
    workdir = os.path.join(args.workdir, f"{args.workload}-{os.getpid()}")
    args.trace_path = os.path.join(args.workdir, f"trace-{args.workload}.jsonl")
    os.makedirs(workdir, exist_ok=True)
    import_s = statistics.median([IMPORT_S, *args.import_s])
    try:
        if args.workload == "frontier-stabilize":
            out = run_frontier(args, sizes, import_s)
        else:
            out = run_campaign_workload(args, sizes, import_s, args.workload == "campaign-warm", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"provenance": provenance(args, workdir)}, sort_keys=True))
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    for name, value in out["metrics"].items():
        print(f"{name:40s} {value:>16.6g} {spec.UNITS[name]}")
    result = {
        "correct": not out["problems"] and out["ok"] == out["attempted"],
        "attempted": out["attempted"],
        "failed": out["attempted"] - out["ok"],
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in out["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
