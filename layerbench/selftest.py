"""Self-test of the layer benchmark (run from the checkout root)::

    python3 layerbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must print a
   result line with exactly the contract's keys, every metric of
   ``BENCHMARK.json`` with its unit, and ``correct: true``.
2. Every check must fire when its input is corrupted: a mismatched
   replay, a failed scenario, a broken engine pairing, a tampered warm
   aggregate, a warm cache miss, a native lane that fell back.
3. ``run.py`` must refuse, without a result, in a directory holding
   only ``BENCHMARK.json`` and the benchmark files.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402

WORK = Path(".bench_build") / "selftest"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def tiny_runs() -> None:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    check(declared == spec.benchmark_json(), "BENCHMARK.json matches layerbench/spec.py")
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[table]}
        for workload in spec.WORKLOADS:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600,
            )
            label = f"{workload} --trace {trace}"
            check(out.returncode == 0, f"{label} exits 0 ({out.stderr[-500:]})")
            result = json.loads(out.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} is correct ({result['attempted']} attempted)")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == units, f"{label} emits every {table} metric with its unit")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{label} end-to-end metrics are nonzero")
            check(all(f"\n{name} " in out.stdout for name in units), f"{label} prints every metric by name")


def corruptions() -> None:
    """Runs inside a child with the benchmark's environment."""
    import workloads as w

    # frontier: a replay that disagrees with run() is reported.
    topology = w.frontier.frontier_colony(2_000)
    codes = w.start_codes(0, "colony", 0, topology.n)
    reference = w.stabilize(topology, codes)
    check(reference["ok"] and not w.frontier_checks(topology, codes, reference)[0],
          "frontier: run(), step() loop, advance() and array replay agree")
    tampered = dict(reference, codes=reference["codes"].copy())
    tampered["codes"][0] = (tampered["codes"][0] + 1) % w.ThinUnison(w.FRONTIER_D).encoding.size
    problems = w.frontier_checks(topology, codes, tampered)[0]
    check(any("array replay" in p for p in problems) and any("advance()" in p for p in problems),
          "frontier: a mismatched replay fires")
    problems = w.frontier_checks(topology, codes, dict(reference, moves=reference["moves"] + 1))[0]
    check(any("step() loop counted" in p for p in problems), "frontier: a move-count mismatch fires")

    # cold: failed scenarios and broken pairings are reported.
    done = []
    for name in ("micro", "native-pairing"):
        scenarios = w.campaign_scenarios(name, 0)
        results = w.runner.run_campaign(scenarios, dispatch="serial")
        done.append((name, results, w.aggregate.aggregate_results(name, scenarios, results, 0), {}))
    check(not w.campaign_problems(done), "cold: the clean mix passes")
    broken = copy.deepcopy(done)
    broken[0][2]["failure_count"] = 1
    check(any("failed scenarios" in p for p in w.campaign_problems(broken)), "cold: a failed scenario fires")
    broken = copy.deepcopy(done)
    broken[1][2]["rows"][0]["rounds"] += 1
    check(any("rounds differs" in p for p in w.campaign_problems(broken)), "cold: a broken pairing fires")

    # warm: a tampered aggregate and a miss are reported.
    workdir = str(WORK / "warm")
    store = w.fresh_store(workdir, "store")
    mix = [(name, w.campaign_scenarios(name, 0)) for name in ("micro",)]
    fill = w.run_pass(mix, 0, store, workdir)
    warm = w.run_pass(["micro"], 0, store, workdir)
    problems, attempted, ok = w.judge([warm], fill["digests"], warm=True)
    check(not problems and ok == attempted, "warm: a clean pass passes")
    tampered = dict(warm, digests={"micro": "0" * 64})
    problems, attempted, ok = w.judge([tampered], fill["digests"], warm=True)
    check(any("aggregates differ" in p for p in problems) and ok == 0, "warm: a tampered aggregate fires")
    entry = next(Path(store.root, "objects").rglob("*.json"))
    entry.write_text("{}")
    missed = w.run_pass(["micro"], 0, store, workdir)
    problems, attempted, ok = w.judge([missed], fill["digests"], warm=True)
    check(any("cache misses" in p for p in problems) and ok == 0, "warm: a cache miss fires")
    shutil.rmtree(workdir, ignore_errors=True)


def refusals(env: dict) -> None:
    fallback = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", "frontier-stabilize",
         "--seconds", "1", "--tiny", "--workdir", str(WORK)],
        env=dict(env, REPRO_NATIVE_BACKEND="none"), capture_output=True, text=True, timeout=300,
    )
    check(fallback.returncode != 0 and not fallback.stdout.strip(),
          "a native lane that fell back to the array lane aborts without a result")
    with tempfile.TemporaryDirectory(dir=WORK) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "layerbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "layerbench/run.py", "--workload", "campaign-cold", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    check(out.returncode != 0 and not out.stdout.strip(),
          "run.py refuses without a result outside a source checkout")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    if "--corruptions" in sys.argv:
        corruptions()
        return 0
    run.compile_native(env)
    tiny_runs()
    out = subprocess.run([sys.executable, __file__, "--corruptions"], env=env, timeout=600)
    check(out.returncode == 0, "every check fires on corrupted input")
    refusals(env)
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
