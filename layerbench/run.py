"""The layer benchmark: end-to-end and per-layer cost of the AlgAU simulator.

Run from the root of a source checkout::

    python3 layerbench/run.py --workload campaign-cold --seed 0 --seconds 10 --trace 0
    python3 layerbench/run.py --workload all            # every workload, in turn
    python3 layerbench/run.py --write-spec              # regenerate BENCHMARK.json

Before anything is timed this compiles the native kernel library into
``.bench_build/native`` (once per checkout) and measures the import
cost of ``repro`` in fresh interpreters.  Each workload then runs in its
own fresh process (``workloads.py``), serially, with no worker pool.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build")
#: Extra fresh interpreters whose import time joins the set-up median.
IMPORT_PROBES = 2
#: Generous per-child limits; a run that outgrows them is broken.
COMPILE_TIMEOUT_S = 600
CHILD_TIMEOUT_S = 600


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE_DIR"] = str((BUILD / "native").resolve())
    env["PYTHONHASHSEED"] = "0"
    return env


def call(args: list, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped on timeout)."""
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def compile_native(env: dict) -> None:
    out = call(
        ["-c", "from repro.core.algau_native import compile_native_library as c; print(c())"],
        env,
        COMPILE_TIMEOUT_S,
    )
    if out.returncode != 0:
        sys.exit(f"layerbench: the native kernel library did not build:\n{out.stderr}")


def run_workload(workload: str, args, env: dict) -> dict:
    """Run one workload in a fresh process; echo its report; return its
    result object."""
    probes = []
    if not args.trace:
        for _ in range(IMPORT_PROBES):
            out = call([str(HERE / "workloads.py"), "--probe"], env, CHILD_TIMEOUT_S)
            if out.returncode != 0:
                sys.exit(f"layerbench: import probe failed:\n{out.stderr}")
            probes.append(str(json.loads(out.stdout.splitlines()[-1])["import_s"]))
    command = [
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(BUILD / "layerbench"),
    ]
    if probes:
        command += ["--import-s", *probes]
    if args.tiny:
        command.append("--tiny")
    out = call(command, env, CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"layerbench: workload {workload} exited with {out.returncode}")
    lines = out.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()

    if args.write_spec:
        spec.write_benchmark_json(Path("BENCHMARK.json"))
        return 0
    if not (Path("src") / "repro" / "__init__.py").is_file():
        sys.exit("layerbench: run from the root of a repro source checkout (src/repro not found)")

    env = child_env()
    compile_native(env)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, env)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec.WORKLOADS:
        print(f"== {workload}")
        result = run_workload(workload, args, env)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
