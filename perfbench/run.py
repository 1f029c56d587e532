"""Benchmark of the qlorentz CLI: one workload per call, end-to-end or traced.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload oracle-n6 --seed 1 --seconds 25 --trace 0

--trace 0 measures the cold start (setup_s) and then runs the workload's
closed loop untraced in a fresh child process (loop.py); --trace 1 runs the
traced loop instead and reports the per-layer figures. The metric names and
units are those declared in BENCHMARK.json. Every metric is printed on its
own line; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full child result, with provenance, is
kept in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One client, matrices of at most 128 x 128: a second BLAS thread does not
# speed reports up and makes them noisier when the cores are shared. Pinned
# before numpy loads, here and in every process started from here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from kernel import kernel_seconds, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_start(env: dict) -> tuple[float, float]:
    """(wall time, kernel time just before) of a fresh interpreter that imports qlorentz.cli."""
    kernel = kernel_seconds()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import qlorentz.cli"], env=env, cwd=ROOT)
    # a blocking wait, not wait(timeout=...), which polls with sleeps of up to
    # 50 ms and so rounds the measured time; the timer only guards against a hang
    guard = threading.Timer(60.0, proc.kill)
    guard.start()
    try:
        rc = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return elapsed, kernel


def setup_seconds(env: dict) -> list[tuple[float, float]]:
    cold_start(env)  # writes the bytecode caches, which users do not pay for on every call
    return [cold_start(env) for _ in range(SETUP_SAMPLES)]


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "qlorentz" / "cli.py").is_file():
        print(f"error: qlorentz sources not found under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    declared = declared_metrics(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        setup = [] if args.trace else setup_seconds(env)
        child = subprocess.run(
            [sys.executable, str(HERE / "loop.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir), "--spans", str(out_dir / f"{tag}.spans.jsonl.gz")],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: workload process exited {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = [statistics.median(scale(*pair) for pair in setup), "s"]
        result["unscaled"]["setup_s"] = [statistics.median(wall for wall, _ in setup), "s"]
        result["setup_samples"] = [{"wall_s": wall, "kernel_s": k} for wall, k in setup]
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    metrics = {}
    for name, unit in declared.items():
        if name not in result["metrics"] or result["metrics"][name][1] != unit:
            print(f"error: metric {name} [{unit}] not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": result["metrics"][name][0], "unit": unit}

    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"{args.workload}: {result['reports']} timed reports, unit of work: {result['item']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"{args.workload} fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} reports)")
    print(f"{args.workload} exit1_ratio = {result['exit1'] / result['attempted']:.6g} "
          f"(property check failed: a verdict, not a failure)")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in result.get("unscaled", {}).items():
        print(f"{args.workload} unscaled wall-clock {name} = {value:.6g} {unit}")
    if "kernel_s.p50" in result:
        print(f"{args.workload} kernel_s.p50 = {result['kernel_s.p50']:.6g} s "
              f"(report times are scaled by the reference kernel time over this)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
