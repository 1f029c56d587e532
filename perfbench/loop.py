"""One workload in one fresh process: a closed loop with a single client.

The client calls ``qlorentz.cli.main(argv)`` in-process with ``--output`` set,
waits for it, checks the report against the workload's reference outside the
timed region, and only then sends the next request. Run by ``run.py``, which
sets PYTHONPATH and pins the BLAS thread count; prints one JSON line.

  --trace 0  run reports for --seconds of wall time and return the
             end-to-end figures;
  --trace 1  run a fixed, seed-determined list of reports untraced and then
             traced, and return the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qlorentz.cli as cli
from kernel import KERNEL_REF_S, kernel_seconds, scale
from tracer import Tracer
from workloads import WORKLOADS

WALL_TIME_FIELD = re.compile(rb'"wall_time_s": [^,\n]*')

@dataclass
class Tally:
    """Reports attempted, exit-1 verdicts, and the keys of failed reports."""

    attempted: int = 0
    exit1: int = 0
    failed: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def fail(self, key, problem: str) -> None:
        self.failed.add(key)
        if len(self.problems) < 5:
            self.problems.append(problem)


class Client:
    """The benchmark's single client of one workload: builds argv, calls, checks."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = workload.inputs(seed, workdir) if workload.inputs else None
        self.output = workdir / "report.json"

    def argv(self, key) -> list[str]:
        return self.workload.argv(self.seed, key, self.inputs)

    def call(self, argv: list[str], output: Path) -> tuple[float, object]:
        """Time one report from argv to report file written; rc or the exception."""
        start = time.perf_counter()
        try:
            rc = cli.main(argv + ["--output", str(output)])
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a crashing report is counted, and the loop goes on
            rc = repr(exc)
        return time.perf_counter() - start, rc

    def verdict(self, argv: list[str], rc) -> tuple[bool, str | None]:
        """(exit 1?, failure) for the report just written; exit 1 alone is no failure."""
        if rc not in (0, 1):
            return False, f"{argv}: exit {rc}"
        try:
            report = json.loads(self.output.read_text())
            if report["pass"] is not (rc == 0):
                return False, f"{argv}: pass={report['pass']} but exit {rc}"
            problem = self.workload.check(report, argv, self.inputs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"malformed report: {exc!r}"
        return rc == 1, problem and f"{argv}: {problem}"

    def one(self, key, tally: Tally, label: str = "") -> tuple[float, float]:
        """Time the kernel, then run and check one report: (report s, kernel s).

        ``label`` tells passes over the same keys apart.
        """
        kernel = kernel_seconds()
        argv = self.argv(key)
        seconds, rc = self.call(argv, self.output)
        exit1, problem = self.verdict(argv, rc)
        tally.attempted += 1
        tally.exit1 += exit1
        if problem:
            tally.fail((label, key), problem)
        return seconds, kernel

    def deterministic(self, key) -> str | None:
        """Rerun one argv; both reports must match byte for byte apart from wall_time_s."""
        argv = self.argv(key)
        texts = []
        for name in ("det_a.json", "det_b.json"):
            path = self.workdir / name
            self.call(argv, path)
            try:
                texts.append(WALL_TIME_FIELD.sub(b"", path.read_bytes()))
            except OSError as exc:
                return f"{argv}: no report on rerun: {exc}"
        return None if texts[0] == texts[1] else f"{argv}: reports differ on rerun"


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    root = Path(__file__).resolve().parent.parent
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(root),
        "seed": seed,
        "excluded_from_timings": "input generation, reference kernel, reference checks, "
                                 "determinism rerun",
        "excluded_from_setup_s": "input generation",
        "time_scale": f"times scaled by {KERNEL_REF_S} s / reference kernel time (kernel.py)",
    }


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def scaled(timings: list[tuple[float, float]]) -> list[float]:
    return [scale(report, kernel) for report, kernel in timings]


def end_to_end(client: Client, tally: Tally, seconds: float) -> dict:
    """Closed loop for ``seconds`` of wall time."""
    timings: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timings) < 2:
        timings.append(client.one(len(timings), tally))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problem = client.deterministic(0)
    if problem:
        tally.fail(("", 0), problem)

    items = client.workload.items_per_report * len(timings)

    def figures(times: list[float]) -> dict:
        return {
            "report_s.p50": (statistics.median(times), "s"),
            "report_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
            "items_per_s": (items / sum(times), "1/s"),
        }

    raw = [report for report, _ in timings]
    return {
        "reports": len(timings),
        "metrics": {**figures(scaled(timings)), "peak_rss_mb": (peak_rss_mb, "MB")},
        "unscaled": figures(raw),
        "kernel_s.p50": statistics.median(kernel for _, kernel in timings),
    }


def per_layer(client: Client, tally: Tally, seconds: float, spans_path: Path) -> dict:
    """The same fixed report list untraced, then traced; per-layer figures of the traced pass."""
    keys = range(max(3, round(seconds * client.workload.traced_reports_per_s)))
    plain = [client.one(k, tally, "untraced") for k in keys]
    exit1_before = tally.exit1
    with Tracer() as tracer:
        traced = [client.one(k, tally) for k in keys]
    exit1 = tally.exit1 - exit1_before
    tracer.write_spans(spans_path)
    problem = client.deterministic(0)
    if problem:
        tally.fail(("", 0), problem)

    summary = tracer.summary()
    layers, counters = summary["layers"], summary["counters"]
    metrics = {f"{layer}.self_s": (value, "s") for layer, value in layers.items()}
    for name, entry in summary["functions"].items():
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        metrics[f"{name}.calls"] = (entry["calls"], "count")
    eigenvalues = counters.get("states.w_spectrum.eigenvalues", 0)
    zeros = counters.get("states.w_spectrum.zeros", 0)
    metrics.update({
        "linalg.partial_trace.bytes_in": (counters.get("linalg.partial_trace.bytes_in", 0), "bytes"),
        "states.w_spectrum.zero_fraction": (zeros / eigenvalues if eigenvalues else 0.0, "ratio"),
        "cli.emit.bytes": (counters.get("cli.emit.bytes", 0), "bytes"),
        "cli.check_fail_ratio": (exit1 / len(keys), "ratio"),
        "trace.overhead_ratio": (sum(scaled(traced)) / sum(scaled(plain)), "ratio"),
        "trace.accounted_ratio": (sum(layers.values()) / sum(t for t, _ in traced), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return {"reports": len(keys), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    client = Client(workload, args.seed, args.workdir)
    tally = Tally()
    client.one("warmup", tally)
    if args.trace:
        result = per_layer(client, tally, args.seconds, args.spans)
    else:
        result = end_to_end(client, tally, args.seconds)
    result.update({
        "workload": workload.name,
        "item": workload.item,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "exit1": tally.exit1,
        "problems": tally.problems,
        "provenance": provenance(args.seed),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
