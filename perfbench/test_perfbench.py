"""Self-test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench

It runs every workload through the benchmark command, asserts that every
metric declared in BENCHMARK.json is emitted with its unit and that no report
fails, that the traced run's counts repeat exactly for a seed, and that each
workload's reference check rejects a report with one value nudged.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from loop import Client, Tally, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch(request):
    """A fresh directory inside the checkout, removed afterwards."""
    path = ROOT / ".bench_work" / ("test-" + re.sub(r"[^\w.-]", "_", request.node.name))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        assert f"{workload} {metric['name']} = " in out.stdout
        assert any(line.endswith(f" {metric['unit']}") and f" {metric['name']} = " in line
                   for line in lines)
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_nothing_fails(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 3


def test_declared_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


COUNTS = ("calls", "bytes_in", "bytes", "zero_fraction", "check_fail_ratio", "spans")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload, scratch):
    runs = []
    for attempt in range(2):
        workdir = scratch / str(attempt)
        workdir.mkdir()
        client = Client(WORKLOADS[workload], SEED, workdir)
        tally = Tally()
        result = per_layer(client, tally, 0.3, workdir / "spans.jsonl.gz")
        assert not tally.failed, tally.problems
        runs.append({k: v for k, v in result["metrics"].items() if k.endswith(COUNTS)})
    assert runs[0] == runs[1]
    assert runs[0]["cli.main.calls"][0] == result["reports"]


# one checked field per workload, as a path into the report
CHECKED_FIELD = {
    "oracle-n6": ("trials", 3, "i_l_subset"),
    "invariance-n7": ("invariants", "trace_w"),
    "state-io-n6": ("linear_entropy_after",),
    "correlator": ("trials", 5, "correlation"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_check_catches_a_wrong_report(workload, scratch):
    spec = WORKLOADS[workload]
    client = Client(spec, SEED, scratch)
    argv = client.argv(1)
    client.call(argv, client.output)
    report = json.loads(client.output.read_text())
    assert spec.check(report, argv, client.inputs) is None
    *path, leaf = CHECKED_FIELD[workload]
    parent = report
    for step in path:
        parent = parent[step]
    parent[leaf] = parent[leaf] * (1.0 + 1e-6) + 1e-6
    assert spec.check(report, argv, client.inputs) is not None


def test_without_sources_the_benchmark_fails_without_a_result(scratch):
    (scratch / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (scratch / "perfbench" / f.name).write_text(f.read_text())
    (scratch / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "correlator", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_boost_takes_a_rapidity_written_with_an_exponent(scratch):
    # at this seed one of the first 500 rapidities is about -3e-05, which repr
    # writes as '-2.98...e-05'; given as a separate argument, argparse reads it
    # as an option and the report exits 2
    client = Client(WORKLOADS["state-io-n6"], 1931977360, scratch)
    key = next(k for k in range(500) if "e-" in client.argv(k)[-1])
    argv = client.argv(key)
    _, rc = client.call(argv, client.output)
    assert rc in (0, 1)
    assert client.verdict(argv, rc) == (rc == 1, None)
