"""End-to-end CLI behavior: reports, determinism, exit codes, file I/O."""

import csv
import json

import numpy as np
import pytest

from qlorentz.states import random_state, state_to_json_dict
from qlorentz.cli import main
from qlorentz.linalg import MAX_QUBITS


def run_report(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text())


def strip_wall_time(report):
    report = dict(report)
    report.pop("wall_time_s")
    return json.dumps(report, sort_keys=True)


def test_invariants_singlet_report(tmp_path):
    code, report = run_report(
        tmp_path, ["invariants", "--preset", "singlet", "--trials", "10", "--seed", "7"]
    )
    assert code == 0
    assert report["pass"] is True
    assert abs(report["invariants"]["i_l_trace"] - 1.0) < 1e-8
    assert abs(report["invariants"]["concurrence"] - 1.0) < 1e-8
    assert report["config"]["seed_split"] == "splitmix64"
    assert report["checks"]["lorentz_invariance"]["pass"] is True


def test_invariants_wstate_vanishes(tmp_path):
    code, report = run_report(
        tmp_path, ["invariants", "--preset", "wstate4", "--trials", "0"]
    )
    assert code == 0
    assert abs(report["invariants"]["i_l_trace"]) < 1e-9


def test_invariants_random_odd_pure(tmp_path):
    code, report = run_report(
        tmp_path,
        ["invariants", "--random", "pure", "--n", "3", "--trials", "5", "--seed", "3"],
    )
    assert code == 0
    assert abs(report["invariants"]["i_l_trace"]) <= 1e-9


def test_oracle_runs_and_reports(tmp_path):
    code, report = run_report(
        tmp_path, ["oracle", "--n", "4", "--trials", "24", "--seed", "1"]
    )
    assert code == 0
    assert report["checks"]["trace_formula"]["pass"] is True
    assert len(report["trials"]) == 24
    kinds = {row["kind"] for row in report["trials"]}
    assert kinds == {"pure", "mixed"}
    assert any(row["scaled"] for row in report["trials"])


def test_oracle_rejects_large_n(tmp_path):
    assert main(["oracle", "--n", str(MAX_QUBITS + 1), "--trials", "2"]) == 2


def test_oracle_runs_at_the_qubit_cap(tmp_path):
    code, report = run_report(
        tmp_path, ["oracle", "--n", str(MAX_QUBITS), "--trials", "2", "--seed", "3"]
    )
    assert code == 0
    assert report["checks"]["trace_formula"]["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--trials", "0"],
        ["oracle", "--trials", "-1"],
        ["invariants", "--trials", "-3"],
        ["metric", "--trials", "0"],
        ["metric", "--trials", "-1"],
        ["metric", "--sym-trials", "0"],
        ["metric", "--sym-trials", "-1"],
    ],
    ids=[
        "oracle-zero",
        "oracle-negative",
        "invariants-negative",
        "metric-zero",
        "metric-negative",
        "metric-sym-zero",
        "metric-sym-negative",
    ],
)
def test_vacuous_trial_counts_exit_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {argv[1]} must be ")
    assert captured.out == ""


def test_metric_default_run(tmp_path):
    code, report = run_report(
        tmp_path, ["metric", "--trials", "50", "--sym-trials", "5", "--seed", "2"]
    )
    assert code == 0
    table = np.array(report["pauli_table"])
    np.testing.assert_allclose(table, np.diag([1.0, -1.0, -1.0, -1.0]), atol=1e-12)
    for name in ("boost_symmetry", "rotation_symmetry", "parity_symmetry"):
        assert report["checks"][name]["pass"] is True


def test_metric_explicit_families(tmp_path):
    code, report = run_report(
        tmp_path, ["metric", "--boost", "1.5", "--sym-trials", "10", "--trials", "10"]
    )
    assert code == 0
    assert "boost_symmetry" in report["checks"]
    assert "rotation_symmetry" not in report["checks"]
    code, report = run_report(
        tmp_path, ["metric", "--parity", "--sym-trials", "10", "--trials", "10"]
    )
    assert code == 0
    assert "parity_symmetry" in report["checks"]
    assert "boost_symmetry" not in report["checks"]
    code, report = run_report(
        tmp_path,
        ["metric", "--boost", "1.5", "--rotation", "0.9", "--sym-trials", "10", "--trials", "10"],
    )
    assert code == 0
    assert "boost_symmetry" in report["checks"]
    assert "rotation_symmetry" in report["checks"]
    assert "parity_symmetry" not in report["checks"]


def test_twirl_zz(tmp_path):
    code, report = run_report(
        tmp_path, ["twirl", "--o1", "Z", "--o2", "Z", "--samples", "20000", "--seed", "3"]
    )
    assert code == 0
    tw = report["twirl"]
    assert abs(tw["chi"] + 1.0 / 3.0) < 1e-12
    assert abs(tw["zeta"] + 2.0 / 3.0) < 1e-12
    assert tw["pass"] is True


def test_twirl_observable_forms(tmp_path):
    code, report = run_report(
        tmp_path,
        ["twirl", "--o1", "1,0,0,1", "--o2", "random", "--samples", "2000", "--seed", "5"],
    )
    assert code == 0
    assert main(["twirl", "--o1", "bogus", "--samples", "2000"]) == 2
    assert main(["twirl", "--samples", "100"]) == 2


def test_boost_basis0(tmp_path):
    code, report = run_report(
        tmp_path, ["boost", "--preset", "basis0", "--rapidity", "1.0"]
    )
    assert code == 0
    matrix = report["state"]["matrix"]
    assert abs(matrix[0][0][0] - np.e) < 1e-12
    assert abs(matrix[1][1][0]) < 1e-15
    assert abs(report["linear_entropy_before"]) < 1e-12
    assert abs(report["linear_entropy_after"]) < 1e-12
    assert abs(report["trace_after"] - np.e) < 1e-12


def test_boost_zero_rapidity_is_identity(tmp_path):
    code, report = run_report(
        tmp_path, ["boost", "--preset", "singlet", "--rapidity", "0"]
    )
    assert code == 0
    assert report["trace_before"] == report["trace_after"]


def test_boost_random_mixed_preserves_entropy(tmp_path):
    code, report = run_report(
        tmp_path,
        ["boost", "--random", "mixed", "--n", "1", "--rapidity", "2", "--seed", "9"],
    )
    assert code == 0
    assert report["checks"]["entropy_preserved"]["pass"] is True
    assert abs(report["trace_before"] - report["trace_after"]) > 1e-3


def test_state_file_round_trip(tmp_path):
    s = random_state(2, "mixed", 123)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(s)))
    code, report = run_report(
        tmp_path, ["invariants", "--input", str(path), "--trials", "5", "--seed", "1"]
    )
    assert code == 0
    assert report["config"]["source"] == "input"


def test_malformed_state_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "matrix": "nope"}')
    assert main(["invariants", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    path.write_text('{"n": null, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}')
    assert main(["invariants", "--input", str(path)]) == 2
    path.write_text("{not json")
    assert main(["invariants", "--input", str(path)]) == 2
    assert main(["invariants", "--input", str(tmp_path / "missing.json")]) == 2


def test_unknown_preset_exits_two():
    assert main(["invariants", "--preset", "nosuchstate"]) == 2


def test_tolerance_override_forces_failure(tmp_path):
    out = tmp_path / "fail.json"
    code = main(
        ["metric", "--trials", "5", "--sym-trials", "2", "--tolerance", "1e-30",
         "--output", str(out)]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["checks"]["pauli_table"]["tolerance"] == 1e-30


def test_reports_are_deterministic(tmp_path):
    configs = [
        ["oracle", "--n", "3", "--trials", "12", "--seed", "5"],
        ["invariants", "--preset", "ghz3", "--trials", "6", "--seed", "8"],
        ["twirl", "--o1", "X", "--o2", "Y", "--samples", "2000", "--seed", "4"],
        ["metric", "--trials", "20", "--sym-trials", "3", "--seed", "6"],
    ]
    for args in configs:
        _, first = run_report(tmp_path, args, "a.json")
        _, second = run_report(tmp_path, args, "b.json")
        assert strip_wall_time(first) == strip_wall_time(second)


def test_csv_projection(tmp_path):
    csv_path = tmp_path / "trials.csv"
    code = main(
        ["oracle", "--n", "2", "--trials", "10", "--seed", "2",
         "--output", str(tmp_path / "r.json"), "--csv", str(csv_path)]
    )
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert "deviation" in rows[0]
    assert "i_l_trace" in rows[0]


def test_stdout_default(capsys):
    code = main(["invariants", "--preset", "singlet", "--trials", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "invariants"
