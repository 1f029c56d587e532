"""End-to-end CLI behavior: reports, determinism, exit codes, file I/O."""

import ctypes
import itertools
import json
import os
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlorentz.states import (
    QubitState,
    apply_local,
    preset,
    random_state,
    state_from_json_dict,
    state_to_json_dict,
)
from qlorentz.cli import main
import qlorentz.cli
import qlorentz.correlation
import qlorentz.invariants
import qlorentz.linalg
import qlorentz.lorentz
import qlorentz.states
from qlorentz.correlation import correlator_symmetry_check
from qlorentz.linalg import MAX_QUBITS
from qlorentz.lorentz import ETA, boost_z, rotation_z, spin_hom
from qlorentz.seeding import rng_from_seed, split_seed
from test_states import MALFORMED_MATRICES


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


def test_invariants_random_odd_pure_e1_is_exactly_zero(tmp_path):
    code, report = run_report(
        tmp_path,
        ["invariants", "--random", "pure", "--n", "5", "--trials", "2", "--seed", "0"],
    )
    assert code == 0
    assert report["invariants"]["w_spectrum"] == [0.0] * 32
    assert report["invariants"]["trace_w"] == 0.0


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


@pytest.mark.parametrize(
    "argv", [["oracle", "--n", "2"], ["oracle", "--n", "3", "--trials", "4"]], ids=["n2", "n3"]
)
def test_oracle_fails_a_wrong_spin_flip_sign(tmp_path, monkeypatch, argv):
    # negative control: entry (0, 0) of the spin flip's sign table negated
    # moves the trace route by 4 rho_00 rho_dd, and leaves the subset route
    real = qlorentz.states._flip_signs

    def wrong(n):
        table = real(n).copy()
        table[0, 0] = -table[0, 0]
        return table

    monkeypatch.setattr(qlorentz.states, "_flip_signs", wrong)
    code, report = run_report(tmp_path, argv)
    assert code == 1
    assert report["checks"]["trace_formula"]["pass"] is False


@pytest.mark.parametrize("trials", [1, 6])
def test_oracle_takes_one_deviation_pass_per_report(tmp_path, monkeypatch, trials):
    # one _rel_dev call over the (trials,) arrays, bit for bit the per-trial calls
    real = qlorentz.cli._rel_dev
    shapes = []

    def spy(a, b):
        shapes.append(np.shape(a))
        return real(a, b)

    monkeypatch.setattr(qlorentz.cli, "_rel_dev", spy)
    code, report = run_report(tmp_path, ["oracle", "--n", "3", "--trials", str(trials)])
    assert code == 0
    assert shapes == [(trials,)]
    rows = report["trials"]
    assert [r["deviation"] for r in rows] == [real(r["i_l_subset"], r["i_l_trace"]) for r in rows]
    assert report["checks"]["trace_formula"]["deviation"] == max(r["deviation"] for r in rows)


def test_oracle_rejects_large_n(tmp_path):
    assert main(["oracle", "--n", str(MAX_QUBITS + 1), "--trials", "2"]) == 2


def test_oracle_runs_at_the_qubit_cap(tmp_path):
    code, report = run_report(
        tmp_path, ["oracle", "--n", str(MAX_QUBITS), "--trials", "2", "--seed", "3"]
    )
    assert code == 0
    assert report["checks"]["trace_formula"]["pass"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "--trials", "0"], "--trials must be "),
        (["oracle", "--trials", "-1"], "--trials must be "),
        (["invariants", "--trials", "-3"], "--trials must be "),
        # zero trials draw no factor; the rapidity is still checked, with the sampler's message
        (["invariants", "--trials", "0", "--max-rapidity", "-3"], "max_rapidity must lie in "),
        (["metric", "--trials", "0"], "--trials must be "),
        (["metric", "--trials", "-1"], "--trials must be "),
        (["metric", "--sym-trials", "0"], "--sym-trials must be "),
        (["metric", "--sym-trials", "-1"], "--sym-trials must be "),
    ],
    ids=[
        "oracle-zero",
        "oracle-negative",
        "invariants-negative",
        "invariants-zero-trials-bad-rapidity",
        "metric-zero",
        "metric-negative",
        "metric-sym-zero",
        "metric-sym-negative",
    ],
)
def test_vacuous_trial_counts_exit_two(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
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


def test_metric_report_deviations_are_frozen(tmp_path):
    # exact values of one sampled-family report: a change of draw layout,
    # draw order or per-element arithmetic in the symmetry checks moves them
    code, report = run_report(
        tmp_path, ["metric", "--trials", "100", "--sym-trials", "10", "--seed", "7"]
    )
    assert code == 0
    deviations = {name: check["deviation"] for name, check in report["checks"].items()}
    assert deviations == {
        "pauli_table": 0.0,
        "correlator_vs_determinant": 8.881784197001252e-16,
        "boost_symmetry": 2.734996900022038e-15,
        "rotation_symmetry": 5.849755962083208e-16,
        "parity_symmetry": 2.8884877287482206e-16,
    }


def test_metric_explicit_flag_report_deviations_are_frozen(tmp_path):
    # exact values with every fixed map named: a change of map order, pair
    # count or per-pair arithmetic for the fixed maps or parity moves them
    code, report = run_report(
        tmp_path,
        ["metric", "--boost", "1.5", "--rotation", "0.9", "--parity", "--sym-trials", "10",
         "--trials", "10", "--seed", "7"],
    )
    assert code == 0
    deviations = {name: check["deviation"] for name, check in report["checks"].items()}
    assert deviations == {
        "pauli_table": 0.0,
        "correlator_vs_determinant": 6.69634459140423e-16,
        "boost_symmetry": 2.069398543860781e-15,
        "rotation_symmetry": 1.7101376142694816e-16,
        "parity_symmetry": 2.2609319541102883e-16,
    }


@pytest.mark.parametrize(
    "flags",
    [[], ["--boost", "1.5", "--rotation", "0.9", "--parity"]],
    ids=["sampled", "all-fixed"],
)
def test_metric_symmetry_tolerance_fails_a_map_scaled_by_one_ppm(tmp_path, monkeypatch, flags):
    # negative control pinning the 1e-8 symmetry tolerance: every map scaled by
    # 1 + 1e-6, past a disabled Minkowski check, moves the correlator by about
    # 2e-6, which a tolerance loosened to 1e-4 would pass
    deviations = qlorentz.correlation.correlator_deviations
    monkeypatch.setattr(qlorentz.correlation, "require_lorentz", lambda lams: lams)
    monkeypatch.setattr(
        qlorentz.cli, "correlator_deviations",
        lambda lams, *args: deviations((1.0 + 1e-6) * lams, *args),
    )
    code, report = run_report(tmp_path, ["metric", "--trials", "5"] + flags)
    assert code == 1
    symmetry = {k: v for k, v in report["checks"].items() if k.endswith("_symmetry")}
    assert sorted(symmetry) == ["boost_symmetry", "parity_symmetry", "rotation_symmetry"]
    for check in symmetry.values():
        assert check["pass"] is False
        assert check["deviation"] == pytest.approx(2e-6, rel=0.01)


def test_subset_vs_trace_tolerance_fails_a_route_scaled_by_one_ppm(tmp_path, monkeypatch):
    # negative control pinning the 1e-8 subset_vs_trace tolerance: the subset
    # route scaled by 1 + 1e-6 reads 1e-6 on the singlet (I_L = 1), which a
    # tolerance loosened to 1e-5 would pass
    subsets = qlorentz.invariants.linear_mutual_info_subsets
    monkeypatch.setattr(
        qlorentz.invariants, "linear_mutual_info_subsets", lambda s: (1.0 + 1e-6) * subsets(s)
    )
    code, report = run_report(tmp_path, ["invariants", "--preset", "singlet", "--trials", "2"])
    assert code == 1
    check = report["checks"]["subset_vs_trace"]
    assert check["pass"] is False
    assert check["deviation"] == pytest.approx(1e-6, rel=1e-5)
    assert report["checks"]["lorentz_invariance"]["pass"] is True


def test_trace_nonnegative_fails_a_negated_spin_flip(tmp_path, monkeypatch):
    # negative control: a negated sign table negates the trace route, so the
    # singlet's I_L = 1 reads -1
    real = qlorentz.states._flip_signs
    monkeypatch.setattr(qlorentz.states, "_flip_signs", lambda n: -real(n))
    code, report = run_report(tmp_path, ["invariants", "--preset", "singlet", "--trials", "2"])
    assert code == 1
    check = report["checks"]["trace_nonnegative"]
    assert check["pass"] is False
    assert check["deviation"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("factor, deviation", [(-1.0, 2.0), (1.0 + 1e-6, 1e-6)], ids=["negated", "ppm"])
def test_pauli_table_fails_a_wrong_y(tmp_path, monkeypatch, factor, deviation):
    # negative control: P_a = Y scaled in the first stack of the Pauli pairs moves
    # the table's Y row; the ppm scale pins the 1e-12 tolerance, which 1e-5 would pass
    pairs = qlorentz.correlation._PAULI_PAIRS.copy()
    pairs[0, 8:12] *= factor
    monkeypatch.setattr(qlorentz.correlation, "_PAULI_PAIRS", pairs)
    code, report = run_report(tmp_path, ["metric", "--trials", "5", "--sym-trials", "2"])
    assert code == 1
    check = report["checks"]["pauli_table"]
    assert check["pass"] is False
    assert check["deviation"] == pytest.approx(deviation, rel=1e-6)
    assert report["checks"]["correlator_vs_determinant"]["pass"] is True


def test_correlator_vs_determinant_fails_a_determinant_scaled_by_one_ppm(tmp_path, monkeypatch):
    # negative control pinning the 1e-10 tolerance: the determinant side scaled
    # by 1 + 1e-6 reads about 1e-6, which a tolerance loosened to 1e-5 would pass
    real = qlorentz.cli.polarized_determinant
    monkeypatch.setattr(qlorentz.cli, "polarized_determinant", lambda a, b: (1.0 + 1e-6) * real(a, b))
    code, report = run_report(tmp_path, ["metric", "--trials", "5", "--sym-trials", "2"])
    assert code == 1
    check = report["checks"]["correlator_vs_determinant"]
    assert check["pass"] is False
    assert check["deviation"] == pytest.approx(1e-6, rel=1e-3)
    assert report["checks"]["pauli_table"]["pass"] is True


@pytest.mark.xfail(
    strict=True,
    reason="trace_nonnegative's absolute 1e-9 floor and the floor-1 relative tolerances fail "
    "on rounding at Tr(rho) = 1e6, where eps * Tr(rho)^2 = 2.2e-4",
)
def test_a_scaled_odd_n_pure_state_passes_invariants(tmp_path):
    # a valid state: I_L = Tr(W) = 0 for an odd-n pure state, and every check's
    # deviation here is rounding of order eps * Tr(rho)^2
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(random_state(3, "pure", 2).scaled(1e6))))
    code, _ = run_report(tmp_path, ["invariants", "--input", str(path), "--trials", "3"])
    assert code == 0


METRIC_FAMILY_FLAGS = {
    "boost": ["--boost", "1.5"],
    "rotation": ["--rotation", "0.9"],
    "parity": ["--parity"],
}
# no named family (the sampled default), then all 7 non-empty subsets in stack order
METRIC_LAYOUTS = [()] + [
    f for r in (1, 2, 3) for f in itertools.combinations(METRIC_FAMILY_FLAGS, r)
]


@pytest.mark.parametrize(
    "families",
    METRIC_LAYOUTS,
    ids=lambda f: {(): "sampled", tuple(METRIC_FAMILY_FLAGS): "all-fixed"}.get(f, "+".join(f)),
)
def test_metric_checks_every_map_in_one_correlator_pass(tmp_path, monkeypatch, families):
    # every family of the report, parity included, comes from one stacked call (a
    # second pass through correlator_symmetry_check would count here too) that holds
    # each named map in stack order, boosts, rotations, parity, with sym_trials pairs;
    # the report checks exactly the named families, an empty leading or middle run
    # of the stack among them
    calls = []
    deviations = qlorentz.correlation.correlator_deviations

    def counted(lams, counts, rng):
        calls.append((lams, list(counts)))
        return deviations(lams, counts, rng)

    monkeypatch.setattr(qlorentz.cli, "correlator_deviations", counted)
    monkeypatch.setattr(qlorentz.correlation, "correlator_deviations", counted)
    flags = [flag for name in families for flag in METRIC_FAMILY_FLAGS[name]]
    code, report = run_report(tmp_path, ["metric", "--trials", "5", "--sym-trials", "3"] + flags)
    assert code == 0
    [(lams, counts)] = calls
    symmetry = sorted(name for name in report["checks"] if name.endswith("_symmetry"))
    assert symmetry == sorted(f"{name}_symmetry" for name in families or METRIC_FAMILY_FLAGS)
    if families:
        maps = {"boost": boost_z(1.5), "rotation": rotation_z(0.9)}
        maps = {name: spin_hom(m) for name, m in maps.items()} | {"parity": ETA}
        assert counts == [3] * len(families)
        np.testing.assert_allclose(lams, [maps[name] for name in families], rtol=0, atol=1e-15)
    else:
        # 3 sampled boosts, then 3 sampled rotations, at 5 pairs each; parity at sym_trials
        assert counts == [5] * 6 + [3]
        np.testing.assert_array_equal(lams[-1], ETA)


def test_twirl_zz(tmp_path):
    code, report = run_report(
        tmp_path, ["twirl", "--o1", "Z", "--o2", "Z", "--samples", "20000", "--seed", "3"]
    )
    assert code == 0
    tw = report["twirl"]
    assert abs(tw["chi"] + 1.0 / 3.0) < 1e-12
    assert abs(tw["zeta"] + 2.0 / 3.0) < 1e-12
    assert report["checks"]["twirl_5sigma"]["pass"] is True


def test_twirl_observable_forms(tmp_path):
    code, report = run_report(
        tmp_path,
        ["twirl", "--o1", "1,0,0,1", "--o2", "random", "--samples", "2000", "--seed", "5"],
    )
    assert code == 0
    assert main(["twirl", "--o1", "bogus", "--samples", "2000"]) == 2
    assert main(["twirl", "--samples", "100"]) == 2


def test_twirl_checks_each_observable_once(tmp_path, monkeypatch):
    # one require_hermitian and one as_matrix per observable, wherever they are called from
    counts = {"require_hermitian": 0, "as_matrix": 0}

    def counter(name):
        check = getattr(qlorentz.linalg, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return check(*args, **kwargs)

        return counted

    for name in counts:
        counted = counter(name)
        for module in (qlorentz.linalg, qlorentz.correlation, qlorentz.states, qlorentz.lorentz):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code, _ = run_report(tmp_path, ["twirl", "--o1", "random", "--o2", "Z", "--samples", "1000"])
    assert code == 0
    assert counts == {"require_hermitian": 2, "as_matrix": 2}


@pytest.mark.parametrize(
    "o1, o2",
    [
        ("1e308,0,0,0", "1e308,0,0,0"),
        ("1e200,0,0,0", "1e200,0,0,0"),
        ("1e154,1e154,0,0", "Z"),
        # t + z overflows while the coordinates become a matrix
        ("1e308,0,0,1e308", "Z"),
    ],
)
def test_twirl_overflow_exits_two_with_one_error_line(tmp_path, capsys, o1, o2):
    # no numpy warning may escape ahead of the error line; RuntimeWarning is an error here
    out = tmp_path / "r.json"
    argv = ["twirl", "--o1", o1, "--o2", o2, "--samples", "1000", "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["twirl", "--o1", "1,2,x,4", "--samples", "1000"], "bad observable coordinates '1,2,x,4'"),
        (["boost", "--preset", "singlets6"], "singlet pair count 6 outside 1..5"),
    ],
    ids=["twirl-coordinates", "boost-singlets6"],
)
def test_unparsable_argument_exits_two_with_one_error_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_twirl_large_pair_within_range_still_reports(tmp_path):
    code, report = run_report(
        tmp_path, ["twirl", "--o1", "1e100,0,0,0", "--o2", "Z", "--samples", "1000"]
    )
    assert code == 0
    assert report["twirl"]["chi"] == report["twirl"]["zeta"] == 0.0


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


def test_boost_default_is_one_maximally_mixed_qubit(tmp_path):
    # I/2 has S_L = I_L = 1/2 before and after, so both checks compare nonzero
    # values; a pure default would compare 0.0 with 0.0 under any map
    code, report = run_report(tmp_path, ["boost"])
    assert code == 0
    assert report["config"]["source"] == "preset"
    assert report["config"]["preset"] == "maximally_mixed1"
    assert report["config"]["rapidity"] == 1.0
    assert set(report["checks"]) == {"i_l_preserved", "entropy_preserved"}
    assert report["linear_entropy_before"] == 0.5
    assert report["linear_entropy_after"] == pytest.approx(0.5, abs=1e-12)


def test_boost_default_fails_a_non_unimodular_conjugation(tmp_path, monkeypatch):
    # negative control: diag(2, 1) sends I/2 to diag(2, 1/2), whose S_L = I_L = 2
    m = np.diag([2.0, 1.0])
    monkeypatch.setattr(qlorentz.cli, "apply_local", lambda s, _: QubitState(s.n, m @ s.rho @ m))
    code, report = run_report(tmp_path, ["boost"])
    assert code == 1
    deviations = {name: check["deviation"] for name, check in report["checks"].items()}
    assert deviations == {"i_l_preserved": 0.75, "entropy_preserved": 0.75}


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


@pytest.mark.parametrize(
    "argv",
    [
        ["boost", "--preset", "maximally_mixed2", "--rapidity", "1"],
        ["boost", "--random", "mixed", "--n", "2"],
        ["boost", "--preset", "ghz3", "--rapidity", "-0.8"],
    ],
    ids=["maximally-mixed2", "random-mixed2", "ghz3"],
)
def test_boost_checks_i_l_at_every_n(tmp_path, argv):
    # S_L is a local SL(2,C) invariant only at n = 1; at n >= 2 it is reported, not checked
    code, report = run_report(tmp_path, argv)
    assert code == 0
    assert set(report["checks"]) == {"i_l_preserved"}
    assert report["checks"]["i_l_preserved"]["pass"] is True
    assert "linear_entropy_before" in report and "linear_entropy_after" in report


@pytest.mark.parametrize("n", [1, 3])
def test_boost_fails_a_non_unimodular_factor(tmp_path, monkeypatch, n):
    # negative control: diag(2, 1) has determinant 2, so I_L grows by 4**n; the
    # factor check that apply_local runs is switched off so the report shows it
    monkeypatch.setattr(qlorentz.cli, "boost_z", lambda _: np.diag([2.0, 1.0]))
    monkeypatch.setattr(qlorentz.states, "require_sl2c", lambda f: np.asarray(f, dtype=complex))
    code, report = run_report(tmp_path, ["boost", "--preset", f"maximally_mixed{n}"])
    assert code == 1
    assert report["checks"]["i_l_preserved"]["pass"] is False
    assert ("entropy_preserved" in report["checks"]) == (n == 1)


# real presets: a z-boost cancels every imaginary part to +0.0 on both sides of the diagonal
REAL_PRESETS = ["singlet", "singlets2", "ghz4", "maximally_mixed3", "basis0_5"]


def boost_case(tmp_path, case):
    """(argv, moved state computed in-process) of a boost report, by case name."""
    source, _, rest = case.partition("-")
    if source == "preset":
        flags, state, rapidity = ["--preset", rest], preset(rest), 0.5
    elif source == "random":
        kind, n = rest.split("-")
        flags = ["--random", kind, "--n", n, "--seed", n]
        state = random_state(int(n), kind, split_seed(int(n), qlorentz.cli.STREAM_STATE))
        rapidity = -1.1
    else:
        path = tmp_path / "wstate3.json"
        path.write_text(json.dumps(state_to_json_dict(preset("wstate3"))))
        flags, rapidity = ["--input", str(path)], 0.9
        state = state_from_json_dict(json.loads(path.read_text()))
    moved = apply_local(state, [boost_z(rapidity)] * state.n)
    return ["boost", *flags, f"--rapidity={rapidity!r}"], moved


def writes_state_block(tmp_path, argv, moved):
    """Whether the report's state block is, as text, what json.dumps writes for the moved state."""
    out = tmp_path / "boost.json"
    main(argv + ["--output", str(out)])
    matrix = json.dumps(state_to_json_dict(moved)["matrix"])
    return f'"state": {{"matrix": {matrix}, "n": {moved.n}}}, ' in out.read_text()


@pytest.mark.parametrize(
    "case",
    [f"preset-{name}" for name in REAL_PRESETS + ["singlets5"]]
    + [f"random-{kind}-{n}" for n in range(1, 8) for kind in ("pure", "mixed")]
    + ["input"],
)
def test_boost_writes_the_state_block_json_dumps_writes(tmp_path, case):
    assert writes_state_block(tmp_path, *boost_case(tmp_path, case))


def test_state_block_negative_control(tmp_path, monkeypatch):
    # mirroring a zero too writes -0.0 below the diagonal where the state holds 0.0;
    # a random state has no zero off the diagonal, so there the mirror is right
    def naive_matrix_text(rho):
        mirrored = np.where(np.tri(len(rho), k=-1, dtype=bool), rho.conj().T, rho)
        return json.dumps(np.stack([mirrored.real, mirrored.imag], -1).tolist())

    monkeypatch.setattr(qlorentz.cli, "_matrix_text", naive_matrix_text)
    assert not any(writes_state_block(tmp_path, *boost_case(tmp_path, f"preset-{name}"))
                   for name in REAL_PRESETS)
    assert writes_state_block(tmp_path, *boost_case(tmp_path, "random-mixed-3"))


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


@pytest.mark.parametrize("matrix", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
def test_malformed_state_matrix_exits_two_with_one_line(tmp_path, capsys, matrix):
    # a non-sequence or a wrongly shaped nesting is one error line, never a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "matrix": matrix}))
    out = tmp_path / "r.json"
    assert main(["invariants", "--input", str(path), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "state matrix" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize(
    "entry",
    ['"0.5"', '" 0.5 "', '"5e-1"', "true", "false", "null", "1" + "0" * 400],
    ids=["string", "padded-string", "exponent-string", "true", "false", "null", "int-1e400"],
)
def test_non_numeric_state_entry_exits_two(tmp_path, capsys, entry):
    # one error line naming the entry's type, and no report
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": 1, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{entry}, 0.0]]]}}')
    out = tmp_path / "r.json"
    assert main(["invariants", "--input", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert type(json.loads(entry)).__name__ in err
    assert not out.exists()


def test_near_pure_state_file_is_lorentz_invariant(tmp_path):
    # the W-spectrum keeps the 4e-11 eigenvalue on the base state and on every
    # moved copy, so the invariance deviation stays at rounding level
    path = tmp_path / "near_pure.json"
    path.write_text(json.dumps(state_to_json_dict(QubitState(1, np.diag([1.0, 4e-11])))))
    code, report = run_report(tmp_path, ["invariants", "--input", str(path)])
    assert code == 0
    assert all(c["deviation"] <= 1e-12 for c in report["checks"].values())
    assert report["invariants"]["w_spectrum"] == pytest.approx([4e-11, 4e-11], rel=1e-9)


@pytest.mark.parametrize("n", [2, 7])
def test_invariants_computes_one_w_spectrum_per_state(tmp_path, monkeypatch, n):
    # one public invariant_report call computes the base state's spectrum, which
    # is reported, feeds trace_w, the concurrence and every trial's reference; a
    # trial computes its moved state's spectrum and nothing else spectral, so
    # 1 + trials spectra
    calls, reports = [], []
    real, real_report = qlorentz.states.w_spectrum, qlorentz.invariants.invariant_report

    def counted(s):
        calls.append(s)
        return real(s)

    def counted_report(s):
        reports.append(s)
        return real_report(s)

    for module in (qlorentz.states, qlorentz.invariants, qlorentz.cli):
        if hasattr(module, "w_spectrum"):
            monkeypatch.setattr(module, "w_spectrum", counted)
    monkeypatch.setattr(qlorentz.cli, "invariant_report", counted_report)
    code, report = run_report(
        tmp_path, ["invariants", "--random", "mixed", "--n", str(n), "--trials", "4", "--seed", "2"]
    )
    assert code == 0
    assert len(reports) == 1
    assert len(calls) == 5
    assert len(report["invariants"]["w_spectrum"]) == 2**n
    assert (report["invariants"]["concurrence"] is None) == (n != 2)


BELL_STATES = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)


def bell_diagonal(weights):
    return QubitState(2, np.einsum("k,ki,kj->ij", weights, BELL_STATES, BELL_STATES))


@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-5])
def test_invariants_sees_a_spectrum_shift_the_e_k_hide(tmp_path, monkeypatch, eps):
    # negative control: a Bell-diagonal state is its own spin flip, so its
    # W-spectrum is its squared weights. Moving eps between the two equal
    # weights keeps I_L = sum w^2 to 2 eps^2, and every e_k to O(eps^2), but
    # moves the top two W values by 0.6 eps: the spectrum check must fail
    weights = np.array([0.3, 0.3, 0.25, 0.15])
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json_dict(bell_diagonal(weights))))
    moved = bell_diagonal(weights + np.array([eps, -eps, 0.0, 0.0]))
    monkeypatch.setattr(qlorentz.cli, "apply_local", lambda s, factors: moved)
    code, report = run_report(tmp_path, ["invariants", "--input", str(path), "--trials", "4"])
    check = report["checks"]["lorentz_invariance"]
    assert check["deviation"] == pytest.approx(0.6 * eps + eps * eps, rel=1e-6, abs=1e-14)
    assert code == (0 if eps == 0.0 else 1)
    assert check["pass"] is (eps == 0.0)
    assert report["checks"]["subset_vs_trace"]["pass"] is True


SEED_ARGV = {
    "invariants": ["invariants", "--trials", "1"],
    "oracle": ["oracle", "--n", "2", "--trials", "2"],
    "metric": ["metric", "--trials", "2", "--sym-trials", "1"],
    "twirl": ["twirl", "--samples", "1000"],
    "boost": ["boost"],
}


@pytest.mark.parametrize("command", sorted(SEED_ARGV))
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_exits_two(tmp_path, capsys, command, seed):
    # splitmix64 reads a seed modulo 2**64, so -1 and 2**64 would repeat the
    # reports of 2**64 - 1 and 0 under their own echo
    out = tmp_path / "r.json"
    assert main(SEED_ARGV[command] + [f"--seed={seed}", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --seed must lie in 0..2**64 - 1, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SEED_ARGV))
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_run(tmp_path, command, seed):
    code, report = run_report(tmp_path, SEED_ARGV[command] + ["--seed", str(seed)])
    assert code == 0
    assert report["config"]["seed"] == seed


@pytest.mark.parametrize("command", ["invariants", "boost"])
def test_state_below_the_psd_floor_exits_two(tmp_path, capsys, command):
    # smallest eigenvalue -6e-10 * max|rho| is refused at load, before any command runs
    path = tmp_path / "low.json"
    low = QubitState._adopt(1, np.asarray(np.diag([1.0, -6e-10]), complex))
    path.write_text(json.dumps(state_to_json_dict(low)))
    assert main([command, "--input", str(path)]) == 2
    assert "not PSD" in capsys.readouterr().err


def drift_file(tmp_path):
    """diag(1, -5e-11): its eigenvalue lies inside the PSD floor, so the state loads."""
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(diag_state(1.0, -5e-11)))
    return path


@pytest.mark.parametrize("trials", ["20", "50"])
def test_drift_inside_the_psd_floor_survives_every_trial(tmp_path, trials):
    # a trial's congruence can grow the drift past the input's floor; the kernel
    # trusts the loaded state and drops the sub-cut eigenpair rather than refuse it
    argv = ["invariants", "--input", str(drift_file(tmp_path)), "--trials", trials]
    code, report = run_report(tmp_path, argv)
    assert code == 0
    assert report["checks"]["lorentz_invariance"]["deviation"] <= 1e-14


def _transposed_action(state, factors):
    """A wrong action: the Hermitian part of M rho M^T, indefinite in general."""
    m = qlorentz.linalg.kron_all(factors)
    moved = qlorentz.linalg._hermitize(np.asarray(m @ state.rho @ m.T, complex))
    return QubitState._adopt(state.n, moved)


def _shifted_action(state, factors):
    """A wrong action: the true moved state minus 0.1 Tr(moved) I/d, indefinite."""
    moved = qlorentz.states.apply_local(state, factors)
    shift = 0.1 * moved.trace() / state.dim * np.eye(state.dim)
    return QubitState._adopt(state.n, moved.rho - shift)


@pytest.mark.parametrize("action", [_transposed_action, _shifted_action], ids=["transposed", "shifted"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--random", "mixed", "--n", "3", "--trials", "5"],
        ["--random", "pure", "--n", "4", "--trials", "5"],
        ["--trials", "20"],
    ],
    ids=["mixed-n3", "pure-n4", "drift"],
)
def test_an_indefinite_moved_state_fails_invariance(tmp_path, monkeypatch, action, argv):
    # positivity is checked once, at load: a wrong action that leaves the PSD cone
    # is caught by the spectrum comparison (exit 1), not refused (exit 2)
    if "--random" not in argv:
        argv = argv + ["--input", str(drift_file(tmp_path))]
    monkeypatch.setattr(qlorentz.cli, "apply_local", action)
    code, report = run_report(tmp_path, ["invariants", *argv])
    assert code == 1
    assert report["checks"]["lorentz_invariance"]["deviation"] > 0.5
    assert report["checks"]["subset_vs_trace"]["pass"] is True


def test_unknown_preset_exits_two():
    assert main(["invariants", "--preset", "nosuchstate"]) == 2


@pytest.mark.parametrize("command", ["invariants", "boost"])
def test_empty_preset_exits_two(capsys, command):
    # each command's parser default is its only default: an empty name is not the singlet
    assert main([command, "--preset", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown preset ''") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["invariants", "oracle", "metric", "twirl", "boost"])
def test_tolerance_flag_is_refused(tmp_path, capsys, command):
    # each check is judged only against the tolerance its command states
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--tolerance", "1", "--output", str(out)])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["1000", "20000"])
def test_twirl_report_has_one_verdict(tmp_path, samples):
    code, report = run_report(tmp_path, ["twirl", "--samples", samples, "--seed", "3"])
    assert "pass" not in report["twirl"]
    assert report["pass"] is report["checks"]["twirl_5sigma"]["pass"]
    assert code == (0 if report["pass"] else 1)


def test_state_file_with_a_huge_qubit_count_exits_two_at_once(tmp_path, capsys):
    # the qubit cap refuses it without forming 2**n
    path = tmp_path / "huge_n.json"
    path.write_text(json.dumps({"n": 10**12, "matrix": [[[1.0, 0.0]]]}))
    started = time.perf_counter()
    assert main(["invariants", "--input", str(path)]) == 2
    assert time.perf_counter() - started < 2.0
    assert "qubit count 1000000000000 outside 1..10" in capsys.readouterr().err


def test_deeply_nested_state_file_exits_two(tmp_path, capsys):
    # json.loads recurses once per bracket; the RecursionError must not escape
    path = tmp_path / "deep.json"
    path.write_text('{"n": 1, "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
    output = tmp_path / "report.json"
    assert main(["invariants", "--input", str(path), "--output", str(output)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: state file {path} nests too deeply to parse\n"
    assert captured.out == "" and not output.exists()


def test_reports_are_deterministic(tmp_path):
    state_path = tmp_path / "state6.json"
    state_path.write_text(json.dumps(state_to_json_dict(random_state(6, "mixed", 61))))
    # the path is echoed as a string holding % and non-ASCII text
    odd_path = tmp_path / "st%ate_%s_ü✓.json"
    odd_path.write_text(json.dumps(state_to_json_dict(random_state(2, "mixed", 62))))
    configs = [
        ["oracle", "--n", "3", "--trials", "12", "--seed", "5"],
        ["invariants", "--preset", "ghz3", "--trials", "6", "--seed", "8"],
        ["invariants", "--preset", "singlet", "--trials", "4", "--seed", "9"],
        ["twirl", "--o1", "X", "--o2", "Y", "--samples", "2000", "--seed", "4"],
        ["metric", "--trials", "20", "--sym-trials", "3", "--seed", "6"],
        ["metric", "--boost", "1.5", "--trials", "20", "--sym-trials", "5"],
        ["boost", "--preset", "basis0_10"],
        ["boost", "--random", "mixed", "--n", "6"],
        ["boost", "--input", str(state_path), "--rapidity=-0.7"],
        ["boost", "--input", str(odd_path), "--rapidity=0.4"],
    ]
    for args in configs:
        _, first = run_report(tmp_path, args, "a.json")
        # one line of canonical JSON: floats round-trip exactly through repr,
        # and the wall_time_s field keeps its ": " separator
        text = (tmp_path / "a.json").read_text()
        assert text == json.dumps(first, sort_keys=True) + "\n"
        assert text.count("\n") == 1 and '"wall_time_s": ' in text
        assert text.isascii()
        _, second = run_report(tmp_path, args, "b.json")
        assert strip_wall_time(first) == strip_wall_time(second)


def test_metric_large_fixed_boost_passes(tmp_path):
    # the spin image of boost_z(8.5) has a Minkowski defect of 1.9e-9 from
    # rounding alone, which an absolute tolerance of 1e-9 made an exit 2
    code, report = run_report(tmp_path, ["metric", "--boost", "8.5", "--trials", "10"])
    assert code == 0
    assert report["checks"]["boost_symmetry"]["pass"] is True


@pytest.mark.parametrize("sym_trials", [1, 3, 10])
@pytest.mark.parametrize("seed", [0, 7, 31])
def test_metric_sampled_families_match_per_map_checks(tmp_path, seed, sym_trials):
    # reference: sym_trials scalar draws per family, then each map's own
    # one-map check in turn on the same generator, parity last
    code, report = run_report(
        tmp_path, ["metric", "--trials", "5", "--sym-trials", str(sym_trials), "--seed", str(seed)]
    )
    assert code == 0
    rng = rng_from_seed(split_seed(seed, qlorentz.cli.STREAM_SYMMETRY))
    families = {
        name: [build(float(rng.uniform(low, high))) for _ in range(sym_trials)]
        for name, build, (low, high) in (
            ("boost", boost_z, (-2.0, 2.0)),
            ("rotation", rotation_z, (0.0, 2.0 * np.pi)),
        )
    }
    for name, lams in families.items():
        singles = [correlator_symmetry_check(spin_hom(lam)[None], 5, rng) for lam in lams]
        assert report["checks"][f"{name}_symmetry"]["deviation"] == max(singles)
    # parity: its own one-map check with sym_trials pairs
    parity = correlator_symmetry_check(ETA[None], sym_trials, rng)
    assert report["checks"]["parity_symmetry"]["deviation"] == parity


@pytest.mark.parametrize(
    "flags",
    [["--sym-trials", "1"], ["--sym-trials", "3"], ["--sym-trials", "10"],
     ["--boost", "1.5", "--rotation", "0.9", "--parity", "--sym-trials", "3"]],
    ids=["sampled-1", "sampled-3", "sampled-10", "all-fixed"],
)
def test_metric_builds_one_generator_per_stream(tmp_path, monkeypatch, flags):
    # one generator for the observable pairs and one for the whole symmetry
    # pass, however many maps it checks
    seeds = []

    def counted(seed):
        seeds.append(seed)
        return rng_from_seed(seed)

    monkeypatch.setattr(qlorentz.cli, "rng_from_seed", counted)
    monkeypatch.setattr(qlorentz.correlation, "rng_from_seed", counted)
    code, _ = run_report(tmp_path, ["metric", "--trials", "5", "--seed", "3"] + flags)
    assert code == 0
    assert seeds == [split_seed(3, qlorentz.cli.STREAM_OBSERVABLE),
                     split_seed(3, qlorentz.cli.STREAM_SYMMETRY)]


@pytest.mark.parametrize(
    "argv, sl2c_checks, lorentz_checks",
    [
        (["metric", "--trials", "5", "--sym-trials", "3"], 1, 1),
        (["invariants", "--random", "mixed", "--n", "3", "--trials", "4"], 4, 0),
        (["boost", "--preset", "ghz3"], 1, 0),
    ],
    ids=["metric", "invariants", "boost"],
)
def test_each_map_is_checked_once_per_form(tmp_path, monkeypatch, argv, sl2c_checks, lorentz_checks):
    # maps are checked where they enter, not where they are built: a metric map
    # once as an SL(2,C) element (spin_images) and once as a Lorentz matrix
    # (correlator_deviations), an invariance or boost factor once (apply_local)
    counts = {"require_sl2c": 0, "require_lorentz": 0}

    def counter(name):
        check = getattr(qlorentz.lorentz, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return check(*args, **kwargs)

        return counted

    for name, modules in (
        ("require_sl2c", (qlorentz.lorentz, qlorentz.states)),
        ("require_lorentz", (qlorentz.lorentz, qlorentz.correlation)),
    ):
        counted = counter(name)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
    code, _ = run_report(tmp_path, argv)
    assert code == 0
    assert counts == {"require_sl2c": sl2c_checks, "require_lorentz": lorentz_checks}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_metric_non_finite_rotation_exits_two(tmp_path, capsys, angle):
    # refused with one line naming the angle, before numpy can warn about it
    out = tmp_path / "r.json"
    assert main(["metric", f"--rotation={angle}", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: rotation angle {angle} is not finite\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_metric_huge_finite_rotation_passes(tmp_path):
    code, report = run_report(tmp_path, ["metric", "--rotation", "1e300", "--trials", "5"])
    assert code == 0
    assert report["checks"]["rotation_symmetry"]["pass"] is True


def test_parser_is_built_once_and_survives_a_bad_flag(tmp_path):
    argv = ["metric", "--trials", "20", "--sym-trials", "3", "--seed", "6"]

    before = strip_wall_time(run_report(tmp_path, argv, "a.json")[1])
    with pytest.raises(SystemExit) as exc:
        main(["metric", "--trials", "7", "--no-such-flag"])
    assert exc.value.code == 2
    assert strip_wall_time(run_report(tmp_path, argv, "b.json")[1]) == before
    assert qlorentz.cli.build_parser() is qlorentz.cli.build_parser()


@pytest.mark.parametrize("target", ["--output"])
def test_unwritable_output_exits_two(tmp_path, capsys, target):
    # exit 2 leaves no usable output: no file anywhere, and nothing on stdout
    argv = ["metric", "--trials", "2", "--sym-trials", "1"]
    assert main(argv + [target, str(tmp_path / "missing" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_shrinking_rewrite_leaves_no_old_bytes(tmp_path):
    # a long report then a short one into one --output: a writer that skips the cut
    # leaves the first one's tail
    out, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    assert main(["metric", "--trials", "200", "--output", str(out)]) == 0
    long_size = out.stat().st_size
    assert main(["metric", "--trials", "2", "--output", str(out)]) == 0
    assert main(["metric", "--trials", "2", "--output", str(fresh)]) == 0
    assert out.stat().st_size < long_size / 5
    # canonical to the last byte, so nothing of the long report follows the short one
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert strip_wall_time(json.loads(text)) == strip_wall_time(json.loads(fresh.read_text()))


def guard_devnull(monkeypatch, tmp_path):
    """Make os.rename, replace, unlink and remove raise AssertionError on os.devnull.

    A writer that renames over or unlinks a path it was given then fails its test
    instead of leaving a regular file in the place of the machine's /dev/null.
    """
    for name in ("rename", "replace", "unlink", "remove"):
        real = getattr(os, name)

        def guarded(*paths, _real=real, _name=name, **kwargs):
            if os.devnull in (os.path.normpath(os.fspath(p)) for p in paths):
                raise AssertionError(f"os.{_name} called on {os.devnull}")
            return _real(*paths, **kwargs)

        monkeypatch.setattr(os, name, guarded)
    # each guard raises; had one not, the real call fails harmlessly (a missing
    # source, or a trailing slash after a non-directory)
    for name in ("rename", "replace"):
        with pytest.raises(AssertionError):
            getattr(os, name)(tmp_path / "missing", os.devnull)
    for name in ("unlink", "remove"):
        with pytest.raises(AssertionError):
            getattr(os, name)(os.devnull + "/")


@pytest.mark.parametrize("target", ["--output"])
def test_a_device_path_takes_the_output(tmp_path, monkeypatch, target):
    # /dev/null seeks but refuses a truncate: only a regular file is cut to length
    guard_devnull(monkeypatch, tmp_path)
    assert main(["oracle", "--n", "2", "--trials", "2", target, os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert list(tmp_path.iterdir()) == []


def exit_code(argv) -> int:
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", ["invariants", "oracle", "metric", "twirl", "boost"])
def test_a_csv_flag_exits_two_and_keeps_its_file(tmp_path, monkeypatch, capsys, command):
    # no command takes --csv: it is refused before anything runs, so the file it
    # names keeps its bytes, /dev/null stays a device, and no other file appears
    guard_devnull(monkeypatch, tmp_path)
    table, kept = tmp_path / "keep.csv", b"trial,deviation\r\n0,0.5\r\n"
    table.write_bytes(kept)
    unopenable = ["--output", str(tmp_path / "missing" / "r.json")]
    for path in (table, os.devnull):
        assert exit_code([command, "--csv", str(path)] + unopenable) == 2
        assert table.exists() and table.read_bytes() == kept
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert list(tmp_path.iterdir()) == [table]
        captured = capsys.readouterr()
        assert captured.out == "" and "--csv" in captured.err


def test_a_rewrite_keeps_the_file(tmp_path):
    # written over in place: a temp file renamed over the path, or an unlink and a
    # fresh create, would give a new inode and mode, and replace a symlink with a file
    out = tmp_path / "r.json"
    assert main(["metric", "--trials", "50", "--output", str(out)]) == 0
    out.chmod(0o600)
    before = out.stat()
    link = tmp_path / "link.json"
    link.symlink_to(out)
    assert main(["metric", "--trials", "3", "--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(out)
    assert json.loads(out.read_text())["config"]["trials"] == 3
    assert main(["metric", "--trials", "2", "--output", str(out)]) == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert json.loads(out.read_text())["config"]["trials"] == 2


def test_a_directory_output_exits_two(tmp_path, capsys):
    argv = ["metric", "--trials", "2", "--sym-trials", "1"]
    assert main(argv + ["--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def diag_state(a: float, b: float) -> dict:
    """The one-qubit state file of diag(a, b)."""
    return {"n": 1, "matrix": [[[a, 0], [0, 0]], [[0, 0], [b, 0]]]}


TOO_LARGE = "is too large: Tr(rho)^2 is not finite\n"


@pytest.mark.parametrize(
    "state, argv, message",
    [
        # finite entries, but Tr(rho)^2 overflows: refused where the state is loaded
        (diag_state(1e300, 1e300), ["invariants", "--trials", "0"], "state trace 2.000e+300 " + TOO_LARGE),
        (diag_state(1e300, 1e300), ["boost", "--rapidity=0.1"], "state trace 2.000e+300 " + TOO_LARGE),
        (diag_state(1e155, 5e154), ["invariants", "--trials", "3"], "state trace 1.500e+155 " + TOO_LARGE),
        (diag_state(1e155, 5e154), ["invariants", "--trials", "0"], "state trace 1.500e+155 " + TOO_LARGE),
        (diag_state(1e155, 5e154), ["boost"], "state trace 1.500e+155 " + TOO_LARGE),
        # a loadable state whose moved Tr(rho)^2 overflows: refused by apply_local,
        # which names the moved trace: e^20 times the first entry under the boost, and
        # about 12 times the loaded trace under the first of seed 0's five sampled maps
        (diag_state(1e150, 5e149), ["boost", "--rapidity", "20"], "state trace 4.852e+158 " + TOO_LARGE),
        (
            diag_state(1.5e153, 7.5e152),
            ["invariants", "--trials", "5", "--max-rapidity", "20"],
            "state trace 2.786e+154 " + TOO_LARGE,
        ),
        # entries at the float64 limit: the Hermitian gate forms neither m + m^dag nor
        # m - m^dag unhalved, so it overflows nothing ahead of the refusal
        (diag_state(1.7e308, 1.7e308), ["invariants"], "state trace inf " + TOO_LARGE),
        (diag_state(1.7e308, 1.7e308), ["boost"], "state trace inf " + TOO_LARGE),
        (
            {"n": 1, "matrix": [[[1, 0], [1e308, 0]], [[-1e308, 0], [1, 0]]]},
            ["invariants"],
            "state is not Hermitian: max asymmetry inf exceeds tol 1.000e+298\n",
        ),
    ],
    ids=["invariants", "boost", "1e155-invariants-trials3", "1e155-invariants-trials0",
         "1e155-boost", "1e150-boost-rapidity20", "1.5e153-invariants-rapidity20",
         "1.7e308-invariants", "1.7e308-boost", "1e308-asymmetric"],
)
def test_non_finite_report_exits_two(tmp_path, capsys, state, argv, message):
    # exactly one error line, from the gate named in it, and no numpy warning,
    # which the console would print ahead of it
    path = tmp_path / "big.json"
    path.write_text(json.dumps(state))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--input", str(path), "--output", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: " + message
    assert not out.exists()


@pytest.mark.parametrize(
    "text, argv",
    [
        ("{not json", ["invariants"]),
        # loaded, then refused by apply_local once the boost overflows Tr(rho)^2
        (json.dumps(diag_state(1e150, 5e149)), ["boost", "--rapidity", "20"]),
    ],
    ids=["malformed-invariants", "1e150-boost-rapidity20"],
)
def test_an_exit_two_keeps_an_existing_output(tmp_path, capsys, text, argv):
    # refused before the one write: the old report keeps its bytes, and nothing is printed
    path, out = tmp_path / "in.json", tmp_path / "r.json"
    path.write_text(text)
    old = b'{"command": "old"}\n'
    out.write_bytes(old)
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 2
    assert out.read_bytes() == old
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def scaled_mixed_state(n, c):
    return state_to_json_dict(random_state(n, "mixed", 7).scaled(c))


#: valid states: each W-spectrum entry is at most Tr(rho)^2, which is finite,
#: while their product det(W) overflows float64
LARGE_STATES = {
    "n6-1e10": (scaled_mixed_state(6, 1e10), ["--trials", "20"]),
    "n4-1e20": (scaled_mixed_state(4, 1e20), ["--trials", "20"]),
    "n3-1e40": (scaled_mixed_state(3, 1e40), ["--trials", "20"]),
    "1e100-invariants": (diag_state(1e100, 5e99), ["--trials", "0"]),
    # seed 0's five sampled maps grow the trace at most 32 times, so Tr(rho)^2 stays finite
    "1e150-invariants-rapidity20": (diag_state(1e150, 5e149), ["--trials", "5", "--max-rapidity", "20"]),
    # Tr(rho)^2 = 1.69e308, just under the float64 limit: every subset-route term
    # is finite, and so must be their sum
    "maximally_mixed8-1.3e154": (
        state_to_json_dict(preset("maximally_mixed8").scaled(1.3e154)), ["--trials", "0"]
    ),
    "n6-1.3e154": (scaled_mixed_state(6, 1.3e154), ["--trials", "0"]),
}


@pytest.mark.parametrize("case", sorted(LARGE_STATES))
def test_large_valid_state_reports_its_spectrum(tmp_path, capsys, case):
    state, argv = LARGE_STATES[case]
    path = tmp_path / "large.json"
    path.write_text(json.dumps(state))
    code, report = run_report(tmp_path, ["invariants", "--input", str(path), *argv])
    assert code == 0
    assert capsys.readouterr().err == ""
    spectrum = report["invariants"]["w_spectrum"]
    assert len(spectrum) == 2 ** state["n"]
    assert all(np.isfinite(spectrum)) and spectrum[0] > 0.0
    assert "spectral_invariants" not in report["invariants"]
    assert all(c["pass"] for c in report["checks"].values())


@pytest.mark.parametrize(
    "case", sorted(k for k, (_, argv) in LARGE_STATES.items() if argv[:2] != ["--trials", "0"])
)
def test_large_valid_state_fails_a_moved_spectrum_off_by_one_ppm(tmp_path, monkeypatch, case):
    # negative control: the first spectrum is the loaded state's; every later one
    # is a moved state's, and its largest entry is scaled by 1 + 1e-6
    state, argv = LARGE_STATES[case]
    path = tmp_path / "large.json"
    path.write_text(json.dumps(state))
    calls = []
    real = qlorentz.cli.w_spectrum

    def skewed(s):
        lam = real(s)
        if calls:
            lam[0] *= 1.0 + 1e-6
        calls.append(s)
        return lam

    monkeypatch.setattr(qlorentz.cli, "w_spectrum", skewed)
    code, report = run_report(tmp_path, ["invariants", "--input", str(path), *argv])
    assert code == 1
    check = report["checks"]["lorentz_invariance"]
    assert check["pass"] is False
    assert check["deviation"] == pytest.approx(1e-6, rel=1e-3)
    assert report["checks"]["subset_vs_trace"]["pass"] is True


def test_stdout_default(capsys):
    code = main(["invariants", "--preset", "singlet", "--trials", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "invariants"


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["invariants", "--trials", "1"], {"invariants"}),
        (["oracle", "--n", "2", "--trials", "2"], set()),
        (["metric", "--trials", "2", "--sym-trials", "1"], {"pauli_table"}),
        (["twirl", "--samples", "1000"], {"twirl"}),
        (["boost"], {"state", "linear_entropy_before", "linear_entropy_after",
                     "trace_before", "trace_after"}),
    ],
    ids=["invariants", "oracle", "metric", "twirl", "boost"],
)
def test_report_top_level_keys(tmp_path, argv, extra):
    # the verdict is stated per check and once for the report, with no summary beside them
    _, report = run_report(tmp_path, argv)
    assert set(report) == {"command", "config", "trials", "checks", "pass", "wall_time_s"} | extra


COMMON = {"command", "seed", "seed_split"}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["oracle", "--n", "2", "--trials", "2"], {"n", "trials"}),
        (["metric", "--trials", "2", "--sym-trials", "1"],
         {"trials", "sym_trials", "boost", "rotation", "parity"}),
        (["twirl", "--samples", "1000"], {"samples", "o1", "o2"}),
        (["invariants", "--trials", "1"], {"trials", "max_rapidity", "source", "preset"}),
        (["invariants", "--random", "pure", "--n", "3", "--trials", "1"],
         {"trials", "max_rapidity", "source", "random_kind", "n"}),
        (["boost", "--preset", "singlet"], {"rapidity", "source", "preset"}),
        (["boost", "--input", "STATE"], {"rapidity", "source", "input_path"}),
    ],
    ids=["oracle", "metric", "twirl", "invariants-preset", "invariants-random",
         "boost-preset", "boost-input"],
)
def test_config_echo_keys(tmp_path, argv, keys):
    # every flag but --output, with a state command's source echo for its state flags
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json_dict(random_state(1, "mixed", 4))))
    argv = [str(state) if a == "STATE" else a for a in argv]
    _, report = run_report(tmp_path, argv)
    assert set(report["config"]) == COMMON | keys
    assert report["config"]["command"] == report["command"] == argv[0]


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# cli.main on an n = 7 invariants report, twice to warm up, then five times
# counting the process's minor page faults
FAULT_CHILD = """
import resource, sys
from qlorentz.cli import main
argv = ["invariants", "--random", "mixed", "--n", "7", "--trials", "4", "--output", sys.argv[1]]
for _ in range(2):
    assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_an_n7_report_loop_does_not_refault_its_heap(tmp_path):
    # A fresh process: in this one an earlier n = 10 test has raised glibc's
    # dynamic mmap threshold, which hides the churn. Without the pinned
    # thresholds each trial's 256 KiB arrays are trimmed from the heap's top and
    # faulted in again by the next trial: about 4,000 faults over the five reports.
    src = str(Path(qlorentz.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FAULT_CHILD, str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100


@pytest.fixture
def fresh_pin():
    qlorentz.cli._pin_malloc_thresholds.cache_clear()
    yield
    qlorentz.cli._pin_malloc_thresholds.cache_clear()


def _refuse(_):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_refuse, lambda _: object()], ids=["oserror", "no-symbol"])
def test_a_missing_mallopt_is_a_no_op(tmp_path, monkeypatch, fresh_pin, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert qlorentz.cli._pin_malloc_thresholds.__wrapped__() is None
    code, _ = run_report(tmp_path, ["metric", "--trials", "2", "--sym-trials", "1"])
    assert code == 0
