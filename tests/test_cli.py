"""End-to-end CLI behavior: reports, determinism, exit codes, file I/O."""

import csv
import json
import time

import numpy as np
import pytest

from qlorentz.states import QubitState, random_state, state_to_json_dict
from qlorentz.cli import main
import qlorentz.cli
import qlorentz.correlation
import qlorentz.linalg
import qlorentz.lorentz
import qlorentz.states
from qlorentz.correlation import correlator_symmetry_check
from qlorentz.linalg import MAX_QUBITS
from qlorentz.lorentz import ETA, boost_z, rotation_z, spin_hom
from qlorentz.seeding import rng_from_seed, split_seed


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
    assert report["invariants"]["spectral_invariants"][0] == 0.0


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
    # moves the trace route by 2 rho_00 rho_dd, and leaves the subset route
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
    [[], ["--boost", "1.5"], ["--rotation", "0.9"], ["--parity"],
     ["--boost", "1.5", "--rotation", "0.9", "--parity"]],
    ids=["sampled", "boost", "rotation", "parity", "all-fixed"],
)
def test_metric_checks_every_map_in_one_correlator_pass(tmp_path, monkeypatch, flags):
    # every family of the report, parity included, comes from one stacked call;
    # a second pass through correlator_symmetry_check would count here too
    calls = []
    deviations = qlorentz.correlation.correlator_deviations

    def counted(*args):
        calls.append(args)
        return deviations(*args)

    monkeypatch.setattr(qlorentz.cli, "correlator_deviations", counted)
    monkeypatch.setattr(qlorentz.correlation, "correlator_deviations", counted)
    code, _ = run_report(tmp_path, ["metric", "--trials", "5", "--sym-trials", "3"] + flags)
    assert code == 0
    assert len(calls) == 1


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
    assert report["invariants"]["spectral_invariants"][0] > 0.0


@pytest.mark.parametrize("n", [2, 7])
def test_invariants_computes_one_w_spectrum_per_state(tmp_path, monkeypatch, n):
    # the base state's spectrum feeds the e_k, the concurrence and every
    # trial's reference; a trial computes its moved state's spectrum and
    # nothing else spectral, so 1 + trials spectra and one e_k expansion
    counts = {"w_spectrum": 0, "_symmetric_polys": 0}

    def counted(name, func):
        def wrapper(*args):
            counts[name] += 1
            return func(*args)

        return wrapper

    spectrum = counted("w_spectrum", qlorentz.states.w_spectrum)
    for module in (qlorentz.states, qlorentz.invariants, qlorentz.cli):
        if hasattr(module, "w_spectrum"):
            monkeypatch.setattr(module, "w_spectrum", spectrum)
    monkeypatch.setattr(
        qlorentz.invariants,
        "_symmetric_polys",
        counted("_symmetric_polys", qlorentz.invariants._symmetric_polys),
    )
    code, report = run_report(
        tmp_path, ["invariants", "--random", "mixed", "--n", str(n), "--trials", "4", "--seed", "2"]
    )
    assert code == 0
    assert counts == {"w_spectrum": 5, "_symmetric_polys": 1}
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


def test_unknown_preset_exits_two():
    assert main(["invariants", "--preset", "nosuchstate"]) == 2


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


@pytest.mark.parametrize("target", ["--output", "--csv"])
def test_unwritable_output_exits_two(tmp_path, capsys, target):
    # exit 2 leaves no usable output: not the other file, and nothing on stdout
    argv = ["metric", "--trials", "2", "--sym-trials", "1"]
    unwritable = [target, str(tmp_path / "missing" / "out")]
    other = tmp_path / "other"
    code = main(argv + unwritable + [{"--output": "--csv", "--csv": "--output"}[target], str(other)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not other.exists()
    if target == "--csv":
        assert main(argv + unwritable) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


# finite entries, but Tr(rho)^2 overflows, so the invariants come out NaN or Infinity
BIG_STATE = {"n": 1, "matrix": [[[1e300, 0], [0, 0]], [[0, 0], [1e300, 0]]]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [["invariants", "--trials", "0"], ["boost", "--rapidity=0.1"]],
    ids=["invariants", "boost"],
)
def test_non_finite_report_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_STATE))
    out = tmp_path / "r.json"
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["twirl", "boost"])
def test_csv_is_refused_without_trial_records(tmp_path, capsys, command):
    # twirl and boost have no per-trial records, so they offer no --csv
    csv_path = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--csv", str(csv_path)])
    assert exc.value.code == 2
    assert "--csv" in capsys.readouterr().err
    assert not csv_path.exists()


def test_stdout_default(capsys):
    code = main(["invariants", "--preset", "singlet", "--trials", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "invariants"


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
    # every flag but --output and --csv, with a state command's source echo for its state flags
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json_dict(random_state(1, "mixed", 4))))
    argv = [str(state) if a == "STATE" else a for a in argv]
    if argv[0] in ("invariants", "oracle", "metric"):
        argv += ["--csv", str(tmp_path / "t.csv")]
    _, report = run_report(tmp_path, argv)
    assert set(report["config"]) == COMMON | keys
    assert report["config"]["command"] == report["command"] == argv[0]
