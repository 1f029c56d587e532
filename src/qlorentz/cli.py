"""Command-line front end: seeded experiments with JSON/CSV reports.

Five subcommands exercise the library end to end:

  invariants  scalar invariants of one state plus random-action invariance
  oracle      subset-sum vs trace-formula agreement on random states
  metric      Pauli correlation table and determinant/symmetry checks
  twirl       Haar-twirl Monte Carlo against the chi*I - zeta*F closed form
  boost       conjugate a state by per-qubit boosts, report I_L/entropy/trace

Each command returns its checks as (deviation, tolerance) pairs, each judged
against the tolerance its command states; one report path times it, echoes
its flags as the config and assembles the report with the one verdict.
Reports are byte-identical for identical configs and seeds, except for the
wall_time_s field, and are strict JSON on one line: the text is
json.dumps(report, sort_keys=True, allow_nan=False) plus a newline, written by
json's C encoder; `python -m json.tool` shows it indented. invariants, oracle
and metric also write their per-trial records with --csv.
Exit code 0 means every check passed, 1 means a property check failed, 2
means the inputs were unusable, the report or CSV could not be written, or
the report held a non-finite value. An exit 2 writes no report, no CSV and
nothing to stdout, unless a write fails partway (a full disk, a closed
pipe), which can leave a truncated report or CSV behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from .correlation import (
    TWIRL_ABS_FLOOR,
    _singlet_correlation,
    correlator_deviations,
    haar_twirl_mc,
    pauli_correlation_table,
    polarized_determinant,
)
from .invariants import (
    _invariant_report,
    linear_entropy,
    linear_mutual_info_subsets,
    linear_mutual_info_trace,
)
from .lorentz import (
    ETA,
    MAX_RAPIDITY,
    boost_z,
    boosts_z,
    herm_from_vector,
    rotations_z,
    sample_sl2c_stack,
    spin_images,
)
from .linalg import MAX_QUBITS, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from .seeding import MASK64, SEED_SPLIT_NAME, rng_from_seed, split_seed
from .states import (
    QubitState,
    apply_local,
    preset,
    random_state,
    state_from_json_dict,
    state_to_json_dict,
    w_spectrum,
)

# fixed sub-seed streams so each randomness consumer is independent; metric and
# twirl draw from one generator per stream, invariants and oracle split one per trial
STREAM_STATE = 0
STREAM_ACTION = 1
STREAM_SCALE = 2
STREAM_OBSERVABLE = 3
STREAM_SYMMETRY = 4

# the flags _load_state reads; its source echo replaces them in the config
STATE_FLAGS = ("preset", "random", "n", "input")

_PAULI_BY_NAME = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _rel_dev(a, b):
    """|a - b| / max(1, |a|, |b|), elementwise: a float for scalars, a list for arrays."""
    a, b = np.asarray(a), np.asarray(b)
    return (np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))).tolist()


def _load_state(args) -> tuple[QubitState, dict]:
    """Resolve the state source flags into a state and a config echo."""
    if args.input:
        path = Path(args.input)
        try:
            payload = json.loads(path.read_text())
        except RecursionError:
            raise ValueError(f"state file {path} nests too deeply to parse") from None
        return state_from_json_dict(payload), {"source": "input", "input_path": str(path)}
    if args.random:
        state = random_state(args.n, args.random, split_seed(args.seed, STREAM_STATE))
        return state, {"source": "random", "random_kind": args.random, "n": args.n}
    name = args.preset or "singlet"
    return preset(name), {"source": "preset", "preset": name}


def _parse_observable(text: str, rng: np.random.Generator) -> np.ndarray:
    """Observable from a Pauli letter, 'random', or inline 't,x,y,z' coordinates."""
    token = text.strip()
    upper = token.upper()
    if upper in _PAULI_BY_NAME:
        return _PAULI_BY_NAME[upper].copy()
    if token.lower() == "random":
        return herm_from_vector(rng.standard_normal(4))
    parts = token.split(",")
    if len(parts) == 4:
        try:
            coords = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad observable coordinates {text!r}") from None
        # t + z may overflow to inf, an entry the twirl refuses as non-finite
        with np.errstate(over="ignore"):
            return herm_from_vector(coords)
    raise ValueError(
        f"observable {text!r} not understood; use I, X, Y, Z, random, or t,x,y,z"
    )


def cmd_invariants(args):
    """Invariants of one state, and their invariance under random local actions.

    The state's W-spectrum is computed once: the reported e_k and, at n = 2,
    the concurrence are read off it, and it is each trial's reference. A
    trial moves the state by one sampled SL(2,C)^(x)n action and computes the
    moved state's W-spectrum once; its deviation is the worst _rel_dev of
    the trace route of I_L and of the sorted spectra, entry by entry. The
    e_k and the concurrence are functions of the spectrum, so they are not
    compared again.
    """
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    if not 0.0 < args.max_rapidity <= MAX_RAPIDITY:
        raise ValueError(f"max_rapidity must lie in (0, {MAX_RAPIDITY}]")
    state, source = _load_state(args)
    lam = w_spectrum(state)
    base = _invariant_report(state, lam)

    checks = {
        "subset_vs_trace": (_rel_dev(base.i_l_subset, base.i_l_trace), 1e-8),
        "trace_nonnegative": (max(0.0, -base.i_l_trace), 1e-9),
    }

    trials = []
    action_seed = split_seed(args.seed, STREAM_ACTION)
    worst = 0.0
    for i in range(args.trials):
        rng = rng_from_seed(split_seed(action_seed, i))
        moved = apply_local(state, sample_sl2c_stack(rng, state.n, args.max_rapidity))
        dev = max(
            _rel_dev(linear_mutual_info_trace(moved), base.i_l_trace),
            *_rel_dev(w_spectrum(moved), lam),
        )
        worst = max(worst, dev)
        trials.append({"trial": i, "deviation": dev})
    if args.trials:
        checks["lorentz_invariance"] = (worst, 1e-7)
    return source, trials, checks, {"invariants": base.to_json_dict()}


def cmd_oracle(args):
    """Both I_L routes on random states: pure at even trials i, mixed at odd, scaled if i % 4 >= 2.

    One _rel_dev pass over the two routes' (trials,) arrays gives each trial's
    deviation, bit for bit the elementwise operations of a call per trial.
    """
    if not 1 <= args.n <= MAX_QUBITS:
        raise ValueError(f"oracle supports n in 1..{MAX_QUBITS}, got {args.n}")
    if args.trials <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    state_seed = split_seed(args.seed, STREAM_STATE)
    scale_seed = split_seed(args.seed, STREAM_SCALE)

    trials = []
    for i in range(args.trials):
        kind = "pure" if i % 2 == 0 else "mixed"
        s = random_state(args.n, kind, split_seed(state_seed, i))
        scaled = i % 4 >= 2
        if scaled:
            c = float(rng_from_seed(split_seed(scale_seed, i)).uniform(0.2, 5.0))
            s = s.scaled(c)
        subset, trace = linear_mutual_info_subsets(s), linear_mutual_info_trace(s)
        trials.append(dict(trial=i, kind=kind, scaled=scaled, i_l_subset=subset, i_l_trace=trace))
    devs = _rel_dev([r["i_l_subset"] for r in trials], [r["i_l_trace"] for r in trials])
    for row, dev in zip(trials, devs):
        row["deviation"] = dev
    return None, trials, {"trace_formula": (max(devs), 1e-8)}, {}


def cmd_metric(args):
    """Pauli table, correlator-vs-determinant trials, and the symmetry checks.

    By default: sym_trials sampled boosts and rotations at 5 pairs each, and
    parity; else each map named by --boost, --rotation or --parity. A named
    map or parity gets sym_trials pairs. One generator from STREAM_SYMMETRY
    draws the sampled maps, then every map's pairs in one correlator_deviations
    call; a family's check is the max over its maps.
    """
    if args.trials <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if args.sym_trials <= 0:
        raise ValueError(f"--sym-trials must be positive, got {args.sym_trials}")
    table = pauli_correlation_table()
    checks = {"pauli_table": (float(np.abs(table - ETA).max()), 1e-12)}

    # one (o1, o2) pair per trial, drawn 4-vector by 4-vector; Hermitian by
    # construction, so the correlator skips the public input checks
    obs = herm_from_vector(
        rng_from_seed(split_seed(args.seed, STREAM_OBSERVABLE)).standard_normal((args.trials, 2, 4))
    )
    corr = _singlet_correlation(obs[:, 0], obs[:, 1])
    devs = _rel_dev(corr, polarized_determinant(obs[:, 0], obs[:, 1]))
    trials = [
        {"trial": i, "correlation": c, "deviation": d}
        for i, (c, d) in enumerate(zip(corr.tolist(), devs))
    ]
    checks["correlator_vs_determinant"] = (max(devs), 1e-10)

    k = args.sym_trials
    sym_rng = rng_from_seed(split_seed(args.seed, STREAM_SYMMETRY))
    if args.boost is None and args.rotation is None and not args.parity:
        rapidities = sym_rng.uniform(-2.0, 2.0, size=k)
        angles = sym_rng.uniform(0.0, 2.0 * np.pi, size=k)
        pairs, parity = 5, True
    else:
        rapidities, angles = ([] if x is None else [x] for x in (args.boost, args.rotation))
        pairs, parity = k, args.parity
    # one row per map: family, map, pairs
    spins = iter(spin_images(np.concatenate([boosts_z(rapidities), rotations_z(angles)])))
    families = (("boost", len(rapidities)), ("rotation", len(angles)))
    rows = [(name, next(spins), pairs) for name, m in families for _ in range(m)]
    rows += [("parity", ETA, k)] if parity else []
    names, lams, counts = zip(*rows)
    sym_devs = correlator_deviations(np.stack(lams), counts, sym_rng)
    for name in dict.fromkeys(names):
        checks[f"{name}_symmetry"] = (sym_devs[np.asarray(names) == name].max(), 1e-8)
    return None, trials, checks, {"pauli_table": table.tolist()}


def cmd_twirl(args):
    obs_rng = rng_from_seed(split_seed(args.seed, STREAM_OBSERVABLE))
    o1 = _parse_observable(args.o1, obs_rng)
    o2 = _parse_observable(args.o2, obs_rng)
    tw = haar_twirl_mc(o1, o2, args.samples, split_seed(args.seed, STREAM_STATE))
    checks = {"twirl_5sigma": (tw["max_abs_deviation"], 5.0 * tw["std_error"] + TWIRL_ABS_FLOOR)}
    return None, [], checks, {"twirl": tw}


def cmd_boost(args):
    state, source = _load_state(args)
    moved = apply_local(state, [boost_z(args.rapidity)] * state.n)
    s_before = linear_entropy(state)
    s_after = linear_entropy(moved)
    # I_L is a local SL(2,C) invariant at every n; S_L is one only at n = 1, where it equals I_L
    checks = {
        "i_l_preserved": (
            _rel_dev(linear_mutual_info_trace(state), linear_mutual_info_trace(moved)), 1e-9
        )
    }
    if state.n == 1:
        checks["entropy_preserved"] = (_rel_dev(s_before, s_after), 1e-9)
    extra = {
        "state": state_to_json_dict(moved),
        "linear_entropy_before": s_before,
        "linear_entropy_after": s_after,
        "trace_before": state.trace(),
        "trace_after": moved.trace(),
    }
    return source, [], checks, extra


def _add_state_source_flags(p: argparse.ArgumentParser, default_preset: str):
    p.add_argument("--preset", default=default_preset,
                   help="named state: singlet, ghz<n>, wstate<n>, product_of_singlets<k>, "
                        "maximally_mixed<n>, basis0<n>")
    p.add_argument("--random", choices=["pure", "mixed"], default=None,
                   help="draw a random state instead of a preset")
    p.add_argument("--n", type=int, default=2, help="qubit count for --random")
    p.add_argument("--input", default=None, help="path to a state JSON file")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlorentz",
        description="Lorentz-invariant scalars of n-qubit states and the singlet metric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariants of one state plus invariance trials")
    _add_state_source_flags(p_inv, "singlet")
    p_inv.add_argument("--trials", type=int, default=20,
                       help="random local actions for the invariance check")
    p_inv.add_argument("--max-rapidity", type=float, default=2.0)
    p_inv.set_defaults(func=cmd_invariants)

    p_orc = sub.add_parser("oracle", help="subset-sum vs trace-formula agreement")
    p_orc.add_argument("--n", type=int, default=3,
                       help=f"qubit count of the random states, 1..{MAX_QUBITS}")
    p_orc.add_argument("--trials", type=int, default=200)
    p_orc.set_defaults(func=cmd_oracle)

    p_met = sub.add_parser("metric", help="Pauli table, determinant identity, symmetry checks")
    p_met.add_argument("--trials", type=int, default=1000,
                       help="random Hermitian pairs for the determinant identity")
    p_met.add_argument("--sym-trials", type=int, default=100)
    p_met.add_argument("--boost", type=float, default=None,
                       help="check symmetry under this fixed boost rapidity only")
    p_met.add_argument("--rotation", type=float, default=None,
                       help="check symmetry under this fixed rotation angle only")
    p_met.add_argument("--parity", action="store_true",
                       help="check symmetry under the parity map only")
    p_met.set_defaults(func=cmd_metric)

    p_twl = sub.add_parser("twirl", help="Haar-twirl Monte Carlo")
    p_twl.add_argument("--o1", default="Z", help="I, X, Y, Z, random, or t,x,y,z")
    p_twl.add_argument("--o2", default="Z", help="I, X, Y, Z, random, or t,x,y,z")
    p_twl.add_argument("--samples", type=int, default=100_000)
    p_twl.set_defaults(func=cmd_twirl)

    p_bst = sub.add_parser("boost", help="apply per-qubit boosts to a state")
    _add_state_source_flags(p_bst, "maximally_mixed1")
    p_bst.add_argument("--rapidity", type=float, default=1.0)
    p_bst.set_defaults(func=cmd_boost)

    for p in (p_inv, p_orc, p_met, p_twl, p_bst):
        p.add_argument("--seed", type=int, default=0, help="master seed, 0..2**64 - 1")
        p.add_argument("--output", default=None, help="write the JSON report here (default stdout)")
    for p in (p_inv, p_orc, p_met):
        p.add_argument("--csv", default=None, help="write per-trial records as CSV here")

    return parser


def _emit(report: dict, args) -> None:
    """Write the report as one line of sorted-key JSON from json's C encoder.

    The CSV, on the commands that offer --csv, is written before the report
    and deleted again if the report cannot be written, so a path that cannot
    be opened (exit 2) leaves neither behind; a write that fails partway can
    leave a truncated one. A NaN or an infinity in the report raises
    ValueError before either is written.
    """
    # _report builds a fresh tree, which cannot hold a cycle
    text = json.dumps(report, sort_keys=True, allow_nan=False, check_circular=False) + "\n"
    csv_path = getattr(args, "csv", None)
    if csv_path:
        rows = report["trials"]
        fields = sorted({k for row in rows for k in row})
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    try:
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError:
        if csv_path:
            Path(csv_path).unlink()
        raise


def _report(args) -> tuple[dict, bool]:
    """Run the chosen command and assemble its report, with the pass verdict.

    The config echoes every flag but the output paths; for a command that
    loads a state, the source echo stands in for the state flags. This is
    the one place a verdict is formed: each check passes when its deviation
    is within the tolerance its command states. It is also the one place
    the seed is checked: splitmix64 reads it modulo 2**64, so a seed outside
    0..2**64 - 1 would repeat another seed's report under its own echo.
    """
    started = time.perf_counter()
    if not 0 <= args.seed <= MASK64:
        raise ValueError(f"--seed must lie in 0..2**64 - 1, got {args.seed}")
    source, trials, pairs, extra = args.func(args)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "output", "csv")}
    if source is not None:
        for flag in STATE_FLAGS:
            del config[flag]
        config.update(source)
    checks = {}
    for name, (deviation, tolerance) in pairs.items():
        checks[name] = {
            "deviation": float(deviation),
            "tolerance": float(tolerance),
            "pass": bool(deviation <= tolerance),
        }
    ok = all(c["pass"] for c in checks.values())
    report = {
        "command": args.command,
        "config": dict(config, seed_split=SEED_SPLIT_NAME),
        "trials": trials,
        "checks": checks,
        "aggregate": {
            "max_deviation": max((c["deviation"] for c in checks.values()), default=0.0),
            "checks_passed": sum(1 for c in checks.values() if c["pass"]),
            "checks_total": len(checks),
        },
        "pass": ok,
        "wall_time_s": time.perf_counter() - started,
        **extra,
    }
    return report, ok


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, ok = _report(args)
        _emit(report, args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
