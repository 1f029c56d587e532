"""The four benchmark workloads: argv generation, inputs, and reference checks.

Every workload is derived from the benchmark seed alone; the program under
test receives only argv and input files. References are computed here in
plain numpy, independently of qlorentz, and are never inside a timed region.

Error model for the checks: each reference quantity is a sum of O(d**2)
products of matrix entries, so its rounding error is a small multiple of
d * eps * Tr(rho)**2 (about 3e-14 * Tr**2 at d = 128). REF_RTOL * Tr(rho)**2
leaves a wide margin over that while staying far below the values checked
(I_L of a random n = 7 mixed state is about 1e-2 * Tr**2).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from pathlib import Path
from typing import Callable, Optional

import numpy as np

REF_RTOL = 1e-9
MASK64 = (1 << 64) - 1
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
PAULI_Y = np.array([[0, -1j], [1j, 0]])

# sub-seed streams of the CLI's documented seed contract
STREAM_STATE, STREAM_SCALE, STREAM_OBSERVABLE = 0, 2, 3


def split_seed(master: int, stream: int) -> int:
    """splitmix64 output ``stream`` of ``master``: the CLI's sub-seed rule."""
    x = (master + (stream + 1) * 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & MASK64)


def draw_state(n: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Unit-trace Gaussian-ket projector ('pure') or Wishart matrix ('mixed')."""
    d = 2**n
    if kind == "pure":
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@lru_cache(maxsize=None)
def y_n(n: int) -> np.ndarray:
    return reduce(np.kron, [PAULI_Y] * n)


def trace_formula(rho: np.ndarray, n: int) -> float:
    """I_L = Tr(rho * Y^(x)n conj(rho) Y^(x)n)."""
    y = y_n(n)
    return float(np.trace(rho @ (y @ rho.conj() @ y)).real)


def linear_entropy(rho: np.ndarray) -> float:
    tr = np.trace(rho).real
    return float(tr * tr - np.trace(rho @ rho).real)


def _near(name: str, got, want: float, scale: float) -> Optional[str]:
    if not isinstance(got, (int, float)) or abs(got - want) > REF_RTOL * scale:
        return f"{name}: got {got!r}, reference {want!r}, tolerance {REF_RTOL * scale:.3e}"
    return None


def _first(*problems: Optional[str]) -> Optional[str]:
    return next((p for p in problems if p), None)


def _cli_seed(workload: str, seed: int, key) -> tuple[int, random.Random]:
    rng = random.Random(f"{workload}/{seed}/{key}")
    return rng.randrange(1 << 63), rng


# --- oracle-n6 ---------------------------------------------------------------

ORACLE_N, ORACLE_TRIALS = 6, 20


def oracle_argv(seed: int, key, inputs) -> list[str]:
    cli_seed, _ = _cli_seed("oracle-n6", seed, key)
    return ["oracle", "--n", str(ORACLE_N), "--trials", str(ORACLE_TRIALS), "--seed", str(cli_seed)]


def oracle_check(report: dict, argv: list[str], inputs) -> Optional[str]:
    cli_seed = int(argv[argv.index("--seed") + 1])
    trials = report["trials"]
    if len(trials) != ORACLE_TRIALS:
        return f"expected {ORACLE_TRIALS} trials, got {len(trials)}"
    state_seed = split_seed(cli_seed, STREAM_STATE)
    scale_seed = split_seed(cli_seed, STREAM_SCALE)
    for i, trial in enumerate(trials):
        kind = "pure" if i % 2 == 0 else "mixed"
        scaled = i % 4 >= 2
        if trial["kind"] != kind or trial["scaled"] != scaled:
            return f"trial {i}: kind/scaled {trial['kind']}/{trial['scaled']}, expected {kind}/{scaled}"
        rho = draw_state(ORACLE_N, kind, _rng(split_seed(state_seed, i)))
        if scaled:
            rho = rho * float(_rng(split_seed(scale_seed, i)).uniform(0.2, 5.0))
        ref = trace_formula(rho, ORACLE_N)
        scale = np.trace(rho).real ** 2
        problem = _first(
            _near(f"trial {i} i_l_trace", trial["i_l_trace"], ref, scale),
            _near(f"trial {i} i_l_subset", trial["i_l_subset"], ref, scale),
        )
        if problem:
            return problem
    return None


# --- invariance-n7 -------------------------------------------------------------

INVARIANCE_N, INVARIANCE_TRIALS = 7, 4


def invariance_argv(seed: int, key, inputs) -> list[str]:
    cli_seed, _ = _cli_seed("invariance-n7", seed, key)
    # every third report is pure (rank 1), the rest mixed (full rank)
    kind = "pure" if isinstance(key, int) and key % 3 == 0 else "mixed"
    return [
        "invariants", "--random", kind, "--n", str(INVARIANCE_N),
        "--trials", str(INVARIANCE_TRIALS), "--seed", str(cli_seed),
    ]


def invariance_check(report: dict, argv: list[str], inputs) -> Optional[str]:
    cli_seed = int(argv[argv.index("--seed") + 1])
    kind = argv[argv.index("--random") + 1]
    if len(report["trials"]) != INVARIANCE_TRIALS:
        return f"expected {INVARIANCE_TRIALS} trials, got {len(report['trials'])}"
    rho = draw_state(INVARIANCE_N, kind, _rng(split_seed(cli_seed, STREAM_STATE)))
    ref = trace_formula(rho, INVARIANCE_N)
    scale = np.trace(rho).real ** 2
    inv = report["invariants"]
    return _first(
        _near("trace_w", inv["trace_w"], ref, scale),
        _near("i_l_trace", inv["i_l_trace"], ref, scale),
        _near("i_l_subset", inv["i_l_subset"], ref, scale),
        _near("linear_entropy", inv["linear_entropy"], linear_entropy(rho), scale),
    )


# --- state-io-n6 ---------------------------------------------------------------

STATE_IO_N, STATE_IO_FILES = 6, 8


def state_io_inputs(seed: int, workdir: Path) -> list[tuple[Path, np.ndarray]]:
    """Write STATE_IO_FILES n = 6 state files, alternating pure and mixed."""
    files = []
    for i in range(STATE_IO_FILES):
        rng = np.random.default_rng([seed & MASK64, i])
        rho = draw_state(STATE_IO_N, "pure" if i % 2 == 0 else "mixed", rng)
        rho = 0.5 * (rho + rho.conj().T)
        payload = {
            "n": STATE_IO_N,
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in rho],
        }
        path = workdir / f"state{i}.json"
        path.write_text(json.dumps(payload))
        files.append((path, rho))
    return files


def state_io_argv(seed: int, key, inputs) -> list[str]:
    _, rng = _cli_seed("state-io-n6", seed, key)
    path, _ = inputs[key % len(inputs) if isinstance(key, int) else 0]
    # attached with '=': argparse takes a separate '-2.9e-05' for an option, not a value
    return ["boost", "--input", str(path), f"--rapidity={rng.uniform(-2.0, 2.0)!r}"]


def state_io_check(report: dict, argv: list[str], inputs) -> Optional[str]:
    path = argv[argv.index("--input") + 1]
    rho = next(r for p, r in inputs if str(p) == path)
    rapidity = next(a for a in argv if a.startswith("--rapidity="))
    half = 0.5 * float(rapidity.partition("=")[2])
    m = reduce(np.kron, [np.diag([np.exp(half), np.exp(-half)])] * STATE_IO_N)
    moved = m @ rho @ m.conj().T
    got = np.asarray(report["state"]["matrix"], dtype=float)
    got = got[..., 0] + 1j * got[..., 1]
    if got.shape != moved.shape:
        return f"state shape {got.shape}, expected {moved.shape}"
    entry_dev = float(np.abs(got - moved).max())
    if entry_dev > REF_RTOL * float(np.abs(moved).max()):
        return f"boosted state deviates from M rho M^dagger by {entry_dev:.3e}"
    before, after = np.trace(rho).real, np.trace(moved).real
    return _first(
        _near("trace_before", report["trace_before"], before, before),
        _near("trace_after", report["trace_after"], after, after),
        _near("linear_entropy_before", report["linear_entropy_before"], linear_entropy(rho), before**2),
        _near("linear_entropy_after", report["linear_entropy_after"], linear_entropy(moved), after**2),
    )


# --- correlator ----------------------------------------------------------------

CORRELATOR_TRIALS, CORRELATOR_SYM_TRIALS = 100, 10


def correlator_argv(seed: int, key, inputs) -> list[str]:
    cli_seed, _ = _cli_seed("correlator", seed, key)
    return [
        "metric", "--trials", str(CORRELATOR_TRIALS),
        "--sym-trials", str(CORRELATOR_SYM_TRIALS), "--seed", str(cli_seed),
    ]


def correlator_check(report: dict, argv: list[str], inputs) -> Optional[str]:
    table = np.asarray(report["pauli_table"], dtype=float)
    if table.shape != (4, 4) or np.abs(table - ETA).max() > 1e-12:
        return f"Pauli table is not diag(1,-1,-1,-1): {report['pauli_table']}"
    trials = report["trials"]
    if len(trials) != CORRELATOR_TRIALS:
        return f"expected {CORRELATOR_TRIALS} trials, got {len(trials)}"
    cli_seed = int(argv[argv.index("--seed") + 1])
    obs = _rng(split_seed(cli_seed, STREAM_OBSERVABLE))
    for i, trial in enumerate(trials):
        u, v = obs.standard_normal(4), obs.standard_normal(4)
        # the singlet correlator of t*I + x*X + y*Y + z*Z pairs is the Minkowski product
        problem = _near(f"trial {i} correlation", trial["correlation"], float(u @ ETA @ v),
                        1.0 + float(np.linalg.norm(u) * np.linalg.norm(v)))
        if problem:
            return problem
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # the unit of work counted by items_per_s
    items_per_report: int
    # traced runs execute a fixed report count, seconds * this rate, so that
    # their counts repeat exactly for a seed; sized so that the untraced and
    # traced passes together take about --seconds on a 2-vCPU machine
    traced_reports_per_s: float
    argv: Callable[[int, object, object], list[str]]
    check: Callable[[dict, list[str], object], Optional[str]]
    inputs: Optional[Callable[[int, Path], object]] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-n6", "random states", ORACLE_TRIALS, 4.0, oracle_argv, oracle_check),
        Workload("invariance-n7", "local actions", INVARIANCE_TRIALS, 4.0, invariance_argv,
                 invariance_check),
        Workload("state-io-n6", "states boosted", 1, 10.0, state_io_argv, state_io_check,
                 inputs=state_io_inputs),
        Workload("correlator", "observable pairs", CORRELATOR_TRIALS, 6.0, correlator_argv,
                 correlator_check),
    )
}
