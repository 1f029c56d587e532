"""Acceptance gate: ten end-to-end criteria at their contractual tolerances.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s; pytest -v
shows the per-criterion verdict either way) and asserts the criterion.
All randomness is seeded, so the suite is exactly reproducible.
"""

import json

import numpy as np

from qlorentz import (
    apply_local,
    boost_z,
    concurrence,
    pauli_correlation_table,
    random_sl2c,
    spin_hom,
)
from qlorentz.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron_all
from qlorentz.lorentz import ETA, herm_from_vector, rotation_z, sample_sl2c
from qlorentz.states import (
    QubitState,
    ghz,
    product_of_singlets,
    random_state,
    singlet,
    w_spectrum,
    wstate,
)
from qlorentz.invariants import (
    linear_entropy,
    linear_mutual_info_subsets,
    linear_mutual_info_trace,
)
from qlorentz.correlation import (
    SWAP,
    TWIRL_ABS_FLOOR,
    correlator_symmetry_check,
    haar_twirl_mc,
    polarized_determinant,
    singlet_correlation,
)
from qlorentz.cli import main
from qlorentz.seeding import rng_from_seed, split_seed
from reference import depolarize, rel_dev

MASTER_SEED = 20240915


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_trace_formula_oracle():
    worst = 0.0
    for n in range(1, 7):
        for i in range(200):
            seed = split_seed(MASTER_SEED, n * 1000 + i)
            kind = "pure" if i % 2 == 0 else "mixed"
            s = random_state(n, kind, seed)
            if i % 4 >= 2:
                c = float(rng_from_seed(split_seed(MASTER_SEED + 1, n * 1000 + i)).uniform(0.2, 5.0))
                s = s.scaled(c)
            worst = max(worst, rel_dev(linear_mutual_info_subsets(s), linear_mutual_info_trace(s)))
    report(
        "criterion 01 trace-formula oracle",
        worst <= 1e-8,
        f"200 states per n in 1..6; worst relative deviation {worst:.3e} (tol 1e-8)",
    )


def test_criterion_02_lorentz_invariance():
    # the W-spectrum entry by entry; the control depolarizes each moved state by
    # 1e-4, which must move its spectrum past the tolerance on every pair
    worst, control = 0.0, np.inf
    for n in range(1, 6):
        for i in range(100):
            s = random_state(n, "pure" if i % 2 == 0 else "mixed",
                             split_seed(MASTER_SEED + 2, n * 1000 + i))
            rng = rng_from_seed(split_seed(MASTER_SEED + 3, n * 1000 + i))
            factors = [sample_sl2c(rng, 2.0) for _ in range(n)]
            moved = apply_local(s, factors)
            dev = rel_dev(linear_mutual_info_trace(s), linear_mutual_info_trace(moved))
            lam = w_spectrum(s)
            for a, b in zip(lam, w_spectrum(moved)):
                dev = max(dev, rel_dev(a, b))
            if n == 2:
                dev = max(dev, rel_dev(concurrence(s), concurrence(moved)))
            worst = max(worst, dev)
            noisy = w_spectrum(depolarize(moved, 1e-4))
            control = min(control, max(rel_dev(a, b) for a, b in zip(lam, noisy)))
    report(
        "criterion 02 invariance under local SL(2,C)",
        worst <= 1e-7 and control > 1e-7,
        f"100 pairs per n in 1..5, rapidity clamp 2.0; worst deviation {worst:.3e} (tol 1e-7); "
        f"depolarizing control moved every spectrum by at least {control:.3e}",
    )


def test_criterion_03_entropy_characterization():
    worst = 0.0
    for i in range(1000):
        s = random_state(1, "pure" if i % 2 == 0 else "mixed", split_seed(MASTER_SEED + 4, i))
        lam = random_sl2c(split_seed(MASTER_SEED + 5, i), 2.0)
        worst = max(worst, rel_dev(linear_entropy(s), linear_entropy(apply_local(s, [lam]))))
    pure = random_state(1, "pure", split_seed(MASTER_SEED + 6, 0))
    control = abs(linear_entropy(depolarize(pure, 0.5)) - linear_entropy(pure))
    ok = worst <= 1e-9 and control > 0.1
    report(
        "criterion 03 entropic characterization",
        ok,
        f"1000 conjugation pairs, worst deviation {worst:.3e} (tol 1e-9); "
        f"depolarizing control moved entropy by {control:.3f} (> 0.1)",
    )


def test_criterion_04_canonical_values():
    s = singlet()
    checks = [
        abs(linear_entropy(s)) <= 1e-12,
        abs(concurrence(s) - 1.0) <= 1e-9,
        abs(linear_mutual_info_trace(s) - 1.0) <= 1e-9,
        abs(linear_mutual_info_trace(wstate(4))) <= 1e-9,
        abs(linear_mutual_info_trace(ghz(4)) - 1.0) <= 1e-9,
        abs(linear_mutual_info_trace(product_of_singlets(2)) - 1.0) <= 1e-8,
    ]
    worst_odd = 0.0
    for n in (1, 3, 5):
        for i in range(50):
            s = random_state(n, "pure", split_seed(MASTER_SEED + 7, n * 100 + i))
            worst_odd = max(worst_odd, abs(linear_mutual_info_trace(s)))
    ok = all(checks) and worst_odd <= 1e-9
    report(
        "criterion 04 canonical values",
        ok,
        "singlet {S_L=0, C=1, I_L=1}, wstate4 I_L=0, ghz4 I_L=1, two singlets I_L=1; "
        f"worst odd-n pure I_L {worst_odd:.3e} (tol 1e-9)",
    )


def test_criterion_05_multiplicativity():
    rng = rng_from_seed(split_seed(MASTER_SEED + 8, 0))
    worst = 0.0
    for i in range(100):
        k = int(rng.integers(1, 4))
        sizes = []
        for _ in range(k):
            m = int(rng.integers(1, 3))
            if sum(sizes) + m > 6:
                break
            sizes.append(m)
        if not sizes:
            sizes = [1]
        factors = [
            random_state(m, "mixed" if rng.integers(2) else "pure",
                         split_seed(MASTER_SEED + 9, 10 * i + j))
            for j, m in enumerate(sizes)
        ]
        rho = factors[0].rho
        for f in factors[1:]:
            rho = kron_all([rho, f.rho])
        whole = linear_mutual_info_trace(QubitState(sum(sizes), rho))
        parts = float(np.prod([linear_mutual_info_trace(f) for f in factors]))
        worst = max(worst, rel_dev(whole, parts))
    report(
        "criterion 05 multiplicativity",
        worst <= 1e-8,
        f"100 random factor tuples (k <= 3, <= 6 qubits); worst deviation {worst:.3e} (tol 1e-8)",
    )


def test_criterion_06_minkowski_metric():
    table_dev = float(np.abs(pauli_correlation_table() - ETA).max())
    rng = rng_from_seed(split_seed(MASTER_SEED + 10, 0))
    pair_dev = 0.0
    for i in range(1000):
        o1 = herm_from_vector(rng.standard_normal(4))
        o2 = herm_from_vector(rng.standard_normal(4))
        pair_dev = max(pair_dev, abs(singlet_correlation(o1, o2) - polarized_determinant(o1, o2)))
    sym_dev = 0.0
    map_rng = rng_from_seed(split_seed(MASTER_SEED + 11, 0))
    for i in range(100):
        boost = spin_hom(boost_z(float(map_rng.uniform(-2.0, 2.0))))[None]
        rot = spin_hom(rotation_z(float(map_rng.uniform(0.0, 2.0 * np.pi))))[None]
        sym_dev = max(sym_dev, correlator_symmetry_check(
            boost, 5, rng_from_seed(split_seed(MASTER_SEED + 12, i))))
        sym_dev = max(sym_dev, correlator_symmetry_check(
            rot, 5, rng_from_seed(split_seed(MASTER_SEED + 13, i))))
    sym_dev = max(sym_dev, correlator_symmetry_check(
        ETA[None], 100, rng_from_seed(split_seed(MASTER_SEED + 14, 0))))
    ok = table_dev <= 1e-12 and pair_dev <= 1e-10 and sym_dev <= 1e-8
    report(
        "criterion 06 Minkowski metric",
        ok,
        f"Pauli table deviation {table_dev:.3e} (tol 1e-12); 1000 correlator/determinant pairs "
        f"{pair_dev:.3e} (tol 1e-10); boost/rotation/parity symmetry {sym_dev:.3e} (tol 1e-8)",
    )


def test_criterion_07_haar_twirl():
    rng = rng_from_seed(split_seed(MASTER_SEED + 15, 0))
    o_rand_1 = herm_from_vector(rng.standard_normal(4))
    o_rand_2 = herm_from_vector(rng.standard_normal(4))
    pairs = {
        "(I,I)": (PAULI_I, PAULI_I),
        "(Z,Z)": (PAULI_Z, PAULI_Z),
        "(X,Y)": (PAULI_X, PAULI_Y),
        "(random,random)": (o_rand_1, o_rand_2),
    }
    expected_coeffs = {"(I,I)": (1.0, 0.0), "(Z,Z)": (-1.0 / 3.0, -2.0 / 3.0), "(X,Y)": (0.0, 0.0)}
    details = []
    ok = True
    for index, (label, (o1, o2)) in enumerate(pairs.items()):
        tw = haar_twirl_mc(o1, o2, 100_000, split_seed(MASTER_SEED + 16, index))
        ok = ok and tw["max_abs_deviation"] <= 5.0 * tw["std_error"] + TWIRL_ABS_FLOOR
        if label in expected_coeffs:
            chi_ref, zeta_ref = expected_coeffs[label]
        else:
            t1, t2 = np.trace(o1).real, np.trace(o2).real
            t12 = np.trace(o1 @ o2).real
            chi_ref = t1 * t2 / 3.0 - t12 / 6.0
            zeta_ref = t1 * t2 / 6.0 - t12 / 3.0
        ok = ok and abs(tw["chi"] - chi_ref) < 1e-15 and abs(tw["zeta"] - zeta_ref) < 1e-15
        details.append(f"{label} dev {tw['max_abs_deviation']:.2e} vs 5se {5*tw['std_error']:.2e}")
    report("criterion 07 Haar twirl", ok, "; ".join(details))


def test_criterion_08_spin_homomorphism():
    hom_dev = 0.0
    frame_ok = True
    for i in range(200):
        a = random_sl2c(split_seed(MASTER_SEED + 17, 2 * i), 2.0)
        b = random_sl2c(split_seed(MASTER_SEED + 17, 2 * i + 1), 2.0)
        img_ab = spin_hom(a @ b)
        img_a, img_b = spin_hom(a), spin_hom(b)
        hom_dev = max(hom_dev, float(np.abs(img_ab - img_a @ img_b).max()))
        for img in (img_a, img_b):
            eta_dev = float(np.abs(img.T @ ETA @ img - ETA).max())
            frame_ok = frame_ok and eta_dev <= 1e-9
            frame_ok = frame_ok and abs(np.linalg.det(img) - 1.0) <= 1e-9
            frame_ok = frame_ok and img[0, 0] >= 1.0 - 1e-9
    boost_dev = 0.0
    for eta in (0.5, 1.0, 2.0):
        ch, sh = np.cosh(eta), np.sinh(eta)
        closed = np.array([[ch, 0, 0, sh], [0, 1, 0, 0], [0, 0, 1, 0], [sh, 0, 0, ch]])
        boost_dev = max(boost_dev, float(np.abs(spin_hom(boost_z(eta)) - closed).max()))
    ok = hom_dev <= 1e-9 and frame_ok and boost_dev <= 1e-10
    report(
        "criterion 08 spin homomorphism",
        ok,
        f"200 pairs, homomorphism deviation {hom_dev:.3e} (tol 1e-9); images restricted "
        f"orthochronous; boost closed form deviation {boost_dev:.3e} (tol 1e-10)",
    )


def test_criterion_09_purity_characterization():
    pure_worst = 0.0
    for i in range(100):
        s = random_state(1 + i % 3, "pure", split_seed(MASTER_SEED + 18, i))
        pure_worst = max(pure_worst, abs(linear_entropy(s)))
    mixed_floor = np.inf
    for i in range(100):
        s = random_state(1, "mixed", split_seed(MASTER_SEED + 19, i))
        mixed_floor = min(mixed_floor, linear_entropy(s))
    ok = pure_worst <= 1e-10 and mixed_floor >= 1e-4
    report(
        "criterion 09 purity characterization",
        ok,
        f"100 pure states: S_L max {pure_worst:.3e} (tol 1e-10); "
        f"100 full-rank mixed single-qubit states: S_L min {mixed_floor:.3e} (>= 1e-4)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    configs = [
        ["oracle", "--n", "3", "--trials", "16", "--seed", "21"],
        ["invariants", "--preset", "ghz3", "--trials", "8", "--seed", "22"],
        ["twirl", "--o1", "Z", "--o2", "X", "--samples", "2000", "--seed", "23"],
        ["metric", "--trials", "30", "--sym-trials", "4", "--seed", "24"],
        ["boost", "--preset", "basis0", "--rapidity", "1.0", "--seed", "25"],
    ]
    ok = True
    for args in configs:
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(args + ["--output", str(out)])
            ok = ok and code == 0
            payload = json.loads(out.read_text())
            payload.pop("wall_time_s")
            texts.append(json.dumps(payload, sort_keys=True))
        ok = ok and texts[0] == texts[1]
    report(
        "criterion 10 CLI determinism",
        ok,
        "five commands run twice with identical configs match byte-for-byte "
        "modulo the wall_time_s field",
    )


def test_swap_unit_check():
    # anchor for the twirl target: the swap expectation on the singlet is -1
    from qlorentz.states import SINGLET_COEFFS

    psi = SINGLET_COEFFS.ravel() / np.sqrt(2.0)
    value = (psi.conj() @ SWAP @ psi).real
    report("swap anchor", abs(value + 1.0) < 1e-12, f"<psi-|F|psi-> = {value:.12f}")
