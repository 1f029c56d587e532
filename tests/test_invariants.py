"""Linear entropy, spectral invariants, concurrence, and the two I_L routes."""

import dataclasses
import json

import numpy as np
import pytest

from qlorentz import apply_local, concurrence, invariant_report, preset, random_sl2c
from qlorentz.linalg import kron
from qlorentz.states import (
    QubitState,
    ghz,
    maximally_mixed,
    product_of_singlets,
    random_state,
    reduce,
    singlet,
    spin_flip,
    w_spectrum,
    wstate,
)
import qlorentz.invariants
import qlorentz.linalg
import qlorentz.states
from qlorentz.invariants import (
    _subset_purities,
    linear_entropy,
    linear_mutual_info_subsets,
    linear_mutual_info_trace,
    spectral_invariants,
)
from qlorentz.linalg import MAX_QUBITS
from qlorentz.lorentz import sample_sl2c_stack
from qlorentz.seeding import rng_from_seed, split_seed
from reference import (
    char_poly_coeffs,
    depolarize,
    linear_entropy_einsum,
    trace_route_einsum,
    w_matrix,
)


def rel_dev(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_linear_entropy_frozen_cases():
    assert linear_entropy(random_state(3, "pure", 61)) < 1e-10
    assert abs(linear_entropy(maximally_mixed(1)) - 0.5) < 1e-14


def test_linear_entropy_closed_forms_single_qubit():
    for trial in range(20):
        s = random_state(1, "mixed", split_seed(62, trial))
        # S_L = Tr(rho rho*) = 2 det(rho) when Tr(rho) = 1
        via_flip = np.trace(s.rho @ spin_flip(s).rho).real
        assert abs(linear_entropy(s) - via_flip) < 1e-10
        assert abs(linear_entropy(s) - 2.0 * np.linalg.det(s.rho).real) < 1e-10


def test_linear_entropy_scaling():
    s = random_state(2, "mixed", 63)
    # S_L(c*rho) = c^2 S_L(rho): both terms are quadratic in rho
    assert abs(linear_entropy(s.scaled(3.0)) - 9.0 * linear_entropy(s)) < 1e-10


def test_spectral_invariants_frozen_cases():
    np.testing.assert_allclose(
        spectral_invariants(singlet()), [1.0, 0.0, 0.0, 0.0], atol=1e-9
    )
    from math import comb

    expected = [comb(4, k) / 16.0**k for k in range(1, 5)]
    np.testing.assert_allclose(
        spectral_invariants(maximally_mixed(2)), expected, atol=1e-12
    )


def test_spectral_invariants_match_char_poly_route():
    # e_k = (-1)^k * c_{d-k} for the characteristic polynomial of W
    for trial in range(10):
        s = random_state(2, "mixed", split_seed(64, trial))
        elem = spectral_invariants(s)
        coeffs = char_poly_coeffs(w_matrix(s))
        d = len(elem)
        assert np.abs(np.imag(coeffs)).max() < 1e-9
        for k in range(1, d + 1):
            expected = (-1.0) ** k * coeffs[d - k].real
            assert abs(elem[k - 1] - expected) < 1e-8


def newton_elementary(lam):
    """e_1..e_d from the power sums by Newton's identities, which cancel catastrophically."""
    powers = [np.sum(lam**k) for k in range(1, lam.size + 1)]
    elem = [1.0]
    for k in range(1, lam.size + 1):
        elem.append(sum((-1.0) ** (i - 1) * elem[k - i] * powers[i - 1] for i in range(1, k + 1)) / k)
    return np.array(elem[1:])


def test_spectral_invariants_match_eigvals_route():
    # Independent of w_spectrum: eigenvalues of the non-Hermitian W itself.
    # Error model: e_k is a sum of products of k non-negative l_i, so its
    # relative error is at most the sum of the relative errors of the l_i
    # (the expansion cancels nothing). An eigensolver gets each l_i to about
    # eps * l_1 absolute, so the budget is eps * sum(l_1 / l_i), taken with a
    # factor 16 of margin: 1e-10 to 2e-8 on these states.
    eps = np.finfo(float).eps
    for n in (4, 5, 6):
        for trial in range(3):
            s = random_state(n, "mixed", split_seed(72, 10 * n + trial))
            lam = np.clip(np.linalg.eigvals(w_matrix(s)).real, 0.0, None)
            assert lam.min() > 0.0, (n, trial)
            rtol = 16 * eps * np.sum(lam.max() / lam)
            reference = np.poly(-lam)[1:]
            rel = np.abs(spectral_invariants(s) - reference) / reference
            assert rel.max() <= rtol, (n, trial)
            # negative control: Newton's identities on the same spectrum miss it
            newton = np.abs(newton_elementary(lam) - reference) / reference
            assert newton.max() > rtol, (n, trial)


@pytest.mark.parametrize("n", range(1, 9))
def test_spectral_invariants_reproduce_np_poly(n):
    # The in-place update is np.poly's two-term convolution, run over the r
    # nonzero l only. Both are the recursion e_k += l e_(k-1), whose every term
    # takes at most k multiplications and r additions with nothing cancelling,
    # so each lies within (k + r) eps e_k of the exact value, plus a subnormal
    # per rounding once e_k underflows: a numpy whose convolve fuses the
    # multiply-add may differ that far. Scaled by 1e-100, the e_k underflow.
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for kind in ("pure", "mixed"):
        for scale in (1.0, 1e-100):
            s = random_state(n, kind, split_seed(331, n)).scaled(scale)
            lam = w_spectrum(s)
            reference = np.poly(-lam)[1:]
            roundings = np.arange(1, lam.size + 1) + np.count_nonzero(lam)
            bound = 2 * roundings * (eps * reference + tiny)
            assert (np.abs(spectral_invariants(s) - reference) <= bound).all(), (kind, scale)
            if kind == "mixed" and scale < 1.0:
                assert (reference == 0.0).any() and reference[0] > 0.0


def test_spectral_invariants_under_local_actions():
    for trial in range(10):
        n = 1 + trial % 3
        s = random_state(n, "mixed", split_seed(65, trial))
        factors = [random_sl2c(split_seed(66, 10 * trial + j), 2.0) for j in range(n)]
        before = spectral_invariants(s)
        after = spectral_invariants(apply_local(s, factors))
        for a, b in zip(before, after):
            assert rel_dev(a, b) < 1e-7


def test_concurrence_frozen_cases():
    assert abs(concurrence(singlet()) - 1.0) < 1e-9
    assert concurrence(maximally_mixed(2)) == 0.0
    a = random_state(1, "pure", 67)
    b = random_state(1, "pure", 68)
    prod = QubitState(2, kron(a.rho, b.rho))
    assert concurrence(prod) < 1e-7


def test_concurrence_partially_entangled_ket():
    t = 0.3
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(t), np.sin(t)
    s = QubitState(2, np.outer(psi, psi.conj()))
    assert abs(concurrence(s) - np.sin(2.0 * t)) < 1e-10


def test_concurrence_requires_two_qubits():
    with pytest.raises(ValueError):
        concurrence(maximally_mixed(1))
    with pytest.raises(ValueError):
        concurrence(ghz(3))


def test_subset_sum_frozen_cases():
    assert abs(linear_mutual_info_subsets(singlet()) - 1.0) < 1e-12
    assert abs(linear_mutual_info_subsets(ghz(3))) < 1e-12
    s = random_state(1, "mixed", 69)
    assert linear_mutual_info_subsets(s) == linear_entropy(s)


def test_subset_sum_at_the_qubit_cap():
    # no state past MAX_QUBITS can be built, so the route's cap is the state's;
    # at the cap itself it still agrees with the exact value and the trace route
    assert abs(linear_mutual_info_subsets(ghz(MAX_QUBITS)) - 1.0) < 1e-12
    s = random_state(MAX_QUBITS, "pure", split_seed(324, 0))
    assert abs(linear_mutual_info_subsets(s) - linear_mutual_info_trace(s)) < 1e-12


def subset_sum_reference(s, flipped_mask=0):
    """Each subset reduced from the full rho; the subset at flipped_mask gets the wrong sign."""
    total = 0.0
    for mask in range(1, 2**s.n):
        subset = [q + 1 for q in range(s.n) if mask >> q & 1]
        sign = 1.0 if len(subset) % 2 == 1 else -1.0
        if mask == flipped_mask:
            sign = -sign
        total += sign * linear_entropy(reduce(s, subset))
    return total


def test_subset_route_matches_per_subset_reference():
    for n in range(2, 9):
        for kind in ("pure", "mixed"):
            base = random_state(n, kind, split_seed(310, n))
            for c in (0.2, 5.0):
                s = base.scaled(c)
                tol = 1e-12 * s.trace() ** 2
                route = linear_mutual_info_subsets(s)
                assert abs(route - subset_sum_reference(s)) <= tol, (n, kind, c)
                # negative control: one sign wrong (qubit 1 alone) must show
                assert abs(route - subset_sum_reference(s, flipped_mask=1)) > tol, (n, kind, c)


def purity_deviation(s, masks=None):
    """Largest |Tr(rho_S^2) - purity tensor entry| over the masks, in units of Tr(rho)^2."""
    purity = _subset_purities(s.rho, s.n)
    if masks is None:
        masks = list(np.ndindex(purity.shape))
    worst = 0.0
    for bits in masks:
        subset = [q + 1 for q, b in enumerate(bits) if b]
        # the empty set's reduced "state" is the number Tr(rho)
        r = reduce(s, subset).rho if subset else np.trace(s.rho).reshape(1, 1)
        reference = np.einsum("ij,ji->", r, r).real
        worst = max(worst, abs(purity[bits] - reference))
    return worst / s.trace() ** 2


def purity_cases():
    for n in range(1, 9):
        for kind in ("pure", "mixed"):
            base = random_state(n, kind, split_seed(320, n))
            for c in (0.2, 5.0):
                yield base.scaled(c)


def test_subset_purities_match_reduced_states():
    for s in purity_cases():
        assert purity_deviation(s) <= 1e-13, (s.n, s.trace())
    # at the qubit cap, a few masks: empty, full, one qubit, one qubit missing, alternating
    n = MAX_QUBITS
    masks = [(0,) * n, (1,) * n, (1,) + (0,) * (n - 1), (0,) + (1,) * (n - 1), (0, 1) * (n // 2)]
    for kind in ("pure", "mixed"):
        s = random_state(n, kind, split_seed(321, n)).scaled(5.0)
        assert purity_deviation(s, masks) <= 1e-13, kind


def test_subset_purities_negative_control(monkeypatch):
    # weight 1 in place of 1/2 inside S counts each Pauli string 2^|S| times too often
    monkeypatch.setattr(
        qlorentz.invariants, "_SUBSET_WEIGHT", np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    )
    for s in purity_cases():
        assert purity_deviation(s) > 1e-13, (s.n, s.trace())


def test_subset_purities_real_map_negative_control(monkeypatch):
    # the iY row read as a second X row drops every Y coefficient's own value
    wrong = qlorentz.invariants._PAULI_MAP.copy()
    wrong[2] = wrong[1]
    monkeypatch.setattr(qlorentz.invariants, "_PAULI_MAP", wrong)
    for s in purity_cases():
        assert purity_deviation(s) > 1e-13, (s.n, s.trace())


def test_subset_route_expands_the_hermitian_part(monkeypatch):
    # the route expands Re rho + Im rho of rho as stored, with no symmetrized copy;
    # every state is stored exactly Hermitian, so it matches the constructor's
    # copy, which stores require_hermitian's (rho + rho^dag)/2, bit for bit
    def deviations():
        for n in range(1, 7):
            for kind in ("pure", "mixed"):
                s = random_state(n, kind, split_seed(323, n)).scaled(5.0)
                yield linear_mutual_info_subsets(s) - linear_mutual_info_subsets(QubitState(n, s.rho))

    assert not any(deviations())
    # negative control: the raw np.outer projector, Hermitian only to 1 ulp, moves I_L
    monkeypatch.setattr(qlorentz.states, "_projector", lambda psi: np.outer(psi, psi.conj()))
    assert any(deviations())


def test_subset_route_shares_no_kernel_with_the_trace_route(monkeypatch):
    states = [random_state(n, kind, split_seed(322, n)) for n in (1, 2, 5) for kind in ("pure", "mixed")]
    expected = [linear_mutual_info_subsets(s) for s in states]

    def forbidden(*args, **kwargs):
        raise AssertionError("the subset route reached a forbidden kernel")

    for module, name in [
        (qlorentz.invariants, "spin_flip"),
        (qlorentz.states, "spin_flip"),
        (qlorentz.states, "_parity_signs"),
        (qlorentz.states, "_flip_signs"),
        (qlorentz.states, "partial_trace"),
        (qlorentz.linalg, "partial_trace"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    assert [linear_mutual_info_subsets(s) for s in states] == expected
    # the guard bites: the trace route goes through the patched spin flip
    with pytest.raises(AssertionError):
        linear_mutual_info_trace(states[0])


def test_trace_route_frozen_cases():
    assert abs(linear_mutual_info_trace(ghz(4)) - 1.0) < 1e-9
    assert abs(linear_mutual_info_trace(wstate(4))) < 1e-9
    assert abs(linear_mutual_info_trace(product_of_singlets(2)) - 1.0) < 1e-8


def dot_route_cases():
    """Random pure and mixed states at n = 1..8, scaled and moved, and the presets."""
    for n in range(1, 9):
        for kind in ("pure", "mixed"):
            for seed in range(3):
                base = random_state(n, kind, split_seed(330 + seed, n))
                yield base
                yield base.scaled(1e-6)
                yield base.scaled(1e6)
                rng = rng_from_seed(split_seed(340 + seed, n))
                yield apply_local(base, sample_sl2c_stack(rng, n, 2.0))
    for name in ("singlet", "ghz3", "ghz4", "wstate3", "wstate4", "product_of_singlets2",
                 "maximally_mixed1", "maximally_mixed3", "basis0", "basis03"):
        yield preset(name)


def test_dot_forms_match_the_einsum_contractions():
    # linear_entropy and the trace route contract rho as one conjugated dot,
    # Re Tr(A^dagger B); the references contract sum_ij A_ij B_ji. The two
    # agree to rounding
    eps = np.finfo(float).eps
    for s in dot_route_cases():
        tol = 16.0 * eps * s.trace() ** 2
        assert abs(linear_entropy(s) - linear_entropy_einsum(s)) <= tol, (s.n, s.trace())
        assert abs(linear_mutual_info_trace(s) - trace_route_einsum(s)) <= tol, (s.n, s.trace())


def test_trace_formula_oracle_random_states():
    for trial in range(60):
        n = 1 + trial % 6
        kind = "pure" if trial % 2 == 0 else "mixed"
        s = random_state(n, kind, split_seed(70, trial))
        if trial % 4 >= 2:
            s = s.scaled(0.3 + (trial % 7))
        assert rel_dev(linear_mutual_info_subsets(s), linear_mutual_info_trace(s)) < 1e-8


def test_trace_route_nonnegative():
    for trial in range(40):
        s = random_state(1 + trial % 4, "mixed", split_seed(71, trial))
        assert linear_mutual_info_trace(s) >= -1e-9


def test_odd_n_pure_states_vanish():
    for trial in range(30):
        n = (1, 3, 5)[trial % 3]
        s = random_state(n, "pure", split_seed(72, trial))
        assert abs(linear_mutual_info_trace(s)) <= 1e-9


def test_multiplicativity_over_tensor_products():
    rng = np.random.default_rng(73)
    for trial in range(30):
        k = int(rng.integers(2, 4))
        sizes = [int(rng.integers(1, 3)) for _ in range(k)]
        while sum(sizes) > 6:
            sizes.pop()
        factors = [
            random_state(m, "mixed" if rng.integers(2) else "pure", split_seed(74, 10 * trial + j))
            for j, m in enumerate(sizes)
        ]
        rho = factors[0].rho
        for f in factors[1:]:
            rho = kron(rho, f.rho)
        whole = linear_mutual_info_trace(QubitState(sum(sizes), rho))
        parts = float(np.prod([linear_mutual_info_trace(f) for f in factors]))
        assert rel_dev(whole, parts) < 1e-8


def test_pure_two_qubit_concurrence_identities():
    for trial in range(30):
        s = random_state(2, "pure", split_seed(75, trial))
        c = concurrence(s)
        assert abs(c * c - linear_mutual_info_trace(s)) < 1e-8
        marginal_entropy = linear_entropy(reduce(s, [1]))
        assert abs(c - np.sqrt(2.0 * marginal_entropy)) < 1e-8


def test_conjugation_preserves_entropy_depolarizing_does_not():
    for trial in range(50):
        s = random_state(1, "mixed" if trial % 2 else "pure", split_seed(76, trial))
        lam = random_sl2c(split_seed(77, trial), 2.0)
        moved = apply_local(s, [lam])
        assert rel_dev(linear_entropy(s), linear_entropy(moved)) < 1e-9
    pure = random_state(1, "pure", 78)
    delta = abs(linear_entropy(depolarize(pure, 0.5)) - linear_entropy(pure))
    assert delta > 0.1


def test_wstate_vanishing_survives_local_unitaries():
    # the W-type class includes the local-unitary orbit of the canonical state
    rng = np.random.default_rng(79)
    from qlorentz.correlation import haar_unitaries

    for trial in range(5):
        us = haar_unitaries(rng, 4)
        factors = us / np.sqrt(np.linalg.det(us))[:, None, None]
        moved = apply_local(wstate(4), factors)
        assert abs(linear_mutual_info_trace(moved)) < 1e-9


def test_invariant_report_singlet_frozen():
    rep = invariant_report(singlet())
    assert abs(rep.linear_entropy) < 1e-12
    assert abs(rep.trace_w - 1.0) < 1e-9
    assert abs(rep.concurrence - 1.0) < 1e-9
    assert abs(rep.i_l_subset - 1.0) < 1e-9
    assert rep.i_l_trace == rep.trace_w
    payload = rep.to_json_dict()
    assert sorted(payload) == [
        "concurrence",
        "i_l_subset",
        "i_l_trace",
        "linear_entropy",
        "spectral_invariants",
        "trace_w",
    ]


@pytest.mark.parametrize("state", ["singlet", "ghz3", "random-mixed4"])
def test_invariant_report_json_dict_matches_the_field_copy(state):
    # the shallow dict holds the same values, in field order, as a deep dataclass copy
    s = random_state(4, "mixed", 55) if state == "random-mixed4" else preset(state)
    rep = invariant_report(s)
    payload = rep.to_json_dict()
    expected = {**dataclasses.asdict(rep), "spectral_invariants": list(rep.spectral_invariants)}
    assert list(payload) == list(expected)
    assert payload == expected
    assert type(payload["spectral_invariants"]) is list
    assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_invariant_report_maximally_mixed_single_qubit():
    rep = invariant_report(maximally_mixed(1))
    assert abs(rep.linear_entropy - 0.5) < 1e-12
    assert abs(rep.trace_w - 0.5) < 1e-12
    assert abs(rep.i_l_subset - 0.5) < 1e-12
    assert rep.concurrence is None


def test_invariant_report_wstate_vanishes():
    rep = invariant_report(preset("wstate4"))
    assert abs(rep.i_l_trace) < 1e-9
    assert abs(rep.i_l_subset) < 1e-9


def test_invariant_report_internal_consistency():
    for trial in range(10):
        s = random_state(2, "mixed", split_seed(80, trial)).scaled(1.0 + trial / 5.0)
        rep = invariant_report(s)
        assert rep.trace_w == rep.i_l_trace
        assert abs(rep.i_l_subset - rep.i_l_trace) <= 1e-8 * max(1.0, abs(rep.i_l_trace))
        assert rep.i_l_trace >= -1e-9
        assert abs(rep.spectral_invariants[0] - rep.trace_w) < 1e-8
