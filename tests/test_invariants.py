"""Linear entropy, spectral invariants, concurrence, and the two I_L routes."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qlorentz import apply_local, concurrence, invariant_report, preset, random_sl2c
from qlorentz.cli import STREAM_STATE, main
from qlorentz.linalg import kron_all
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
    _pair_order,
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
    rel_dev,
    subset_purities_per_qubit,
    subset_purities_transpose,
    trace_route_einsum,
    trace_route_vdot,
    w_matrix,
)


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
    np.testing.assert_allclose(
        spectral_invariants(maximally_mixed(2)), [1.0 / 16.0] * 4, atol=1e-12
    )
    # its own def, so a wrapper keyed by function identity books it apart from w_spectrum
    assert spectral_invariants is not w_spectrum


def test_spectral_invariants_match_char_poly_route():
    # the coefficients of prod_i (x + l_i), formed from the spectrum, against
    # the Faddeev-LeVerrier route: c_(d-k) = (-1)^k e_k of W's characteristic polynomial
    for trial in range(10):
        s = random_state(2, "mixed", split_seed(64, trial))
        elem = np.poly(-spectral_invariants(s))[1:]
        coeffs = char_poly_coeffs(w_matrix(s))
        d = len(elem)
        assert np.abs(np.imag(coeffs)).max() < 1e-9
        for k in range(1, d + 1):
            expected = (-1.0) ** k * coeffs[d - k].real
            assert abs(elem[k - 1] - expected) < 1e-8


#: Budget of the dense route, in units of eps * l_1: np.linalg.eigvals of the
#: non-normal W = rho * spin_flip(rho), formed by a dense product, against the
#: spectrum. Measured at most 96 on 48 states per n = 1..8 (pure and mixed, at
#: scales 1, 4.7 and 1e-100); the dense route's rounding dominates.
DENSE_EIGVALS_C = 256


def dense_w_spectrum(s):
    """Real parts of the eigenvalues of the dense W-matrix, descending."""
    return np.sort(np.linalg.eigvals(w_matrix(s)).real)[::-1]


def dense_budget(s, lam):
    """DENSE_EIGVALS_C eps l_1; an odd-n pure state has l = 0 exactly, so there Tr(rho)^2 is the scale."""
    scale = lam[0] if lam[0] > 0.0 else np.trace(s.rho).real ** 2
    return DENSE_EIGVALS_C * np.finfo(float).eps * scale


def test_spectral_invariants_match_eigvals_route():
    # The reference is independent of w_spectrum: eigenvalues of the non-Hermitian W itself.
    # Negative control: the spectrum read back off its elementary symmetric
    # polynomials (the roots of np.poly(-l)) misses the same budget by a factor
    # 600 to 1e15 on these states: the e_k do not carry the spectrum in float64
    for n in (4, 5, 6):
        for trial in range(3):
            s = random_state(n, "mixed", split_seed(72, 10 * n + trial))
            lam = spectral_invariants(s)
            reference = dense_w_spectrum(s)
            bound = dense_budget(s, lam)
            assert np.abs(lam - reference).max() <= bound, (n, trial)
            from_e_k = np.sort(-np.roots(np.poly(-lam)).real)[::-1]
            assert np.abs(from_e_k - reference).max() > bound, (n, trial)


@pytest.mark.parametrize("n", range(1, 9))
def test_spectral_invariants_reproduce_np_poly(n):
    # np.poly(W) expands the roots np.linalg.eigvals finds for the dense W: the
    # spectrum must reproduce those roots, not their expansion, whose entries
    # underflowed at scale 1e-100 where the spectrum does not
    for kind in ("pure", "mixed"):
        for scale in (1.0, 1e-100):
            s = random_state(n, kind, split_seed(331, n)).scaled(scale)
            lam = spectral_invariants(s)
            assert np.abs(lam - dense_w_spectrum(s)).max() <= dense_budget(s, lam), (kind, scale)
            if kind == "mixed":
                assert lam[-1] > 0.0


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
    prod = QubitState(2, kron_all([a.rho, b.rho]))
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


#: |subset route - linear_entropy| at n = 1, in units of eps * Tr(rho)^2; 200 states read 1.85
ONE_QUBIT_IDENTITY_C = 4.0


def one_qubit_identity_error() -> float:
    """Worst |linear_mutual_info_subsets - linear_entropy| / (eps Tr(rho)^2) over 200 one-qubit
    states, pure and mixed alternately, scaled by 0.2..5; the two are one quantity at n = 1."""
    worst = 0.0
    for i in range(200):
        s = random_state(1, "pure" if i % 2 == 0 else "mixed", split_seed(69, i))
        s = s.scaled(float(rng_from_seed(split_seed(70, i)).uniform(0.2, 5.0)))
        tr = np.trace(s.rho).real
        err = abs(linear_mutual_info_subsets(s) - linear_entropy(s))
        worst = max(worst, err / (np.finfo(float).eps * tr * tr))
    return worst


def test_subset_sum_is_linear_entropy_at_one_qubit():
    # one nonempty subset, so the route's one Pauli-expansion term is S_L up to rounding
    assert one_qubit_identity_error() <= ONE_QUBIT_IDENTITY_C


def test_subset_sum_at_one_qubit_negative_control(monkeypatch):
    # negative control: the full set's term with its sign flipped reads -S_L, 2 S_L off,
    # which exceeds the bound on every mixed state
    signs = np.array([-1.0, -1.0])
    monkeypatch.setattr(qlorentz.invariants, "_subset_signs", lambda n: signs)
    assert one_qubit_identity_error() > ONE_QUBIT_IDENTITY_C


def test_subset_sum_at_the_qubit_cap():
    # no state past MAX_QUBITS can be built, so the route's cap is the state's;
    # at the cap itself it still agrees with the exact value and the trace route
    assert abs(linear_mutual_info_subsets(ghz(MAX_QUBITS)) - 1.0) < 1e-12
    s = random_state(MAX_QUBITS, "pure", split_seed(324, 0))
    assert abs(linear_mutual_info_subsets(s) - linear_mutual_info_trace(s)) < 1e-12


#: loadable states whose Tr(rho)^2 = 1.69e308 is just under the float64 limit
NEAR_LIMIT_STATES = {
    "maximally_mixed8": lambda: preset("maximally_mixed8").scaled(1.3e154),
    "random-mixed6": lambda: random_state(6, "mixed", 7).scaled(1.3e154),
}


@pytest.mark.parametrize("case", sorted(NEAR_LIMIT_STATES))
def test_subset_sum_is_finite_near_the_float64_limit(case):
    # every term is at most Tr(rho)^2, but their plain sum overflowed, with a
    # RuntimeWarning that the suite's filter raises
    s = NEAR_LIMIT_STATES[case]()
    subset, trace = linear_mutual_info_subsets(s), linear_mutual_info_trace(s)
    assert np.isfinite(subset)
    assert abs(subset - trace) <= 1e-8 * trace


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_sum_scales_exactly_by_powers_of_two(n):
    # I_L has degree 2 in rho, and scaling by 2^j is exact, so the route must
    # give 4^j times its value bit for bit; at j = 511, Tr(rho)^2 = 1.62e308,
    # where the plain sum of the terms overflowed from n = 4 on
    for kind in ("pure", "mixed"):
        s = random_state(n, kind, split_seed(325, n)).scaled(1.9)
        base = linear_mutual_info_subsets(s)
        for j in [*range(-480, 511, 31), 511]:
            assert linear_mutual_info_subsets(s.scaled(2.0**j)) == 4.0**j * base, (kind, j)


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


def patch_map(monkeypatch, name, wrong):
    """Patch a one-qubit map and its two-qubit Kronecker square, the two tables the route reads."""
    monkeypatch.setattr(qlorentz.invariants, name, wrong)
    monkeypatch.setattr(qlorentz.invariants, name + "2", np.kron(wrong, wrong))


def test_subset_purities_negative_control(monkeypatch):
    # weight 1 in place of 1/2 inside S counts each Pauli string 2^|S| times too often
    patch_map(monkeypatch, "_SUBSET_WEIGHT", np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]))
    for s in purity_cases():
        assert purity_deviation(s) > 1e-13, (s.n, s.trace())


def test_subset_purities_real_map_negative_control(monkeypatch):
    # the iY row read as a second X row drops every Y coefficient's own value
    wrong = qlorentz.invariants._PAULI_MAP.copy()
    wrong[2] = wrong[1]
    patch_map(monkeypatch, "_PAULI_MAP", wrong)
    for s in purity_cases():
        assert purity_deviation(s) > 1e-13, (s.n, s.trace())


def test_subset_purities_swapped_pair_weight_negative_control(monkeypatch):
    # the two-qubit weight map with its output qubits swapped labels subset {1} as {2}
    # and {1, 3} as {2, 3}; at n = 3 the one-qubit step is the last, and it is right
    swapped = qlorentz.invariants._SUBSET_WEIGHT2[[0, 2, 1, 3]]
    monkeypatch.setattr(qlorentz.invariants, "_SUBSET_WEIGHT2", swapped)
    assert purity_deviation(random_state(3, "mixed", split_seed(333, 3))) > 1e-13


def kernel_cases(n, salt):
    """Pure and mixed states at n, scaled by 1e-150, 1e150 and 3.7, and moved by apply_local."""
    rng = rng_from_seed(split_seed(salt + 1, n))
    for kind in ("pure", "mixed"):
        base = random_state(n, kind, split_seed(salt, n))
        yield from (base, base.scaled(1e-150), base.scaled(1e150), base.scaled(3.7))
        yield apply_local(base, sample_sl2c_stack(rng, n))


#: The two-qubit steps against the per-qubit 4x4 steps, per subset purity, in units of
#: eps Tr(rho)^2: measured at most 4.64 (a moved pure n = 4 state) over kernel_cases at 40
#: salts for n = 1..8 and 3 for n = 9, 10, and 2.72 on the salt below. Both sum the same
#: exact products in another order.
BLOCKED_STEPS_C = 8


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_blocked_subset_purities_match_the_per_qubit_reference(n):
    eps = np.finfo(float).eps
    for s in kernel_cases(n, 334):
        got, expected = _subset_purities(s.rho, n), subset_purities_per_qubit(s.rho, n)
        if n == 1:  # the same single 4x4 step on the same values
            assert got.tobytes() == expected.tobytes()
        worst = np.abs(got - expected).max() / np.trace(s.rho).real ** 2
        assert worst <= BLOCKED_STEPS_C * eps, (s.n, s.trace())


#: The half-length signed dot against the spin-flipped copy and its full vdot, in units of
#: eps Tr(rho)^2: measured at most 1.0 (a pure n = 2 state) over the same 43 salts, and 0.29
#: on the salt below.
HALF_DOT_C = 4


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_half_dot_trace_route_matches_the_vdot_reference(n):
    eps = np.finfo(float).eps
    for s in kernel_cases(n, 336):
        worst = abs(linear_mutual_info_trace(s) - trace_route_vdot(s)) / np.trace(s.rho).real ** 2
        assert worst <= HALF_DOT_C * eps, (s.n, s.trace())


#: The subset route on c * I / 2^n against the exact c^2 / 2^n, in units of
#: eps sum over nonempty S of |Tr(rho)^2 - Tr(rho_S^2)|, the magnitudes of the terms it sums:
#: measured at most 0.22 at n = 4..10 (0.195 at c = 1.3e154), where eps Tr(rho)^2 read up to 178.
SUBSET_ROUTE_C = 1


@pytest.mark.parametrize("n", range(4, MAX_QUBITS + 1))
def test_subset_route_error_scales_with_its_terms(n):
    # Fractions make the reference and the deviation exact; every Tr(rho_S^2) is Tr(rho)^2 / 2^|S|
    eps = Fraction(np.finfo(float).eps)
    terms = sum(math.comb(n, k) * (1 - Fraction(1, 2**k)) for k in range(1, n + 1))
    for c in (3.7, 0.3, 1e-100, 1.3e154):
        s = preset(f"maximally_mixed{n}").scaled(c)
        tr2 = Fraction(np.trace(s.rho).real) ** 2
        error = abs(Fraction(linear_mutual_info_subsets(s)) - tr2 / 2**n)
        assert error <= SUBSET_ROUTE_C * eps * terms * tr2, c
        if n == MAX_QUBITS:  # pinned: no small multiple of eps Tr(rho)^2 bounds it (78 to 178 here)
            assert error > 64 * eps * tr2, c


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_subset_purities_gather_matches_the_transpose_reference(n):
    # the cached gather only moves data: the purities equal the transpose form's byte for byte,
    # at unit scale, near both ends of the float64 range, and on moved states
    _pair_order.cache_clear()
    rng = rng_from_seed(split_seed(330, n))
    for kind in ("pure", "mixed"):
        base = random_state(n, kind, split_seed(331, n))
        moved = apply_local(base, sample_sl2c_stack(rng, n))
        for s in (base, base.scaled(1e-150), base.scaled(1e150), moved):
            expected = subset_purities_transpose(s.rho, n)
            assert _subset_purities(s.rho, n).tobytes() == expected.tobytes()
    order = _pair_order(n)
    assert order.dtype == np.intp and order.shape == (4**n,) and not order.flags.writeable
    assert _pair_order.cache_info().misses == 1  # built once for n, then reused


def test_subset_purities_qubit_order_negative_control(monkeypatch):
    # an order that puts qubit 2's pair first and qubit 1's second mislabels the subsets
    s = random_state(3, "mixed", split_seed(332, 3))
    swapped = _pair_order(3).reshape(4, 4, 4).transpose(1, 0, 2).ravel()
    monkeypatch.setattr(qlorentz.invariants, "_pair_order", lambda n: swapped)
    assert purity_deviation(s) > 1e-13


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
        (qlorentz.invariants, "_spin_flip_dot"),
        (qlorentz.states, "_spin_flip_dot"),
        (qlorentz.states, "spin_flip"),
        (qlorentz.states, "_parity_signs"),
        (qlorentz.states, "_flip_signs"),
        (qlorentz.states, "partial_trace"),
        (qlorentz.linalg, "partial_trace"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    assert [linear_mutual_info_subsets(s) for s in states] == expected
    # the guard bites: the trace route goes through the patched spin-flip dot
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
    # linear_entropy contracts rho as one conjugated dot, Re Tr(A^dagger B), and the
    # trace route as a half-length signed dot of paired entries; the references
    # contract sum_ij A_ij B_ji. The two agree to rounding
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


def rank_factor_cases(n):
    """One state per _rank_factor branch: rank 1, Cholesky, and eigh on a rank-3 mixture.

    At n = 1 no rank-3 state exists; weights 1 and 1e-13 drop the last Cholesky pivot
    below 1e-12 of the first, which sends the full-rank mixture to eigh as well.
    """
    yield "rank 1", random_state(n, "pure", split_seed(340, n))
    yield "cholesky", random_state(n, "mixed", split_seed(341, n))
    weights = (1.0, 1e-13) if n == 1 else (0.5, 0.3, 0.2)
    kets = [random_state(n, "pure", split_seed(342, 10 * n + k)) for k in range(len(weights))]
    yield "eigh", QubitState(n, sum(w * ket.rho for w, ket in zip(weights, kets)))


@pytest.mark.parametrize("n", range(1, 9))
def test_w_spectrum_b_is_exactly_signed_symmetric(monkeypatch, n):
    # B = Y + s_{d-1} Y^T is (-1)^n times its transpose in every bit, on every factor branch
    seen, eigh_calls = [], []
    svd, eigh = np.linalg.svd, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "svd", lambda b, **kw: seen.append(b) or svd(b, **kw))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(a) or eigh(a))
    sign = qlorentz.states._parity_signs(n)[-1]
    assert sign == (-1) ** n
    for branch, s in rank_factor_cases(n):
        seen.clear()
        eigh_calls.clear()
        w_spectrum(s)
        (b,) = seen
        rank = {"rank 1": 1, "cholesky": 2**n, "eigh": min(3, 2**n)}[branch]
        assert b.shape == (rank, rank) and bool(eigh_calls) == (branch == "eigh"), branch
        assert np.array_equal(b, sign * b.T), branch


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
            rho = kron_all([rho, f.rho])
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


#: trace_w = sum(l) against i_l_trace = Tr(rho * spin_flip(rho)), in units of
#: eps Tr(rho)^2: measured at most 1.39 on 96 states, n = 1..8, pure and mixed,
#: at scales 0.3 to 4.7
TRACE_W_C = 4


def trace_w_budget(s):
    return TRACE_W_C * np.finfo(float).eps * np.trace(s.rho).real ** 2


def invariants_block(tmp_path, argv):
    """The invariants block of an invariants report on argv, and the report's text."""
    out = tmp_path / "report.json"
    assert main(["invariants", *argv, "--output", str(out)]) == 0
    text = out.read_text()
    return json.loads(text)["invariants"], text


def test_invariant_report_singlet_frozen(tmp_path):
    rep = invariant_report(singlet())
    assert abs(rep.linear_entropy) < 1e-12
    assert abs(rep.trace_w - 1.0) < 1e-9
    assert abs(rep.concurrence - 1.0) < 1e-9
    assert abs(rep.i_l_subset - 1.0) < 1e-9
    assert abs(rep.trace_w - rep.i_l_trace) <= trace_w_budget(singlet())
    np.testing.assert_allclose(rep.w_spectrum, [1.0, 0.0, 0.0, 0.0], atol=1e-9)
    block, _ = invariants_block(tmp_path, ["--preset", "singlet"])
    assert sorted(block) == [
        "concurrence",
        "i_l_subset",
        "i_l_trace",
        "linear_entropy",
        "trace_w",
        "w_spectrum",
    ]


@pytest.mark.parametrize("state", ["singlet", "ghz3", "random-mixed4"])
def test_invariant_report_json_dict_matches_the_field_copy(tmp_path, state):
    # the CLI's invariants block is the InvariantSet's fields, w_spectrum as a
    # list, written byte for byte as json writes that dict
    if state == "random-mixed4":
        argv = ["--random", "mixed", "--n", "4"]
        s = random_state(4, "mixed", split_seed(0, STREAM_STATE))
    else:
        argv, s = ["--preset", state], preset(state)
    rep = invariant_report(s)
    expected = {**dataclasses.asdict(rep), "w_spectrum": list(rep.w_spectrum)}
    block, text = invariants_block(tmp_path, argv)
    assert block == expected
    assert type(block["w_spectrum"]) is list
    assert '"invariants": ' + json.dumps(expected, sort_keys=True) in text


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
        assert abs(rep.trace_w - rep.i_l_trace) <= trace_w_budget(s)
        assert abs(rep.i_l_subset - rep.i_l_trace) <= 1e-8 * max(1.0, abs(rep.i_l_trace))
        assert rep.i_l_trace >= -1e-9
        assert rep.trace_w == float(np.sum(rep.w_spectrum))


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_w_is_i_l_within_its_error_model(monkeypatch, n):
    # Negative control: a spectrum taken without the parity signs s_x of Y^(x)n
    # misses the budget by a factor 1e9 or more, except on odd-n pure states, whose
    # spectrum is zero by its imposed symmetry either way
    for kind in ("pure", "mixed"):
        for t in range(6):
            s = random_state(n, kind, split_seed(81, 10 * n + t)).scaled(0.3 + 0.88 * t)
            rep = invariant_report(s)
            assert abs(rep.trace_w - rep.i_l_trace) <= trace_w_budget(s), (kind, t)
            if kind == "mixed" or n % 2 == 0:
                with monkeypatch.context() as m:
                    m.setattr(qlorentz.states, "_parity_signs", lambda n: np.ones(2**n))
                    unsigned = float(w_spectrum(s).sum())
                assert abs(unsigned - rep.i_l_trace) > 1e9 * trace_w_budget(s), (kind, t)
