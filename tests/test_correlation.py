"""Singlet correlator, polarized determinant, Haar twirl, symmetry checks."""

import numpy as np
import pytest

from qlorentz import ContractError, apply_local, boost_z, pauli_correlation_table, spin_hom
from qlorentz.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from qlorentz.lorentz import ETA, SL2C, LorentzMatrix4, herm_from_vector, rotation_z, sample_sl2c
from qlorentz.states import singlet
from qlorentz.correlation import (
    SINGLET_KET,
    SWAP,
    correlator_symmetry_check,
    haar_twirl_mc,
    haar_unitaries,
    polarized_determinant,
    singlet_correlation,
    twirl_coefficients,
)
from qlorentz.seeding import rng_from_seed, split_seed


def random_pair(rng):
    o1 = herm_from_vector(rng.standard_normal(4))
    o2 = herm_from_vector(rng.standard_normal(4))
    return o1, o2


def test_singlet_correlation_frozen_values():
    assert abs(singlet_correlation(PAULI_I, PAULI_I) - 1.0) < 1e-12
    assert abs(singlet_correlation(PAULI_Z, PAULI_Z) + 1.0) < 1e-12
    assert abs(singlet_correlation(PAULI_X, PAULI_Z)) < 1e-12


def test_singlet_correlation_trace_identity():
    rng = np.random.default_rng(81)
    for trial in range(50):
        o1, o2 = random_pair(rng)
        expected = 0.5 * (
            np.trace(o1) * np.trace(o2) - np.trace(o1 @ o2)
        ).real
        assert abs(singlet_correlation(o1, o2) - expected) < 1e-10
    # one call on a (50, 2, 2) stack of pairs, checked element by element
    a, b = herm_from_vector(rng.standard_normal((2, 50, 4)))
    expected = 0.5 * (
        np.trace(a, axis1=1, axis2=2) * np.trace(b, axis1=1, axis2=2)
        - np.trace(a @ b, axis1=1, axis2=2)
    ).real
    got = singlet_correlation(a, b)
    assert got.shape == (50,)
    assert np.abs(got - expected).max() < 1e-10


def test_singlet_correlation_rejects_non_hermitian():
    with pytest.raises(ContractError):
        singlet_correlation(np.array([[0.0, 1.0], [0.0, 0.0]]), PAULI_I)
    # only element 3 of the stack is off: every element must be checked
    stack = herm_from_vector(np.random.default_rng(80).standard_normal((6, 4)))
    stack[3, 0, 1] += 1e-3
    with pytest.raises(ContractError):
        singlet_correlation(stack, PAULI_Z)


def test_polarized_determinant_frozen_values():
    assert abs(polarized_determinant(PAULI_I, PAULI_I) - 1.0) < 1e-12
    assert abs(polarized_determinant(PAULI_X, PAULI_Y)) < 1e-12


def test_polarized_determinant_diagonal_is_minkowski_quadratic_form():
    rng = np.random.default_rng(82)
    for trial in range(50):
        v = rng.standard_normal(4)
        o = herm_from_vector(v)
        diag = polarized_determinant(o, o)
        assert abs(diag - np.linalg.det(o).real) < 1e-10
        assert abs(diag - v @ ETA @ v) < 1e-10
    # one call on a (50, 2, 2) stack, checked element by element
    o = herm_from_vector(rng.standard_normal((50, 4)))
    diag = polarized_determinant(o, o)
    assert diag.shape == (50,)
    assert np.abs(diag - np.linalg.det(o).real).max() < 1e-10


def test_correlator_equals_polarized_determinant():
    rng = np.random.default_rng(83)
    for trial in range(100):
        o1, o2 = random_pair(rng)
        assert abs(singlet_correlation(o1, o2) - polarized_determinant(o1, o2)) < 1e-10


def test_correlator_bilinearity_and_symmetry():
    rng = np.random.default_rng(84)
    o1, o1b = random_pair(rng)
    o2, _ = random_pair(rng)
    a, b = 1.7, -0.4
    lhs = singlet_correlation(a * o1 + b * o1b, o2)
    rhs = a * singlet_correlation(o1, o2) + b * singlet_correlation(o1b, o2)
    assert abs(lhs - rhs) < 1e-10
    assert abs(singlet_correlation(o1, o2) - singlet_correlation(o2, o1)) < 1e-12


def test_pauli_correlation_table_is_minkowski_metric():
    table = pauli_correlation_table()
    assert np.abs(table - ETA).max() < 1e-12


def test_swap_operator_unit_checks():
    assert abs((SINGLET_KET.conj() @ SWAP @ SINGLET_KET).real + 1.0) < 1e-12
    np.testing.assert_allclose(SWAP @ SWAP, np.eye(4), atol=0)
    psi = SINGLET_KET
    assert abs(psi.conj() @ psi - 1.0) < 1e-14


def test_haar_unitaries_are_unitary_and_deterministic():
    u = haar_unitaries(rng_from_seed(85), 100)
    prods = np.einsum("nij,nkj->nik", u, u.conj())
    assert np.abs(prods - np.eye(2)).max() < 1e-12
    v = haar_unitaries(rng_from_seed(85), 100)
    np.testing.assert_allclose(u, v, atol=0)


def test_haar_sampling_mean_is_zero():
    # entries of a Haar-distributed unitary average to zero
    u = haar_unitaries(rng_from_seed(86), 100_000)
    mean = u.mean(axis=0)
    # each entry has |u_ij|^2 averaging 1/2, so sigma of the mean ~ 1/sqrt(2N)
    sigma = 1.0 / np.sqrt(2.0 * u.shape[0])
    assert np.abs(mean).max() < 5.0 * sigma


def test_twirl_coefficients_closed_forms():
    assert twirl_coefficients(PAULI_I, PAULI_I) == (1.0, 0.0)
    chi, zeta = twirl_coefficients(PAULI_Z, PAULI_Z)
    assert abs(chi + 1.0 / 3.0) < 1e-14
    assert abs(zeta + 2.0 / 3.0) < 1e-14
    assert twirl_coefficients(PAULI_X, PAULI_Y) == (0.0, 0.0)
    # one pair only: a stack of observables is refused, not broadcast
    with pytest.raises(ValueError):
        twirl_coefficients(np.stack([PAULI_Z, PAULI_Z, PAULI_Z]), PAULI_Z)


def test_twirl_requires_minimum_samples():
    with pytest.raises(ValueError):
        haar_twirl_mc(PAULI_Z, PAULI_Z, 500, 1)
    with pytest.raises(ValueError):
        haar_twirl_mc(np.stack([PAULI_Z, PAULI_Z, PAULI_Z]), PAULI_Z, 1000, 1)


def test_twirl_identity_pair_is_exact():
    est = haar_twirl_mc(PAULI_I, PAULI_I, 1000, 2)
    assert est.passed
    np.testing.assert_allclose(est.mean, np.eye(4), atol=1e-12)
    assert est.chi == 1.0 and est.zeta == 0.0


def test_twirl_zz_pair_converges():
    est = haar_twirl_mc(PAULI_Z, PAULI_Z, 30_000, 3)
    assert est.passed
    target = est.chi * np.eye(4) - est.zeta * SWAP
    assert np.abs(est.mean - target).max() <= 5.0 * est.std_error + 1e-12


def test_twirl_mean_lies_in_the_commutant():
    est = haar_twirl_mc(PAULI_X, PAULI_Z, 30_000, 4)
    v = haar_unitaries(rng_from_seed(87), 1)[0]
    vv = np.kron(v, v)
    comm = vv @ est.mean - est.mean @ vv
    assert np.abs(comm).max() < 10.0 * est.std_error + 1e-10


def test_twirl_deterministic_per_seed():
    a = haar_twirl_mc(PAULI_Z, PAULI_X, 2000, 11)
    b = haar_twirl_mc(PAULI_Z, PAULI_X, 2000, 11)
    np.testing.assert_allclose(a.mean, b.mean, atol=0)
    assert a.max_abs_deviation == b.max_abs_deviation


def test_symmetry_check_identity_map():
    assert correlator_symmetry_check(np.eye(4), 20, 88) < 1e-14


def test_symmetry_check_boost_rotation_parity():
    assert correlator_symmetry_check(spin_hom(boost_z(1.5)), 50, 89) < 1e-8
    assert correlator_symmetry_check(spin_hom(rotation_z(0.9)), 50, 90) < 1e-8
    assert correlator_symmetry_check("parity", 50, 91) < 1e-8


def test_symmetry_check_sl2c_conjugation():
    lam = sample_sl2c(rng_from_seed(92), 2.0)
    assert correlator_symmetry_check(lam, 50, 93) < 1e-8


def test_symmetry_check_rejects_bad_maps():
    with pytest.raises(ContractError):
        correlator_symmetry_check(np.diag([1.0, 1.0, 1.0, 2.0]), 5, 94)
    with pytest.raises(ValueError):
        correlator_symmetry_check("mirror", 5, 95)


def test_symmetry_check_applies_the_map():
    # negative control: a map that does not preserve the form, admitted without
    # validation, must move the correlator; a check that skips the map reads 0
    stretch = object.__new__(LorentzMatrix4)
    object.__setattr__(stretch, "entries", np.diag([1.0, 1.0, 1.0, 2.0]))
    assert correlator_symmetry_check(stretch, 20, 97) > 1e-2


def test_singlet_invariant_under_unit_determinant_family():
    # |det| = 1 with arbitrary phase: the projector is exactly preserved
    rng = rng_from_seed(96)
    for trial in range(20):
        lam = sample_sl2c(rng, 2.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        m = phase * lam.m
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-10
        rho = np.kron(m, m) @ singlet().rho @ np.kron(m, m).conj().T
        assert np.abs(rho - singlet().rho).max() < 1e-9


def test_singlet_symmetry_via_apply_local():
    lam = sample_sl2c(rng_from_seed(97), 2.0)
    moved = apply_local(singlet(), [lam, lam])
    assert np.abs(moved.rho - singlet().rho).max() < 1e-9
    assert isinstance(lam, SL2C)
