"""Dense complex kernel: Kronecker products, partial traces, eigensolves."""

import numpy as np
import pytest

from qlorentz import ContractError, PositivityError, SizeError
from qlorentz.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    det,
    kron,
    kron_all,
    mat_sqrt_psd,
    partial_trace,
    require_hermitian,
)
from qlorentz.linalg import as_matrix, hermiticity_defect, max_abs
from reference import char_poly_coeffs


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_kron_of_x_and_y_frozen():
    expected = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [1j, 0, 0, 0],
        ]
    )
    np.testing.assert_allclose(kron(PAULI_X, PAULI_Y), expected, atol=0)


def test_kron_identity_and_associativity():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(kron(np.eye(1), a), a, atol=0)
    np.testing.assert_allclose(
        kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12
    )
    np.testing.assert_allclose(kron_all([a, b, c]), kron(a, kron(b, c)), atol=1e-12)


def test_kron_dimension_guard():
    big = np.eye(128)
    with pytest.raises(SizeError):
        kron(big, np.eye(64))
    with pytest.raises(SizeError):
        kron_all([np.eye(2)] * 13)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    rho = kron(a, b)
    np.testing.assert_allclose(
        partial_trace(rho, 2, [1]), np.trace(b) * a, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(rho, 2, [2]), np.trace(a) * b, atol=1e-12
    )


def test_partial_trace_keep_all_and_trace_consistency():
    rng = np.random.default_rng(6)
    rho = random_hermitian(rng, 8)
    np.testing.assert_allclose(partial_trace(rho, 3, [1, 2, 3]), rho, atol=0)
    for keep in ([1], [2], [3], [1, 3], [2, 3]):
        reduced = partial_trace(rho, 3, keep)
        assert reduced.shape == (2 ** len(keep),) * 2
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12


def test_partial_trace_qubit_one_is_most_significant():
    # rho = |0><0| (x) I/2: tracing qubit 2 must leave |0><0|
    rho = kron(np.diag([1.0, 0.0]).astype(complex), 0.5 * np.eye(2, dtype=complex))
    np.testing.assert_allclose(
        partial_trace(rho, 2, [1]), np.diag([1.0, 0.0]), atol=1e-15
    )


def test_partial_trace_argument_errors():
    rho = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        partial_trace(rho, 3, [1])
    with pytest.raises(ValueError):
        partial_trace(rho, 2, [])
    with pytest.raises(ValueError):
        partial_trace(rho, 2, [0])
    with pytest.raises(ValueError):
        partial_trace(rho, 2, [3])


def test_require_hermitian():
    h = require_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert hermiticity_defect(h) == 0.0
    with pytest.raises(ContractError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_mat_sqrt_psd_squares_back():
    rng = np.random.default_rng(8)
    for trial in range(20):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = g @ g.conj().T
        root = mat_sqrt_psd(m)
        np.testing.assert_allclose(root @ root, m, atol=1e-8 * max(1.0, max_abs(m)))
        assert hermiticity_defect(root) < 1e-10


def test_mat_sqrt_psd_rejects_negative():
    with pytest.raises(PositivityError):
        mat_sqrt_psd(np.diag([1.0, -0.5]).astype(complex))
    with pytest.raises(ContractError):
        mat_sqrt_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_det_closed_form_matches_lu():
    rng = np.random.default_rng(9)
    for trial in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(det(m) - (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])) < 1e-12
    stack = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    np.testing.assert_allclose(det(stack), np.linalg.det(stack), atol=1e-12)
    assert det(np.eye(2)) == 1.0
    with pytest.raises(ValueError):
        det(np.eye(3))


def test_char_poly_frozen_cases():
    # p(x) = x^2 - 2x + 1 for the identity: coefficients ascending, monic implied
    np.testing.assert_allclose(char_poly_coeffs(np.eye(2)), [1.0, -2.0], atol=1e-14)
    # p(x) = x^2 - 1 for Z
    np.testing.assert_allclose(char_poly_coeffs(PAULI_Z), [-1.0, 0.0], atol=1e-14)


def test_char_poly_matches_numpy_roots():
    rng = np.random.default_rng(10)
    for trial in range(20):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        coeffs = char_poly_coeffs(m)
        # numpy returns descending coefficients with leading 1
        expected = np.poly(m)[1:][::-1]
        np.testing.assert_allclose(coeffs, expected, atol=1e-8 * max(1.0, max_abs(m) ** 5))


def test_char_poly_annihilates_eigenvalues():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((4, 4))
    coeffs = char_poly_coeffs(m)
    for lam in np.linalg.eigvals(m):
        value = lam**4 + sum(c * lam**k for k, c in enumerate(coeffs))
        assert abs(value) < 1e-9


def test_pauli_algebra():
    np.testing.assert_allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=0)
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(p @ p, PAULI_I, atol=0)
        assert abs(np.trace(p)) == 0.0
