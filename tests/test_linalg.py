"""Dense complex kernel: Kronecker products, partial traces, eigensolves."""

import numpy as np
import pytest

import qlorentz.linalg
from qlorentz import ContractError, PositivityError, SizeError
from qlorentz.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    kron_all,
    mat_sqrt_psd,
    partial_trace,
    require_hermitian,
)
from qlorentz.linalg import _det2, _hermitize, as_matrix, max_abs
from reference import char_poly_coeffs, det


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
    np.testing.assert_allclose(kron_all([PAULI_X, PAULI_Y]), expected, atol=0)


def test_kron_identity_and_associativity():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(kron_all([np.eye(1), a]), a, atol=0)
    np.testing.assert_allclose(
        kron_all([kron_all([a, b]), c]), kron_all([a, kron_all([b, c])]), atol=1e-12
    )
    np.testing.assert_allclose(kron_all([a, b, c]), kron_all([a, kron_all([b, c])]), atol=1e-12)


def test_kron_dimension_guard(monkeypatch):
    # the guard reads the factor shapes: no product is formed before it refuses
    products = []
    monkeypatch.setattr(qlorentz.linalg, "_kron_fold", lambda mats: products.append(mats))
    big = np.eye(128)
    with pytest.raises(SizeError):
        kron_all([big, np.eye(64)])
    with pytest.raises(SizeError, match="dimension 8192 exceeds maximum 1024"):
        kron_all([np.eye(2)] * 13)
    with pytest.raises(SizeError):
        kron_all([np.eye(4), np.eye(3), np.eye(100)])
    with pytest.raises(ValueError, match="at least one factor"):
        kron_all([])
    with pytest.raises(ValueError, match="square"):
        kron_all([np.eye(2), np.zeros((2, 3))])
    assert products == []


def test_kron_all_agrees_with_numpy_kron():
    # to rounding, not bit for bit: the two differ in the last bit on 1x1 (x) 1x1
    rng = np.random.default_rng(13)
    for trial in range(40):
        dims = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
        expected = mats[0]
        for m in mats[1:]:
            expected = np.kron(expected, m)
        got = kron_all(mats)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    rho = kron_all([a, b])
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
    rho = kron_all([np.diag([1.0, 0.0]).astype(complex), 0.5 * np.eye(2, dtype=complex)])
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


@pytest.mark.filterwarnings("error")
def test_require_hermitian():
    h = require_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert max_abs(h - h.conj().T) == 0.0
    with pytest.raises(ContractError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # each matrix of a stack is held to its own tolerance, which a larger one does not widen
    with pytest.raises(ContractError, match=r"max asymmetry 1\.000e-09 exceeds tol 1\.000e-10"):
        require_hermitian(np.stack([1e8 * np.eye(2), [[0.0, 1e-9], [0.0, 0.0]]]))
    # at the float64 limit: unhalved, m - m^dag and m + m^dag would overflow with a warning
    with pytest.raises(ContractError, match="max asymmetry inf exceeds"):
        require_hermitian(np.array([[1.0, 1e308], [-1e308, 1.0]]))
    big = np.diag([1.7e308, 1.7e308])
    assert np.array_equal(require_hermitian(big), big)
    assert np.array_equal(_hermitize(big.astype(complex)), big)


@pytest.mark.filterwarnings("error")
def test_hermitian_gate_keeps_the_old_formulas_bit_for_bit():
    # halving first is exact away from underflow, so it changes no bit of (a + a^dag)/2,
    # and the asymmetry it reports is max|a - a^dag|, refused past 1e-10 * max(1, max|a|)
    rng = np.random.default_rng(26)
    accepted = refused = 0
    for d in (1, 2, 3, 8):
        a = rng.standard_normal((125, d, d)) + 1j * rng.standard_normal((125, d, d))
        # matrix j scaled by 10**e_j, e_j uniform in [-300, 300]
        a *= 10.0 ** rng.uniform(-300, 300, size=(125, 1, 1))
        ref = (a + np.swapaxes(a, -1, -2).conj()) / 2
        assert _hermitize(a.copy()).tobytes() == ref.tobytes()
        defects = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(1, 2))
        ok = defects <= 1e-10 * np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        assert require_hermitian(a[ok]).tobytes() == ref[ok].tobytes()
        for m, defect in zip(a[~ok], defects[~ok]):
            with pytest.raises(ContractError) as info:
                require_hermitian(m)
            assert f"max asymmetry {defect:.3e} exceeds" in str(info.value)
        accepted += int(ok.sum())
        refused += int((~ok).sum())
    assert accepted > 100 and refused > 100


def test_mat_sqrt_psd_squares_back():
    rng = np.random.default_rng(8)
    for trial in range(20):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = g @ g.conj().T
        root = mat_sqrt_psd(m)
        np.testing.assert_allclose(root @ root, m, atol=1e-8 * max(1.0, max_abs(m)))
        assert max_abs(root - root.conj().T) < 1e-10


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
    # the package's unchecked kernel is the same closed form, bit for bit
    assert np.array_equal(_det2(stack), det(stack))
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


def test_paulis_are_one_read_only_stack():
    assert PAULIS.shape == (4, 2, 2) and PAULIS.dtype == complex
    for i, p in enumerate((PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)):
        assert np.array_equal(PAULIS[i], p)
    for view in (PAULIS, PAULI_X):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 2.0


def test_pauli_algebra():
    np.testing.assert_allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=0)
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(p @ p, PAULI_I, atol=0)
        assert abs(np.trace(p)) == 0.0
