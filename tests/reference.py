"""Reference routes the tests check the package against; the package never calls them."""

from __future__ import annotations

import numpy as np

from qlorentz.invariants import (
    _PAULI_MAP,
    _PAULI_MAP2,
    _SUBSET_WEIGHT,
    _SUBSET_WEIGHT2,
    _blocked_steps,
    _pair_order,
)
from qlorentz.linalg import as_matrix
from qlorentz.states import SINGLET_COEFFS, QubitState, spin_flip


def rel_dev(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|): the floor-1 relative deviation the test criteria read."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def char_poly_coeffs(m) -> np.ndarray:
    """Coefficients c_0..c_{d-1} of det(lambda*I - m), leading coefficient 1.

    Computed by the Faddeev-LeVerrier recurrence, which extracts each
    coefficient from traces of matrix powers; no eigensolver involved.
    """
    a = as_matrix(m)
    d = a.shape[0]
    coeffs = np.empty(d, dtype=complex)
    mk = a.copy()
    eye = np.eye(d, dtype=complex)
    for k in range(1, d + 1):
        c = -np.trace(mk) / k
        coeffs[d - k] = c
        if k < d:
            mk = a @ (mk + c * eye)
    return coeffs


def det(m) -> np.ndarray:
    """Closed form ad - bc of a 2x2 matrix, or of each matrix in a (..., 2, 2) stack."""
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"det is the 2x2 closed form, got shape {a.shape}")
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def singlet_correlation_einsum(a, b) -> np.ndarray:
    """1/2 sum S_ij a_ik b_jl S_kl over the singlet coefficients S, as one complex 4-operand
    einsum whose real part is taken: the form the package's real-arithmetic kernel reproduces."""
    s = SINGLET_COEFFS
    return 0.5 * np.einsum("ij,...ik,...jl,kl->...", s, a, b, s).real


def linear_entropy_einsum(s: QubitState) -> float:
    """Tr(rho)^2 - Tr(rho^2), with Tr(rho^2) contracted as sum_ij rho_ij rho_ji."""
    tr = np.trace(s.rho).real
    return float(tr * tr - np.einsum("ij,ji->", s.rho, s.rho).real)


def trace_route_einsum(s: QubitState) -> float:
    """Tr(rho * spin_flip(rho)), contracted as sum_ij rho_ij spin_flip(rho)_ji."""
    return float(np.einsum("ij,ji->", s.rho, spin_flip(s).rho).real)


def trace_route_vdot(s: QubitState) -> float:
    """Tr(rho * spin_flip(rho)) as Re Tr(spin_flip(rho)^dagger rho): one full conjugated dot
    with the spin-flipped copy, where the package takes a half-length signed dot off rho alone."""
    return float(np.vdot(spin_flip(s).rho, s.rho).real)


def subset_purities_transpose(rho: np.ndarray, n: int) -> np.ndarray:
    """invariants._subset_purities with its qubit-pair order taken by a 2n-axis transpose copy.

    The package's blocked Pauli steps on the same values, so the package's gather must match it
    byte for byte.
    """
    m = rho.real + rho.imag
    # (r1..rn, c1..cn) -> (r1, c1, ..., rn, cn): one 4-valued axis per qubit
    t = m.reshape((2,) * (2 * n)).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    t = _blocked_steps(t, _PAULI_MAP, _PAULI_MAP2, n)
    t *= t
    return _blocked_steps(t, _SUBSET_WEIGHT, _SUBSET_WEIGHT2, n).reshape((2,) * n)


def subset_purities_per_qubit(rho: np.ndarray, n: int) -> np.ndarray:
    """invariants._subset_purities with one qubit per step through the 4x4 maps: 2n products.

    The same gather and the same exact maps, summed in another order.
    """
    t = (rho.real + rho.imag).ravel()[_pair_order(n)]
    for _ in range(n):
        t = t.reshape(4, -1).T @ _PAULI_MAP.T
    t *= t
    for _ in range(n):
        t = t.reshape(4, -1).T @ _SUBSET_WEIGHT.T
    return t.reshape((2,) * n)


def w_matrix(s: QubitState) -> np.ndarray:
    """The product rho * spin_flip(rho); not Hermitian in general."""
    return s.rho @ spin_flip(s).rho


def depolarize(s: QubitState, p: float) -> QubitState:
    """Mix the state with white noise: (1-p)*rho + p*Tr(rho)*I/dim.

    Trace-preserving and completely positive, but not entropy-preserving,
    which is exactly why it serves as the negative control for the
    conjugation-map characterization.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight {p} outside [0, 1]")
    d = s.dim
    noise = np.trace(s.rho).real * np.eye(d, dtype=complex) / d
    return QubitState(s.n, (1.0 - p) * s.rho + p * noise)
