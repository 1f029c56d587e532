"""Reference routes the tests check the package against; the package never calls them."""

from __future__ import annotations

import numpy as np

from qlorentz.linalg import as_matrix
from qlorentz.states import QubitState, spin_flip


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


def linear_entropy_einsum(s: QubitState) -> float:
    """Tr(rho)^2 - Tr(rho^2), with Tr(rho^2) contracted as sum_ij rho_ij rho_ji."""
    tr = np.trace(s.rho).real
    return float(tr * tr - np.einsum("ij,ji->", s.rho, s.rho).real)


def trace_route_einsum(s: QubitState) -> float:
    """Tr(rho * spin_flip(rho)), contracted as sum_ij rho_ij spin_flip(rho)_ji."""
    return float(np.einsum("ij,ji->", s.rho, spin_flip(s).rho).real)


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
