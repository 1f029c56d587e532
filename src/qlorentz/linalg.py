"""Dense complex matrix kernel for multi-qubit operators.

Conventions used throughout the package:

* matrices are square ``complex128`` numpy arrays in row-major order;
* for an n-qubit operator, qubit 1 is the most significant index factor
  (the leftmost slot of the Kronecker product);
* eigenvalues are reported in descending order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, PositivityError, SizeError

#: The one qubit-count cap of the package: the state builders, the subset
#: route of I_L and ``oracle`` stop here, and no Kronecker product grows past
#: its dimension.
MAX_QUBITS = 10
MAX_DIM = 2**MAX_QUBITS

#: The one validity policy for states and observables: a matrix is Hermitian
#: when no entry of m - m† exceeds HERMITIAN_TOL (require_hermitian), and
#: positive semidefinite when no eigenvalue lies below -PSD_TOL * max|m|
#: (require_psd). QubitState applies both; the PSD kernels apply the same floor.
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Pauli basis in the index order matched to (t, x, y, z) coordinates.
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    a = _as_square_stack(m)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_square_stack(m) -> np.ndarray:
    """Coerce input to a square complex matrix, or a (..., d, d) stack of them, with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (the max norm)."""
    return float(np.abs(m).max()) if m.size else 0.0


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance between a matrix, or every matrix of a stack, and its conjugate transpose."""
    return max_abs(m - np.swapaxes(m, -1, -2).conj())


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    """Check Hermiticity within HERMITIAN_TOL and return the symmetrized matrix.

    ``m`` may be a (..., d, d) stack; every matrix in it is checked. Raises
    ContractError naming the max asymmetry when the check fails.
    """
    a = _as_square_stack(m)
    defect = hermiticity_defect(a)
    if defect > HERMITIAN_TOL:
        raise ContractError(
            f"{what} is not Hermitian: max asymmetry {defect:.3e} exceeds atol {HERMITIAN_TOL:.1e}"
        )
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def require_psd(evals: np.ndarray, m: np.ndarray, what: str = "matrix") -> None:
    """Raise PositivityError if the least of ``evals``, the ascending eigenvalues
    of the Hermitian ``m``, lies below the one PSD floor -PSD_TOL * max|m|.

    Eigenvalues between the floor and 0 count as floating-point drift.
    """
    floor = -PSD_TOL * max_abs(m)
    low = float(evals[0]) if evals.size else 0.0
    if low < floor:
        raise PositivityError(f"{what} is not PSD: eigenvalue {low:.3e} below {floor:.3e}")


def kron(a, b) -> np.ndarray:
    """Kronecker product with the MAX_DIM size guard."""
    a = as_matrix(a)
    b = as_matrix(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_DIM:
        raise SizeError(f"Kronecker product dimension {out_dim} exceeds maximum {MAX_DIM}")
    return np.kron(a, b)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left slot most significant."""
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one factor")
    out = as_matrix(mats[0])
    for m in mats[1:]:
        out = kron(out, m)
    return out


def partial_trace(rho, n: int, keep) -> np.ndarray:
    """Trace out all qubits of a 2**n density matrix except those in ``keep``.

    ``keep`` is a nonempty subset of {1..n} (qubit 1 is the most significant
    index factor). Kept qubits retain their relative order in the output,
    which has dimension 2**len(keep). The total trace is preserved.
    """
    rho = as_matrix(rho)
    if rho.shape[0] != 2**n:
        raise ValueError(f"matrix dimension {rho.shape[0]} does not match n={n} qubits")
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep must be a nonempty subset of qubit indices")
    if kept[0] < 1 or kept[-1] > n:
        raise ValueError(f"keep indices {kept} outside 1..{n}")
    if len(kept) == n:
        return rho.copy()
    t = rho.reshape((2,) * (2 * n))
    # trace the highest positions first so the lower ones keep their place
    for j in reversed(range(n)):
        if j + 1 not in kept:
            t = np.trace(t, axis1=j, axis2=j + t.ndim // 2)
    d = 2 ** len(kept)
    return t.reshape(d, d)


def mat_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues down to the require_psd floor are treated as floating-point
    drift and clamped to zero; anything lower raises PositivityError, and
    non-Hermitian input beyond HERMITIAN_TOL raises ContractError. The tests
    build their reference W-spectrum, sqrt(rho) rho* sqrt(rho), on it.
    """
    h = require_hermitian(as_matrix(m))
    evals, vecs = np.linalg.eigh(h)
    require_psd(evals, h)
    evals = np.clip(evals, 0.0, None)
    # zero out eigensolver noise at 1e-16 scale: sqrt would amplify it to 1e-8
    if evals.size and evals[-1] > 0.0:
        evals[evals < 1e-14 * evals[-1]] = 0.0
    roots = np.sqrt(evals)
    s = (vecs * roots) @ vecs.conj().T
    return 0.5 * (s + s.conj().T)


def det(m):
    """Closed form ad - bc of a 2x2 matrix, or of each matrix in a (..., 2, 2) stack."""
    a = _as_square_stack(m)
    if a.shape[-1] != 2:
        raise ValueError(f"det is the 2x2 closed form, got shape {a.shape}")
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]

