"""Dense complex matrix kernel for multi-qubit operators.

Conventions used throughout the package:

* matrices are square ``complex128`` numpy arrays in row-major order;
* for an n-qubit operator, qubit 1 is the most significant index factor
  (the leftmost slot of the Kronecker product);
* eigenvalues are reported in descending order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, PositivityError, SizeError

#: The one qubit-count cap of the package: the state builders, the subset
#: route of I_L and ``oracle`` stop here, and no Kronecker product grows past
#: its dimension.
MAX_QUBITS = 10
MAX_DIM = 2**MAX_QUBITS

#: The one validity policy for states and observables: a matrix is Hermitian
#: when no entry of m - m† exceeds HERMITIAN_TOL * max(1, max|m|) (require_hermitian),
#: and positive semidefinite when no eigenvalue lies below -PSD_TOL * max|m|
#: (require_psd). QubitState applies both where a state enters, the floor as one Cholesky
#: of m + PSD_TOL max|m| I scaled by a power of two, taking the spectrum only to refuse;
#: mat_sqrt_psd applies the floor to its eigenvalues.
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10

#: The one eigenvalue cut: an eigenvalue this small a fraction of the largest
#: counts as zero, in mat_sqrt_psd and in the factor of states.w_spectrum.
_EIG_CUT = 1e-14

#: Pauli basis I, X, Y, Z, matched to (t, x, y, z), as one read-only (4, 2, 2) stack and its rows.
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAULIS.setflags(write=False)
PAULI_I, PAULI_X, PAULI_Y, PAULI_Z = PAULIS


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


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    """Check Hermiticity and return the Hermitian part (m + m^dag)/2.

    A matrix passes when max|m - m^dag| <= HERMITIAN_TOL * max(1, max|m|). ``m`` may be a
    (..., d, d) stack; each matrix in it is held to its own tolerance. Raises ContractError
    naming the max asymmetry, inf past float64, and the tolerance of the worst matrix. The
    input is halved first, exactly, so neither the tolerance nor the Hermitian part overflows.
    """
    h = 0.5 * _as_square_stack(m)
    adj = np.swapaxes(h, -1, -2).conj()
    # each matrix's asymmetry and tolerance, both halved: HERMITIAN_TOL / 2 up to unit scale
    defect = np.abs(h - adj).max(axis=(-2, -1), initial=0.0)
    tol = HERMITIAN_TOL * np.maximum(0.5, np.abs(h).max(axis=(-2, -1), initial=0.0))
    bad = defect > tol
    if bad.any():
        i = np.argmax(np.where(bad, defect / tol, 0.0))
        d, t = 2.0 * float(defect.flat[i]), 2.0 * float(tol.flat[i])
        raise ContractError(f"{what} is not Hermitian: max asymmetry {d:.3e} exceeds tol {t:.3e}")
    h += adj
    return h


def _hermitize(a: np.ndarray) -> np.ndarray:
    """Overwrite a (..., d, d) array with its exactly Hermitian part a/2 + a^dag/2; returns it."""
    a *= 0.5
    a += np.swapaxes(a, -1, -2).conj()
    return a


def require_psd(evals: np.ndarray, m: np.ndarray, what: str = "matrix") -> None:
    """Raise PositivityError if the least of ``evals``, the ascending eigenvalues
    of the Hermitian ``m``, lies below the one PSD floor -PSD_TOL * max|m|.

    Eigenvalues between the floor and 0 count as floating-point drift.
    """
    floor = -PSD_TOL * max_abs(m)
    low = float(evals[0]) if evals.size else 0.0
    if low < floor:
        raise PositivityError(f"{what} is not PSD: eigenvalue {low:.3e} below {floor:.3e}")


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the coerced square factors, left slot first; ValueError for none,
    SizeError past MAX_DIM before any product."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("need at least one factor")
    dim = math.prod(len(m) for m in mats)
    if dim > MAX_DIM:
        raise SizeError(f"Kronecker product dimension {dim} exceeds maximum {MAX_DIM}")
    return _kron_fold(mats)


def _kron_fold(mats) -> np.ndarray:
    """kron_all unchecked, as apply_local and the twirl run it: one broadcast product per
    square factor (Van Loan 2000); [[1]] for none."""
    m = np.ones((1, 1))
    for a in mats:
        k = len(m) * len(a)
        m = (m[:, None, :, None] * a[:, None]).reshape(k, k)
    return m


def partial_trace(rho, n: int, keep) -> np.ndarray:
    """Trace out all qubits of a 2**n density matrix except those in ``keep``.

    ``keep`` is a nonempty subset of {1..n} (qubit 1 is the most significant
    index factor). Kept qubits retain their relative order in the output,
    which has dimension 2**len(keep). The total trace is preserved. It is the
    kernel of states.reduce, the tests' reference route to reduced states.
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
    input past the Hermitian tolerance raises ContractError. The tests
    build their reference W-spectrum, sqrt(rho) rho* sqrt(rho), on it.
    """
    h = require_hermitian(as_matrix(m))
    evals, vecs = np.linalg.eigh(h)
    require_psd(evals, h)
    evals = np.clip(evals, 0.0, None)
    # zero out eigensolver noise at 1e-16 scale: sqrt would amplify it to 1e-8
    if evals.size and evals[-1] > 0.0:
        evals[evals < _EIG_CUT * evals[-1]] = 0.0
    roots = np.sqrt(evals)
    return _hermitize((vecs * roots) @ vecs.conj().T)


def _det2(a: np.ndarray) -> np.ndarray:
    """ad - bc of each matrix in a (..., 2, 2) array, unchecked: require_sl2c and the sampler's."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]

