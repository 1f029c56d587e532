"""n-qubit states, the spin-flip, and local SL(2,C) actions.

States are positive semidefinite Hermitian matrices with positive trace and
are deliberately allowed to be un-normalized: conjugation by a boost changes
the trace, and nothing here ever renormalizes behind your back.
"""

from __future__ import annotations

from functools import cache
from functools import reduce as _fold
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import ContractError
from .linalg import (
    MAX_QUBITS,
    PSD_TOL,
    kron_all,
    partial_trace,
    require_hermitian,
    require_psd,
)
from .lorentz import require_sl2c
from .seeding import rng_from_seed

#: The singlet psi- = (|01> - |10>) / sqrt(2) as its unscaled 2x2 coefficient
#: matrix, psi_{2i+j} = SINGLET_COEFFS[i, j] / sqrt(2). Callers apply the
#: factor 1/2 of |psi-><psi-| explicitly, so the singlet's entries are exact.
SINGLET_COEFFS = np.array([[0.0, 1.0], [-1.0, 0.0]])
SINGLET_COEFFS.setflags(write=False)


class QubitState:
    """A possibly un-normalized n-qubit density matrix.

    The constructor is the one validity gate: it checks the qubit count
    (at most MAX_QUBITS), Hermiticity (require_hermitian), positive
    semidefiniteness (require_psd, which raises PositivityError) and a
    positive trace, then stores the Hermitian part (rho + rho^dag)/2 that
    require_hermitian returns, read-only. Internal builders whose output is
    valid by construction hand a fresh matrix over, uncopied, to ``_adopt``.
    Either way rho is exactly Hermitian, rho == rho^dag bit for bit, and the
    kernels trust every QubitState they are given: none re-derives its Hermitian part.
    """

    __slots__ = ("n", "rho")

    def __init__(self, n: int, rho):
        n = _check_n(n)
        h = require_hermitian(rho, what="state")
        if h.shape != (2**n, 2**n):
            raise ValueError(f"matrix dimension {h.shape[0]} does not match n={n} qubits")
        require_psd(np.linalg.eigvalsh(h), h, what="state")
        # the Hermitian part's trace is real by construction
        tr = np.trace(h).real
        if tr <= 0.0:
            raise ContractError(f"state trace {tr} is not positive")
        h.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rho", h)

    @classmethod
    def _adopt(cls, n: int, a: np.ndarray, *, check_finite: bool = False) -> "QubitState":
        """Own a fresh complex128 (2**n, 2**n) array, set read-only; check_finite stops overflow.

        The array must be exactly Hermitian; a product that rounds unevenly goes through _hermitize.
        """
        if check_finite and not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "rho", a)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("QubitState is immutable")

    @property
    def dim(self) -> int:
        return 2**self.n

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def scaled(self, c: float) -> "QubitState":
        if not c > 0.0:  # NaN fails too; an infinite c fails the finiteness check
            raise ValueError(f"scale factor must be positive, got {c}")
        return QubitState._adopt(self.n, c * self.rho, check_finite=True)

    def __repr__(self):
        return f"QubitState(n={self.n}, trace={self.trace():.6g})"


def _hermitize(a: np.ndarray) -> np.ndarray:
    """Overwrite the square array a with its exactly Hermitian part (a + a^dag)/2; returns a."""
    a += a.T.conj()
    a *= 0.5
    return a


@cache
def _parity_signs(n: int) -> np.ndarray:
    """s_x = (-1)^popcount(x) for x = 0..2**n - 1, built once per n and read-only."""
    sign = _fold(np.kron, [np.array([1.0, -1.0])] * n)
    sign.setflags(write=False)
    return sign


@cache
def _flip_signs(n: int) -> np.ndarray:
    """The table s_x s_y of spin_flip, built once per n and read-only."""
    sign = _parity_signs(n)
    table = np.outer(sign, sign)
    table.setflags(write=False)
    return table


def spin_flip(s: QubitState) -> QubitState:
    """The spin-flipped state Y^(x)n conj(rho) Y^(x)n.

    An involution; for one qubit it equals Tr(rho)*I - rho. Y^(x)n sends |x>
    to i^n (-1)^popcount(x) times the bit complement of x, so the sandwich is
    conj(rho) with both indices complemented (reversed), times s_x s_y with
    s_x = (-1)^popcount(x): O(d^2), and bit-identical to the dense products.
    """
    flipped = np.conj(s.rho[::-1, ::-1])
    flipped *= _flip_signs(s.n)
    return QubitState._adopt(s.n, flipped)


# eigenvalues of rho at or below this fraction of the largest count as zero in w_spectrum
_EIG_CUT = 1e-14


def _rank_factor(rho: np.ndarray) -> np.ndarray:
    """A factor A of the Hermitian matrix rho = A A^dag, chosen by case; see w_spectrum."""
    d = rho.shape[0]
    diag = rho.diagonal().real
    j = int(np.argmax(diag))
    if diag[j] > 0.0:
        psi = rho[:, j : j + 1] / np.sqrt(diag[j])
        tr, norm2 = diag.sum(), np.linalg.norm(psi) ** 2
        # |Tr X| <= sqrt(d) |X|_F for Hermitian X = rho - psi psi^dag: a trace gap 1e4 times
        # the residual's cut rules rank 1 out in O(d), before the d^2 residual
        if abs(tr - norm2) <= 1e-8 * (tr + norm2):
            if np.linalg.norm(rho - psi @ psi.conj().T) <= _EIG_CUT * norm2:
                return psi
    if d * (d + 1) * np.finfo(float).eps / 2 <= PSD_TOL:
        try:
            low = np.linalg.cholesky(rho)
        except np.linalg.LinAlgError:
            pass
        else:
            pivots = low.diagonal().real ** 2
            if pivots.min() > 1e-12 * pivots.max():
                return low
    evals, vecs = np.linalg.eigh(rho)
    require_psd(evals, rho, what="state")
    keep = evals > _EIG_CUT * evals[-1]
    return vecs[:, keep] * np.sqrt(evals[keep])


def w_spectrum(s: QubitState) -> np.ndarray:
    """Eigenvalues of the W-matrix rho * spin_flip(rho), descending, length 2**n.

    Any factor rho = A A^dag gives spin_flip(rho) = C C^dag with C = Y^(x)n conj(A),
    so the nonzero spectrum of W is that of (A^dag C)(A^dag C)^dag: the squared
    singular values of the r x r matrix A^T Y^(x)n A, up to a phase. Y^(x)n
    maps |x> to i^n s_x |~x>, so that matrix is A^T (s * A[::-1]), with
    s_x = (-1)^popcount(x) as in spin_flip; s_~x = (-1)^n s_x makes it (-1)^n
    times its transpose, imposed exactly so that odd-n pure states give 0.
    The squares are non-negative by construction; the rest are exact zeros.

    The factor is taken from the first of three branches that applies:

    1. Verified rank 1: psi = rho[:, j] / sqrt(rho_jj) at the largest diagonal
       entry, accepted when the Frobenius norm of rho - psi psi^dag is at most
       1e-14 |psi|^2. By Weyl's inequality every other eigenvalue of rho is
       then at most about 1e-14 of the largest in magnitude, so branch 3
       would drop it too, and none is below about -1e-14 * d * max|rho|,
       inside the PSD_TOL bound for every d up to 10^4. The matrix is then
       1 x 1, Wootters' preconcurrence psi^T Y^(x)n psi. O(d^2).
    2. Cholesky, rho = L L^dag, when it succeeds with every pivot L_ii^2 above
       1e-12 of the largest. It is backward stable (Higham, Accuracy and
       Stability of Numerical Algorithms, 2nd ed., ch. 10): success puts rho
       within d (d + 1) eps/2 * max|rho| of a positive semidefinite matrix in
       the 2-norm, so the branch runs only where that is at most
       PSD_TOL * max|rho|, for d up to 512.
    3. A = V sqrt(L) over the eigenpairs of rho above 1e-14 of the largest,
       which also decides positivity for the other inputs.

    Hermiticity is QubitState's check; branch 3 raises PositivityError for an
    eigenvalue below the require_psd floor, as QubitState.
    """
    a = _rank_factor(s.rho)
    b = a.T @ (_parity_signs(s.n)[:, None] * a[::-1])
    b = 0.5 * (b + (-1) ** s.n * b.T)
    lam = np.zeros(s.dim)
    lam[: b.shape[0]] = np.linalg.svd(b, compute_uv=False) ** 2
    return lam


def _kron_block(f: np.ndarray) -> np.ndarray:
    """Kronecker product of a (k, 2, 2) stack, left slot most significant; [[1]] for k = 0."""
    m = np.ones((1, 1))
    for a in f:
        m = (m[:, None, :, None] * a[:, None]).reshape(2 * len(m), -1)
    return m


def apply_local(s: QubitState, factors) -> QubitState:
    """Conjugate the state by the Kronecker product M of the per-qubit SL(2,C) factors.

    ``factors`` is an (n, 2, 2) stack or a list of n 2x2 matrices; factor j
    acts on qubit j + 1, and require_sl2c names a failing factor by j.
    Returns M rho M^dag, made exactly Hermitian and intentionally un-normalized;
    ValueError if it overflows. M = M_hi (x) M_lo, split after qubit
    n // 2, acts on reshaped views of rho: O(d^2 (d_hi + d_lo)), not 2 d^3 (Van Loan 2000).
    """
    f = require_sl2c(factors)
    if f.shape != (s.n, 2, 2):
        raise ValueError(f"action needs an ({s.n}, 2, 2) stack of factors, got shape {f.shape}")
    hi, lo = _kron_block(f[: s.n // 2]), _kron_block(f[s.n // 2 :])
    d, d_hi, d_lo = s.dim, len(hi), len(lo)
    # a row or column index is a (hi, lo) pair; the column side takes the conjugate blocks
    y = np.matmul(lo, (hi @ s.rho.reshape(d_hi, -1)).reshape(d_hi, d_lo, d))
    y = (y.reshape(-1, d_lo) @ lo.conj().T).reshape(d, d_hi, d_lo)
    y = np.matmul(hi.conj(), y).reshape(d, d)
    return QubitState._adopt(s.n, _hermitize(y), check_finite=True)


def reduce(s: QubitState, subset: Iterable[int]) -> QubitState:
    """Reduced state on the given qubits (1-based, relative order preserved)."""
    kept = sorted(set(int(q) for q in subset))
    return QubitState._adopt(len(kept), partial_trace(s.rho, s.n, kept), check_finite=True)


def _projector(psi: np.ndarray) -> np.ndarray:
    return _hermitize(np.outer(psi, psi.conj()))


def _singlet_rho() -> np.ndarray:
    c = SINGLET_COEFFS.ravel()
    return (0.5 * np.outer(c, c)).astype(complex)


def _check_n(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
    return n


def singlet() -> QubitState:
    return QubitState._adopt(2, _singlet_rho())


def ghz(n: int = 3) -> QubitState:
    n = _check_n(n)
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return QubitState._adopt(n, _projector(psi))


def wstate(n: int = 3) -> QubitState:
    n = _check_n(n)
    psi = np.zeros(2**n, dtype=complex)
    for q in range(n):
        psi[1 << q] = 1.0 / np.sqrt(n)
    return QubitState._adopt(n, _projector(psi))


def product_of_singlets(k: int = 2) -> QubitState:
    k = int(k)
    if not 1 <= k <= MAX_QUBITS // 2:
        raise ValueError(f"singlet pair count {k} outside 1..{MAX_QUBITS // 2}")
    return QubitState._adopt(2 * k, kron_all([_singlet_rho()] * k))


def maximally_mixed(n: int = 1) -> QubitState:
    n = _check_n(n)
    d = 2**n
    return QubitState._adopt(n, np.eye(d, dtype=complex) / d)


def basis0(n: int = 1) -> QubitState:
    n = _check_n(n)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return QubitState._adopt(n, rho)


_PRESET_BUILDERS = {
    "singlet": (singlet, None),
    "ghz": (ghz, 3),
    "wstate": (wstate, 3),
    "product_of_singlets": (product_of_singlets, 2),
    "singlets": (product_of_singlets, 2),
    "maximally_mixed": (maximally_mixed, 1),
    "basis0": (basis0, 1),
}

def preset(name: str) -> QubitState:
    """Named state, with an optional size suffix: 'singlet', 'ghz4', 'wstate4', ...

    Recognized families: singlet, ghz(n), wstate(n), product_of_singlets(k)
    (alias 'singlets'), maximally_mixed(n), basis0(n).
    """
    text = name.strip().lower()
    # longest family name first so 'basis0' is not read as 'basis' + size 0
    for key in sorted(_PRESET_BUILDERS, key=len, reverse=True):
        builder, default = _PRESET_BUILDERS[key]
        if text == key:
            return builder() if default is None else builder(default)
        if text.startswith(key):
            rest = text[len(key):].lstrip("_")
            if rest.isdigit():
                if default is None:
                    raise ValueError(f"preset {key!r} does not take a size suffix")
                return builder(int(rest))
    known = ", ".join(sorted(_PRESET_BUILDERS))
    raise ValueError(f"unknown preset {name!r}; known families: {known}")


def _gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """rng.standard_normal(shape) + 1j * rng.standard_normal(shape), bit for bit.

    Filled in place, without the two complex temporaries of the expression.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def random_state(n: int, kind: str, rng_seed: int) -> QubitState:
    """Seeded random state: 'pure' draws a Gaussian ket, 'mixed' a Wishart matrix.

    Both are normalized to unit trace; rescale afterwards if an un-normalized
    state is wanted. The stored matrix is the exactly Hermitian part of the
    draw, psi psi^dag or g g^dag / Tr(g g^dag).
    """
    n = _check_n(n)
    rng = rng_from_seed(rng_seed)
    d = 2**n
    if kind == "pure":
        psi = _gaussian(rng, (d,))
        psi /= np.linalg.norm(psi)
        return QubitState._adopt(n, _projector(psi))
    if kind == "mixed":
        g = _gaussian(rng, (d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        return QubitState._adopt(n, _hermitize(rho))
    raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")


def state_to_json_dict(s: QubitState) -> dict:
    """Serialize as {"n": int, "matrix": [[[re, im], ...], ...]} (row-major)."""
    return {"n": s.n, "matrix": np.stack([s.rho.real, s.rho.imag], -1).tolist()}


def state_from_json_dict(payload: dict) -> QubitState:
    """Load and fully validate a state from its JSON form."""
    if not isinstance(payload, dict) or "n" not in payload or "matrix" not in payload:
        raise ValueError("state JSON must be an object with 'n' and 'matrix' keys")
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"state JSON field 'n' must be an integer, got {n!r}")
    raw = payload["matrix"]
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state matrix: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"state matrix must be square with [re, im] entries, got shape {arr.shape}")
    # asarray also takes numeric strings, booleans and null (as NaN): refuse them by type
    if bad := set(map(type, chain.from_iterable(chain.from_iterable(raw)))) - {int, float}:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise ValueError(f"state matrix entries must be JSON numbers, got {names}")
    rho = arr[:, :, 0] + 1j * arr[:, :, 1]
    return QubitState(n, rho)
