"""Scalar invariants of n-qubit states under local SL(2,C) conjugation.

The headline quantity is the linear n-partite mutual information I_L,
computed two independent ways: an alternating subset sum of linear
entropies, and the trace of rho times its spin flip. Their agreement on
random states is the package's central cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .states import QubitState, spin_flip, w_spectrum

__all__ = [
    "InvariantSet",
    "linear_entropy",
    "spectral_invariants",
    "concurrence",
    "linear_mutual_info_subsets",
    "linear_mutual_info_trace",
    "invariant_report",
]


def _linear_entropy(rho: np.ndarray) -> float:
    """Tr(rho)^2 - Tr(rho^2), with Tr(rho^2) = Tr(rho^dagger rho) as one contiguous dot.

    Its terms |rho_ij|^2 are non-negative.
    """
    tr = np.trace(rho).real
    return float(tr * tr - np.vdot(rho, rho).real)


def linear_entropy(s: QubitState) -> float:
    """Tr(rho)^2 - Tr(rho^2), without normalizing; zero iff pure up to scale."""
    return _linear_entropy(s.rho)


def _symmetric_polys(lam: np.ndarray) -> np.ndarray:
    """e_1..e_d of a non-negative spectrum: the coefficients of prod_i (x + l_i).

    np.poly's update e_j += l_i e_(j-1), in place over the nonzero l_i (a zero
    one changes none); every l_i is non-negative, so no term cancels another.
    """
    c = np.zeros(len(lam) + 1)
    c[0] = 1.0
    for k, x in enumerate(lam[lam > 0.0]):
        c[1 : k + 2] += x * c[: k + 1]
    return c[1:]


def _concurrence(lam: np.ndarray) -> float:
    roots = np.sqrt(lam)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def spectral_invariants(s: QubitState) -> np.ndarray:
    """Elementary symmetric polynomials e_1..e_d of the W-spectrum.

    e_1 is Tr(W) and e_d is det(W). Each entry is separately invariant under
    local SL(2,C) actions. One w_spectrum call; invariant_report shares its
    spectrum with the concurrence instead.
    """
    return _symmetric_polys(w_spectrum(s))


def concurrence(s: QubitState) -> float:
    """max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)} over the descending W-spectrum.

    Defined for two qubits only, and deliberately for un-normalized states:
    the underlying spectrum is what local SL(2,C) actions preserve. One
    w_spectrum call; invariant_report shares its spectrum with the e_k instead.
    """
    if s.n != 2:
        raise ValueError(f"concurrence is defined for 2 qubits, got n={s.n}")
    return _concurrence(w_spectrum(s))


#: Row k turns a qubit's 2x2 block, flattened as 2r + c, into Tr(block Q_k) for the
#: real Q_k = I, X, iY = [[0, 1], [-1, 0]], Z; a Pauli string is (-i)^m times the
#: product of the Q_k it names, with m its number of Y factors.
_PAULI_MAP = np.array(
    [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]]
)
#: Weight of Tr(rho P)^2 per qubit in Tr(rho_S^2): row 0 outside S, row 1 inside.
_SUBSET_WEIGHT = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]])


def _subset_purities(rho: np.ndarray, n: int) -> np.ndarray:
    """Tr(rho_S^2) for every qubit subset S, as a (2,)*n tensor; axis q is 1 when qubit q+1 is in S.

    The Pauli coefficients of the Hermitian rho are real. For P = (-i)^m Q with
    Q real, Tr(rho P) real makes Tr(Re rho Q) vanish for odd m and Tr(Im rho Q)
    for even m, so Tr(rho P)^2 = Tr(M Q)^2 with M = Re rho + Im rho: real
    arithmetic throughout. The squares are formed in place.
    """
    m = rho.real + rho.imag
    # (r1..rn, c1..cn) -> (r1, c1, ..., rn, cn): one 4-valued axis per qubit
    t = m.reshape((2,) * (2 * n)).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    # each product contracts the leading axis and appends its result axis last
    for _ in range(n):
        t = t.reshape(4, -1).T @ _PAULI_MAP.T
    t *= t
    for _ in range(n):
        t = t.reshape(4, -1).T @ _SUBSET_WEIGHT.T
    return t.reshape((2,) * n)


@cache
def _subset_signs(n: int) -> np.ndarray:
    """+1 for odd-sized, -1 for even-sized subsets, as a read-only (2,)*n tensor built once per n."""
    size = np.indices((2,) * n).sum(axis=0)
    signs = np.where(size % 2 == 1, 1.0, -1.0)
    signs.setflags(write=False)
    return signs


def linear_mutual_info_subsets(s: QubitState) -> float:
    """Alternating sum of linear entropies over all nonempty qubit subsets.

    Odd-sized subsets enter with +, even-sized with -: the definitional route
    that linear_mutual_info_trace must reproduce. The full set's term is
    linear_entropy; every proper subset's purity comes from one Pauli
    expansion of rho, Tr(rho_S^2) = 2^-|S| sum of Tr(rho P)^2 over the Pauli
    strings P supported in S, in O(n 4^n) time, hence the qubit cap. The
    coefficients Tr(rho P) are real and equal Tr(M Q) up to sign, with
    M = Re rho + Im rho and Q = P with each Y replaced by the real iY, so the
    expansion runs in real arithmetic. No spin flip, Y^(x)n or parity
    sign enters, and the purities are summed subset by subset, so the route
    shares no kernel with the trace formula it checks.
    """
    n = s.n
    tr = np.trace(s.rho).real
    terms = _subset_signs(n) * (tr * tr - _subset_purities(s.rho, n))
    # flat index 0 is the empty set, -1 the full set
    proper = float(terms.ravel()[1:-1].sum())
    return _linear_entropy(s.rho) * (1.0 if n % 2 == 1 else -1.0) + proper


def linear_mutual_info_trace(s: QubitState) -> float:
    """Tr(rho * spin_flip(rho)): the closed-form route to the same quantity.

    Computed as Re Tr(spin_flip(rho)^dagger rho), one contiguous dot; both
    matrices are Hermitian, so the adjoint changes nothing.
    """
    return float(np.vdot(spin_flip(s).rho, s.rho).real)


@dataclass(frozen=True)
class InvariantSet:
    """All scalar invariants of one state, computed consistently in one pass."""

    linear_entropy: float
    trace_w: float
    spectral_invariants: tuple[float, ...]
    concurrence: Optional[float]
    i_l_subset: float
    i_l_trace: float

    def to_json_dict(self) -> dict:
        # shallow: asdict would deep-copy the d-float tuple entry by entry
        return {**vars(self), "spectral_invariants": list(self.spectral_invariants)}


def invariant_report(s: QubitState) -> InvariantSet:
    """Full invariant summary; trace_w and i_l_trace are the same number.

    The e_k and, at n = 2, the concurrence are read off one w_spectrum call.
    """
    return _invariant_report(s, w_spectrum(s))


def _invariant_report(s: QubitState, lam: np.ndarray) -> InvariantSet:
    """invariant_report of s, given its W-spectrum lam."""
    i_l_trace = linear_mutual_info_trace(s)
    return InvariantSet(
        linear_entropy=linear_entropy(s),
        trace_w=i_l_trace,
        spectral_invariants=tuple(_symmetric_polys(lam).tolist()),
        concurrence=_concurrence(lam) if s.n == 2 else None,
        i_l_subset=linear_mutual_info_subsets(s),
        i_l_trace=i_l_trace,
    )
