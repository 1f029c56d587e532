"""Scalar invariants of n-qubit states under local SL(2,C) conjugation.

The headline quantity is the linear n-partite mutual information I_L,
computed two independent ways: an alternating subset sum of linear
entropies, and the trace of rho times its spin flip. Their agreement on
random states is the package's central cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SizeError
from .linalg import MAX_QUBITS, trace_out_qubit
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
    tr = np.trace(rho).real
    tr_sq = np.einsum("ij,ji->", rho, rho).real
    return float(tr * tr - tr_sq)


def linear_entropy(s: QubitState) -> float:
    """Tr(rho)^2 - Tr(rho^2), without normalizing; zero iff pure up to scale."""
    return _linear_entropy(s.rho)


def spectral_invariants(s: QubitState) -> np.ndarray:
    """Elementary symmetric polynomials e_1..e_d of the W-spectrum.

    The coefficients of prod_i (x + l_i) over w_spectrum, expanded one factor
    at a time; every l_i is non-negative, so no term cancels another. e_1 is
    Tr(W) and e_d is det(W). Each entry is separately invariant under local
    SL(2,C) actions.
    """
    return np.poly(-w_spectrum(s))[1:]


def concurrence(s: QubitState) -> float:
    """max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)} over the descending W-spectrum.

    Defined for two qubits only, and deliberately for un-normalized states:
    the underlying spectrum is what local SL(2,C) actions preserve.
    """
    if s.n != 2:
        raise ValueError(f"concurrence is defined for 2 qubits, got n={s.n}")
    roots = np.sqrt(w_spectrum(s))
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def linear_mutual_info_subsets(s: QubitState) -> float:
    """Alternating sum of linear entropies over all nonempty qubit subsets.

    Odd-sized subsets enter with +, even-sized with -, the full set included.
    Exponential in n, hence the qubit cap; serves as the definitional route
    that linear_mutual_info_trace must reproduce.
    """
    if s.n > MAX_QUBITS:
        raise SizeError(f"subset sum needs 2^n-1 terms; n={s.n} exceeds {MAX_QUBITS}")
    n = s.n
    total = _linear_entropy(s.rho) * (1.0 if n % 2 == 1 else -1.0)
    # Reduced states keyed by qubit mask (bit q is qubit q+1), one level at a
    # time. Each is traced once, from the parent that sets its lowest clear
    # bit q; all lower bits are set in both, so that qubit sits at tensor
    # position q. Only two levels are ever alive.
    level = {2**n - 1: s.rho.reshape((2,) * (2 * n))}
    for k in range(n - 1, 0, -1):
        sign = 1.0 if k % 2 == 1 else -1.0
        below = {}
        for parent, t in level.items():
            q = 0
            while parent >> q & 1:
                child = trace_out_qubit(t, q)
                below[parent ^ 1 << q] = child
                total += sign * _linear_entropy(child.reshape(2**k, 2**k))
                q += 1
        level = below
    return total


def linear_mutual_info_trace(s: QubitState) -> float:
    """Tr(rho * spin_flip(rho)): the closed-form route to the same quantity."""
    star = spin_flip(s).rho
    return float(np.einsum("ij,ji->", s.rho, star).real)


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
        return {
            "linear_entropy": self.linear_entropy,
            "trace_w": self.trace_w,
            "spectral_invariants": list(self.spectral_invariants),
            "concurrence": self.concurrence,
            "i_l_subset": self.i_l_subset,
            "i_l_trace": self.i_l_trace,
        }


def invariant_report(s: QubitState) -> InvariantSet:
    """Full invariant summary; trace_w and i_l_trace are the same number."""
    i_l_trace = linear_mutual_info_trace(s)
    return InvariantSet(
        linear_entropy=linear_entropy(s),
        trace_w=i_l_trace,
        spectral_invariants=tuple(float(e) for e in spectral_invariants(s)),
        concurrence=concurrence(s) if s.n == 2 else None,
        i_l_subset=linear_mutual_info_subsets(s),
        i_l_trace=i_l_trace,
    )
