"""Scalar invariants of n-qubit states under local SL(2,C) conjugation.

The headline quantity is the linear n-partite mutual information I_L,
computed two independent ways: an alternating subset sum of linear
entropies, and the trace of rho times its spin flip. Their agreement on
random states is the package's central cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .states import QubitState, _spin_flip_dot, w_spectrum


def linear_entropy(s: QubitState) -> float:
    """Tr(rho)^2 - Tr(rho^2), without normalizing; zero iff pure up to scale.

    Tr(rho^2) = Tr(rho^dagger rho) is one contiguous dot, whose terms |rho_ij|^2
    are non-negative.
    """
    tr = np.trace(s.rho).real
    return float(tr * tr - np.vdot(s.rho, s.rho).real)


def _concurrence(lam: np.ndarray) -> float:
    roots = np.sqrt(lam)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def spectral_invariants(s: QubitState) -> np.ndarray:
    """The W-spectrum, descending: every spectral invariant of W is a function of it.

    Kept because perfbench/tracer.py wraps this name. It is its own def, not
    an alias of w_spectrum, because that tracer keys its wrappers by function
    identity: an alias would book every w_spectrum call under this name.
    """
    return w_spectrum(s)


def concurrence(s: QubitState) -> float:
    """max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)} over the descending W-spectrum.

    Defined for two qubits only, and deliberately for un-normalized states:
    the underlying spectrum is what local SL(2,C) actions preserve. One
    w_spectrum call; invariant_report reads it off the spectrum it reports.
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


@cache
def _pair_order(n: int) -> np.ndarray:
    """Flat indices of a (2**n, 2**n) matrix in (r1, c1, ..., rn, cn) bit order, built once per n.

    The perfect shuffle of the row bits r1..rn with the column bits c1..cn
    (Van Loan, J. Comput. Appl. Math. 123, 85, 2000), so that each qubit owns
    one 4-valued axis. Read-only, 4**n intp entries: 32 KB at n = 6 and 8 MB
    at n = 10, the size of _flip_signs(10).
    """
    axes = np.arange(2 * n).reshape(2, n).T.ravel()
    order = np.arange(4**n, dtype=np.intp).reshape((2,) * (2 * n)).transpose(axes).ravel()
    order.setflags(write=False)
    return order


#: Both maps for two qubits, in (first, second) qubit order; entries exact: 0, +-1, 1/4, 1/2, 1.
_PAULI_MAP2 = np.kron(_PAULI_MAP, _PAULI_MAP)
_SUBSET_WEIGHT2 = np.kron(_SUBSET_WEIGHT, _SUBSET_WEIGHT)


def _blocked_steps(t: np.ndarray, one: np.ndarray, two: np.ndarray, n: int) -> np.ndarray:
    """Contract t's leading qubits, two per step through two, the last at odd n through one."""
    for p in [two] * (n // 2) + [one] * (n % 2):
        t = t.reshape(p.shape[1], -1).T @ p.T  # the result's axes go last
    return t


def _subset_purities(rho: np.ndarray, n: int) -> np.ndarray:
    """Tr(rho_S^2) for every qubit subset S, as a (2,)*n tensor; axis q is 1 when qubit q+1 is in S.

    The Pauli coefficients of the Hermitian rho are real. For P = (-i)^m Q with
    Q real, Tr(rho P) real makes Tr(Re rho Q) vanish for odd m and Tr(Im rho Q)
    for even m, so Tr(rho P)^2 = Tr(M Q)^2 with M = Re rho + Im rho. One gather
    through the cached perfect shuffle _pair_order(n) puts M in qubit-pair order
    (4-5x faster than a 2n-axis transpose copy). Each step then contracts two
    qubits: ceil(n/2) Pauli products of at most 16 * 4**n multiply-adds, squared in
    place, and ceil(n/2) weight products on a tensor that shrinks 4x per step: 3 + 3
    passes at n = 6 where per-qubit steps took 6 + 6, but twice their multiply-adds,
    which made n = 8, whose M stays in cache, about 30% slower.
    """
    t = _blocked_steps((rho.real + rho.imag).ravel()[_pair_order(n)], _PAULI_MAP, _PAULI_MAP2, n)
    t *= t
    return _blocked_steps(t, _SUBSET_WEIGHT, _SUBSET_WEIGHT2, n).reshape((2,) * n)


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
    that linear_mutual_info_trace must reproduce. Every subset's purity,
    the full set's included, comes from one Pauli expansion of rho,
    Tr(rho_S^2) = 2^-|S| sum of Tr(rho P)^2 over the Pauli strings P
    supported in S, in O(n 4^n) time, hence the qubit cap. The
    coefficients Tr(rho P) are real and equal Tr(M Q) up to sign, with
    M = Re rho + Im rho and Q = P with each Y replaced by the real iY, so the
    expansion runs in real arithmetic. No spin flip, Y^(x)n or parity
    sign enters, and the purities are summed subset by subset, so the route
    shares no kernel with the trace formula it checks. Every term is at most
    Tr(rho)^2 < 4^k, with k the binary exponent of Tr(rho), so the terms are
    summed scaled by the exact 4^-k, and their sum is finite where Tr(rho)^2 is.
    Its forward error scales with eps sum_S |Tr(rho)^2 - Tr(rho_S^2)|, the terms'
    magnitudes, not with eps Tr(rho)^2: on c I / 2^n at n = 10 it is 78 to 178 of the latter.
    """
    n = s.n
    tr = np.trace(s.rho).real
    terms = _subset_signs(n) * (tr * tr - _subset_purities(s.rho, n))
    k = max(math.frexp(tr)[1], 0)
    # flat index 0 is the empty set; 4.0 ** 512 overflows, so ldexp scales back
    return math.ldexp(float((terms.ravel()[1:] * 2.0 ** (-2 * k)).sum()), 2 * k)


def linear_mutual_info_trace(s: QubitState) -> float:
    """Tr(rho * spin_flip(rho)), the closed-form route: flip-paired entries, d^2/2 multiply-adds."""
    return _spin_flip_dot(s)


@dataclass(frozen=True)
class InvariantSet:
    """All scalar invariants of one state; vars() of it is a report's invariants block."""

    linear_entropy: float
    trace_w: float
    w_spectrum: tuple[float, ...]
    concurrence: Optional[float]
    i_l_subset: float
    i_l_trace: float


def invariant_report(s: QubitState) -> InvariantSet:
    """Every invariant of s; one w_spectrum call gives w_spectrum, trace_w and the concurrence.

    w_spectrum is descending, trace_w = Tr(W) is its sum, and the concurrence
    is None unless n = 2. trace_w and i_l_trace = Tr(rho spin_flip(rho)) are
    one quantity by two roundings.
    """
    lam = w_spectrum(s)
    return InvariantSet(
        linear_entropy=linear_entropy(s),
        trace_w=float(lam.sum()),
        w_spectrum=tuple(lam.tolist()),
        concurrence=_concurrence(lam) if s.n == 2 else None,
        i_l_subset=linear_mutual_info_subsets(s),
        i_l_trace=linear_mutual_info_trace(s),
    )
