"""The singlet correlation function as a bilinear form of Minkowski signature.

For 2x2 Hermitian observables O1, O2 the singlet expectation
<psi-| O1 (x) O2 |psi-> equals the polarized determinant
(det(O1+O2) - det(O1) - det(O2))/2, which in Pauli coordinates is the
Minkowski metric. This module computes the correlator both ways, averages
conjugated observable pairs over Haar-random U(2) to recover the
chi*I - zeta*F closed form, and checks invariance under
determinant-preserving maps.
"""

from __future__ import annotations

import numpy as np

from .linalg import PAULIS, _as_square_stack, _det2, _kron_fold, as_matrix, require_hermitian
from .lorentz import herm_from_vector, require_lorentz
from .seeding import _gaussian, rng_from_seed
from .states import SINGLET_COEFFS

MIN_TWIRL_SAMPLES = 1000
TWIRL_ABS_FLOOR = 1e-12
TWIRL_CHUNK = 4096

# permutation exchanging the two tensor factors; <psi-|F|psi-> = -1
SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
SWAP.setflags(write=False)

#: S_ij S_kl as a (2, 2, 2, 2) array, and its nonzero terms (i, j, k, l, S_ij S_kl) in C order
_S_OUTER = np.multiply.outer(SINGLET_COEFFS, SINGLET_COEFFS)
_SINGLET_TERMS = [(*ijkl, _S_OUTER[tuple(ijkl)]) for ijkl in np.argwhere(_S_OUTER).tolist()]

#: The 16 Pauli pairs (P_a, P_b), a major, as two contiguous (16, 2, 2) stacks made once: on
#: broadcast (4, 1) x (1, 4) views each of the correlator's ~36 small ufunc calls is 2-D
_PAULI_PAIRS = np.array(np.broadcast_arrays(PAULIS[:, None], PAULIS[None, :])).reshape(2, 16, 2, 2)
_PAULI_PAIRS.setflags(write=False)


def _check_observable(o, name: str) -> np.ndarray:
    """A Hermitian 2x2 observable, or a (..., 2, 2) stack of them checked element by element."""
    a = require_hermitian(o, what=name)
    if a.shape[-1] != 2:
        raise ValueError(f"{name} must be 2x2, got shape {a.shape}")
    return a


def singlet_correlation(o1, o2):
    """<psi-| o1 (x) o2 |psi-> on the normalized singlet, for Hermitian 2x2 inputs.

    The inputs may be broadcastable (..., 2, 2) stacks; the result then has
    their broadcast stack shape. With psi- = S / sqrt(2) held as its real,
    unscaled 2x2 coefficient matrix S, the value is 1/2 sum S_ij o1_ik o2_jl S_kl,
    summed in real arithmetic over the four (i, j, k, l) where S_ij S_kl != 0;
    on Pauli inputs every term is exact, so the Pauli table is exactly eta. A product
    past float64 gives inf or nan without a numpy warning, as the einsum form did.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _singlet_correlation(_check_observable(o1, "o1"), _check_observable(o2, "o2"))


def _singlet_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """singlet_correlation unchecked, for stacks Hermitian by construction. Term by term, in C
    order from 0.0, it adds the real part of each nonzero term of einsum("ij,...ik,...jl,kl"),
    exact as S_ij S_kl = +-1 only sets its sign, so it returns that einsum's sum bit for bit."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    total = 0.0
    for i, j, k, l, c in _SINGLET_TERMS:
        term = ar[..., i, k] * br[..., j, l] - ai[..., i, k] * bi[..., j, l]
        total = total + term if c > 0 else total - term
    return 0.5 * total


def polarized_determinant(o1, o2):
    """(det(o1 + o2) - det(o1) - det(o2)) / 2: the bilinear form whose diagonal is det.

    The inputs may be broadcastable (..., 2, 2) stacks, like singlet_correlation,
    each coerced and checked finite once. A sum or a determinant past float64
    gives inf or nan without a numpy warning, as singlet_correlation does.
    """
    a, b = _as_square_stack(o1), _as_square_stack(o2)
    if a.shape[-1] != 2 or b.shape[-1] != 2:
        raise ValueError(f"det is the 2x2 closed form, got shapes {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return (0.5 * (_det2(a + b) - _det2(a) - _det2(b))).real


def pauli_correlation_table() -> np.ndarray:
    """The 4x4 matrix of correlators between Pauli observables; diag(1,-1,-1,-1)."""
    return _singlet_correlation(*_PAULI_PAIRS).reshape(4, 4)


def haar_unitaries(rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of `count` Haar-distributed U(2) matrices (Ginibre QR with phase fix)."""
    if count < 1:
        raise ValueError("count must be positive")
    q, r = np.linalg.qr(_gaussian(rng, (count, 2, 2)) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=1, axis2=2)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def haar_twirl_mc(o1, o2, samples: int, rng_seed: int) -> dict:
    """Average (U(x)U)(o1(x)o2)(U(x)U)^dag over Haar samples and compare to chi*I - zeta*F.

    chi = t1*t2/3 - t12/6 and zeta = t1*t2/6 - t12/3, with t1 = Tr o1,
    t2 = Tr o2 and t12 = Tr(o1 o2), make chi*I - zeta*F the exact average.
    Returns the report's twirl block: the sample count, chi, zeta, the
    largest entrywise deviation of the mean from the closed form and the
    largest entrywise standard error of the mean; it forms no verdict. The
    CLI's twirl check passes when the deviation is within five standard
    errors plus TWIRL_ABS_FLOOR, so exactly invariant pairs are not failed on
    rounding noise. A pair too large for float64, whose chi, zeta or sums
    come out non-finite, raises ValueError.
    """
    samples = int(samples)
    if samples < MIN_TWIRL_SAMPLES:
        raise ValueError(f"need at least {MIN_TWIRL_SAMPLES} samples, got {samples}")
    # overflow is refused below by a finiteness check, not reported as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        a = _check_observable(as_matrix(o1), "o1")
        b = _check_observable(as_matrix(o2), "o2")
        t1 = np.trace(a).real
        t2 = np.trace(b).real
        t12 = np.trace(a @ b).real
        chi = float(t1 * t2 / 3.0 - t12 / 6.0)
        zeta = float(t1 * t2 / 6.0 - t12 / 3.0)
        if not np.isfinite([chi, zeta]).all():
            raise ValueError("o1 and o2 are too large to twirl: chi or zeta is not finite")
        target = chi * np.eye(4, dtype=complex) - zeta * SWAP

        pair = _kron_fold([a, b])
        rng = rng_from_seed(rng_seed)
        total = np.zeros((4, 4), dtype=complex)
        total_sq = np.zeros((4, 4))
        done = 0
        while done < samples:
            count = min(TWIRL_CHUNK, samples - done)
            u = haar_unitaries(rng, count)
            uu = np.einsum("nab,ncd->nacbd", u, u).reshape(count, 4, 4)
            conjugated = uu @ pair @ np.conj(np.swapaxes(uu, 1, 2))
            total += conjugated.sum(axis=0)
            total_sq += (np.abs(conjugated) ** 2).sum(axis=0)
            done += count
        if not (np.isfinite(total).all() and np.isfinite(total_sq).all()):
            raise ValueError("o1 and o2 are too large to twirl: the sample sums are not finite")

        mean = total / samples
        # entrywise variance of complex samples: E|z|^2 - |E z|^2
        variance = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
        return {
            "samples": samples,
            "chi": chi,
            "zeta": zeta,
            "max_abs_deviation": float(np.abs(mean - target).max()),
            "std_error": float(np.sqrt(variance / samples).max()),
        }


def correlator_deviations(lams: np.ndarray, trials, rng: np.random.Generator) -> np.ndarray:
    """Per map, the largest correlator change over random Hermitian pairs, as a (k,) array.

    ``lams``, a stack of maps on Pauli coordinates, passes require_lorentz: the
    one Minkowski-form check of a spin image. ``trials`` is one pair count for
    every map or k counts c_j. One rng.standard_normal((sum c_j, 2, 4)) draw
    holds all pairs, map j owning the c_j rows after those of maps 0..j-1; one
    gathered product moves them, and one correlator pass takes every pair before
    and after its map; so entry j is, bit for bit, the one-map call
    on lams[j:j+1] with c_j pairs made in turn on a twin generator: the max over
    its pairs of |C(o1,o2) - C(L o1, L o2)| / max(1, |C(o1,o2)|).
    """
    lams = require_lorentz(lams)
    counts = [int(c) for c in trials] if np.ndim(trials) else [int(trials)] * len(lams)
    if len(counts) != len(lams) or min(counts) < 1:
        raise ValueError(f"need one positive pair count per map, got {counts}")
    # (v1, v2) coordinate pairs, drawn 4-vector by 4-vector, map 0's rows first
    v = rng.standard_normal((sum(counts), 2, 4))
    moved = v @ np.repeat(np.swapaxes(lams, 1, 2), counts, axis=0)
    h = herm_from_vector(np.concatenate([v, moved]))
    # herm_from_vector output is Hermitian by construction; skip the public checks
    before, after = _singlet_correlation(h[:, 0], h[:, 1]).reshape(2, -1)
    rel = np.abs(before - after) / np.maximum(1.0, np.abs(before))
    return np.maximum.reduceat(rel, np.cumsum([0] + counts[:-1]))


def correlator_symmetry_check(lams: np.ndarray, trials, rng: np.random.Generator) -> float:
    """Largest correlator change under a stack of maps: the max of correlator_deviations."""
    return float(correlator_deviations(lams, trials, rng).max())
