"""SL(2,C) elements, their 4x4 Lorentz images, and the Minkowski form on Herm(2).

A Hermitian 2x2 matrix h = t*I + x*X + y*Y + z*Z is identified with the
4-vector (t, x, y, z); conjugation h -> L h L† by a unit-determinant L acts
on these coordinates as a restricted Lorentz transformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, PAULIS, as_matrix, det, require_hermitian
from .seeding import rng_from_seed

#: Minkowski metric in (t, x, y, z) coordinates.
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

SL2C_DET_TOL = 1e-10
ETA_TOL = 1e-9
MAX_RAPIDITY = 20.0


def _freeze(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MinkowskiVector:
    """Pauli-basis coordinates (t, x, y, z) of a 2x2 Hermitian matrix."""

    t: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, v) -> "MinkowskiVector":
        arr = np.asarray(v, dtype=float).reshape(-1)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 real coordinates, got shape {arr.shape}")
        return cls(*(float(c) for c in arr))


@dataclass(frozen=True)
class SL2C:
    """A 2x2 complex matrix with unit determinant."""

    m: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.m)
        if a.shape != (2, 2):
            raise ValueError(f"SL2C element must be 2x2, got {a.shape}")
        d = det(a)
        if abs(d - 1.0) > SL2C_DET_TOL:
            raise ContractError(f"determinant {d} deviates from 1 by more than {SL2C_DET_TOL:.1e}")
        object.__setattr__(self, "m", _freeze(a))

    def __matmul__(self, other: "SL2C") -> "SL2C":
        return SL2C(self.m @ other.m)

    def __neg__(self) -> "SL2C":
        return SL2C(-self.m)


@dataclass(frozen=True)
class LorentzMatrix4:
    """Real 4x4 matrix acting on (t, x, y, z) that preserves the Minkowski form."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (4, 4):
            raise ValueError(f"Lorentz matrix must be 4x4, got {a.shape}")
        defect = float(np.abs(a.T @ ETA @ a - ETA).max())
        if defect > ETA_TOL:
            raise ContractError(
                f"matrix does not preserve the Minkowski form: defect {defect:.3e} exceeds {ETA_TOL:.1e}"
            )
        object.__setattr__(self, "entries", _freeze(a))

    def apply(self, v: MinkowskiVector) -> MinkowskiVector:
        return MinkowskiVector.from_array(self.entries @ v.as_array())


def _vec4(v) -> np.ndarray:
    if isinstance(v, MinkowskiVector):
        return v.as_array()
    return MinkowskiVector.from_array(v).as_array()


def herm_from_vector(v) -> np.ndarray:
    """The Hermitian matrix t*I + x*X + y*Y + z*Z."""
    t, x, y, z = _vec4(v)
    return np.array([[t + z, x - 1j * y], [x + 1j * y, t - z]], dtype=complex)


def vector_from_herm(h, atol: float = 1e-10) -> MinkowskiVector:
    """Pauli coordinates of a Hermitian 2x2 matrix: t = Tr(h)/2, x = Tr(hX)/2, ..."""
    a = require_hermitian(h, atol=atol, what="observable")
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {a.shape}")
    t = 0.5 * np.trace(a).real
    x = 0.5 * np.trace(a @ PAULI_X).real
    y = 0.5 * np.trace(a @ PAULI_Y).real
    z = 0.5 * np.trace(a @ PAULI_Z).real
    return MinkowskiVector(float(t), float(x), float(y), float(z))


def minkowski_form(v) -> float:
    """The quadratic form t**2 - x**2 - y**2 - z**2."""
    t, x, y, z = _vec4(v)
    return float(t * t - x * x - y * y - z * z)


def spin_hom(lam: SL2C) -> LorentzMatrix4:
    """Image of an SL(2,C) element in the restricted Lorentz group.

    Entry (mu, nu) is 1/2 Re Tr(s_mu L s_nu L†) for s ranging over (I, X, Y, Z),
    so column nu holds the Pauli coordinates of L s_nu L† and the result maps
    the coordinates of h to those of L h L†.
    """
    lm = lam.m
    sigma = np.stack(PAULIS)
    traces = np.einsum("mab,bc,ncd,ad->mn", sigma, lm, sigma, lm.conj())
    out = LorentzMatrix4(0.5 * traces.real)
    d = float(np.linalg.det(out.entries))
    if abs(d - 1.0) > ETA_TOL or out.entries[0, 0] < 1.0 - ETA_TOL:
        raise ContractError(
            f"spin homomorphism image not restricted-orthochronous: det={d}, L00={out.entries[0, 0]}"
        )
    return out


def boost_z(rapidity: float) -> SL2C:
    """Pure boost along z: diag(exp(rapidity/2), exp(-rapidity/2))."""
    if abs(rapidity) > MAX_RAPIDITY:
        raise ValueError(f"|rapidity| {abs(rapidity)} exceeds conditioning guard {MAX_RAPIDITY}")
    half = 0.5 * rapidity
    return SL2C(np.diag([np.exp(half), np.exp(-half)]).astype(complex))


def rotation_z(theta: float) -> SL2C:
    """Rotation by theta about z: diag(exp(-i theta/2), exp(i theta/2))."""
    half = 0.5 * theta
    return SL2C(np.diag([np.exp(-1j * half), np.exp(1j * half)]))


def sample_sl2c(rng: np.random.Generator, max_rapidity: float = 2.0) -> SL2C:
    """Draw one SL(2,C) element from an existing generator (see random_sl2c)."""
    if not 0.0 < max_rapidity <= MAX_RAPIDITY:
        raise ValueError(f"max_rapidity must lie in (0, {MAX_RAPIDITY}]")
    while True:
        g = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
        d = det(g)
        if abs(d) >= 1e-6:
            break
    lam = g / np.sqrt(d)
    u, s, vh = np.linalg.svd(lam)
    if s[0] / s[1] > np.exp(max_rapidity):
        # det(u @ vh) is already 1, so rebuilding with unit-product singular
        # values keeps the determinant fixed.
        s = np.array([np.exp(0.5 * max_rapidity), np.exp(-0.5 * max_rapidity)])
        lam = (u * s) @ vh
    lam = lam / np.sqrt(det(lam))
    return SL2C(lam)


def random_sl2c(rng_seed: int, max_rapidity: float = 2.0) -> SL2C:
    """Deterministic random SL(2,C) element with bounded conditioning.

    A complex Gaussian matrix is normalized by a principal square root of its
    determinant, then its singular values are clamped (via the polar pieces of
    an SVD) so their ratio stays at or below exp(max_rapidity).
    """
    return sample_sl2c(rng_from_seed(rng_seed), max_rapidity=max_rapidity)
