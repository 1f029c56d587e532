"""SL(2,C) elements, their 4x4 Lorentz images, and the Minkowski form on Herm(2).

A Hermitian 2x2 matrix h = t*I + x*X + y*Y + z*Z is identified with the
4-vector (t, x, y, z), held as the last axis of a plain (..., 4) float array;
conjugation h -> L h L† by a unit-determinant L acts on these coordinates as
a restricted Lorentz transformation.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .linalg import PAULIS, det
from .seeding import rng_from_seed

#: Minkowski metric in (t, x, y, z) coordinates.
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

SL2C_DET_TOL = 1e-10
MAX_RAPIDITY = 20.0

#: c of the Minkowski tolerance c*eps*||L||_F^2 in require_lorentz; see there.
LORENTZ_TOL_FACTOR = 16.0
_EPS = np.finfo(float).eps

_SIGMA = np.stack(PAULIS)
_SIGMA.setflags(write=False)


def require_sl2c(m) -> np.ndarray:
    """Check a 2x2 complex matrix, or each of a (..., 2, 2) stack, for membership of SL(2,C).

    Returns the input as a complex array. Raises ValueError for any other
    shape, and ContractError naming the first failing element by its position
    in the flattened stack when an entry is non-finite or the determinant lies
    farther than SL2C_DET_TOL from 1 (so a unit-modulus phase times an element
    fails).
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"SL(2,C) elements must be 2x2, got shape {a.shape}")
    # a non-finite entry makes its element's determinant non-finite, so one test catches both
    with np.errstate(over="ignore", invalid="ignore"):
        d = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    bad = ~(np.abs(d - 1.0) <= SL2C_DET_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        where = f" {i}" if a.ndim > 2 else ""
        if not np.isfinite(a.reshape(-1, 2, 2)[i]).all():
            raise ContractError(f"SL(2,C) element{where} has non-finite entries")
        raise ContractError(
            f"SL(2,C) element{where} has determinant {d.flat[i]}, "
            f"not within {SL2C_DET_TOL:.1e} of 1"
        )
    return a


def require_lorentz(a: np.ndarray, restricted: bool = False) -> None:
    """Check that every matrix of a real (k, 4, 4) stack preserves the Minkowski form.

    With ``restricted``, each must also lie in the identity component SO+(1,3):
    det = 1 and L00 >= 1. Raises ContractError naming the first failing map by
    its position. Non-finite entries fail, and every test is written so that
    a NaN fails it.

    Each test allows c*eps*||L||_F^2 with c = LORENTZ_TOL_FACTOR: rounding in
    L^T eta L, in det L (whose condition number is ||L||_2^2, as
    L^-1 = eta L^T eta) and in L00 scales with ||L||_2^2 <= ||L||_F^2. The
    worst measured values are 1.2 (form) and 2.2 (det) in units of
    eps*||L||_F^2, over the spin images of boost_z at rapidity 0..20 and of
    6000 sample_sl2c draws at max rapidity 2, 8 and 20; the rapidity-1 boost
    scaled by 1.01 reads 9e12 and diag(1, 1, 1, 2) 6e14. A form whose scale
    overflows fails.
    """
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise ContractError(f"map {int(np.argmin(finite))} has non-finite entries")
    # finite entries can still overflow to inf - inf = NaN, which the tests below fail
    with np.errstate(over="ignore", invalid="ignore"):
        tol = LORENTZ_TOL_FACTOR * _EPS * (a * a).sum(axis=(1, 2))
        defect = np.abs(np.swapaxes(a, 1, 2) @ ETA @ a - ETA).max(axis=(1, 2))
    bad = ~(defect <= tol) | ~np.isfinite(tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(
            f"map {i} does not preserve the Minkowski form: "
            f"defect {defect[i]:.3e} exceeds {tol[i]:.1e}"
        )
    if restricted:
        d = np.linalg.det(a)
        bad = ~(np.abs(d - 1.0) <= tol) | ~(a[:, 0, 0] >= 1.0 - tol)
        if bad.any():
            i = int(np.argmax(bad))
            raise ContractError(
                f"map {i} is not restricted-orthochronous: det={d[i]}, L00={a[i, 0, 0]}"
            )


def herm_from_vector(v) -> np.ndarray:
    """The Hermitian matrices t*I + x*X + y*Y + z*Z of a (..., 4) coordinate array, as (..., 2, 2)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 4:
        raise ValueError(f"expected 4 real coordinates on the last axis, got shape {v.shape}")
    t, x, iy, z = v[..., 0], v[..., 1], 1j * v[..., 2], v[..., 3]
    out = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = t + z, x - iy, x + iy, t - z
    return out


def spin_images(m: np.ndarray) -> np.ndarray:
    """Restricted Lorentz images of a (k, 2, 2) stack of SL(2,C) matrices, as (k, 4, 4).

    Entry (mu, nu) of image k is 1/2 Re Tr(s_mu L_k s_nu L_k†) for s ranging
    over (I, X, Y, Z), so column nu holds the Pauli coordinates of
    L_k s_nu L_k† and the image maps the coordinates of h to those of
    L_k h L_k†. Every image is checked by require_lorentz(restricted=True),
    which names a failing image by its position.
    """
    traces = np.einsum("mab,kbc,ncd,kad->kmn", _SIGMA, m, _SIGMA, m.conj())
    out = 0.5 * traces.real
    require_lorentz(out, restricted=True)
    return out


def spin_hom(lam) -> np.ndarray:
    """The 4x4 image of one SL(2,C) element, checked by require_sl2c: spin_images of it."""
    return spin_images(require_sl2c(lam)[None])[0]


def boosts_z(rapidities) -> np.ndarray:
    """Pure boosts along z, diag(exp(r/2), exp(-r/2)), as a (k, 2, 2) stack."""
    r = np.asarray(rapidities, dtype=float)
    over = ~(np.abs(r) <= MAX_RAPIDITY)
    if over.any():
        bad = abs(float(r[np.argmax(over)]))
        raise ValueError(f"|rapidity| {bad} exceeds conditioning guard {MAX_RAPIDITY}")
    half = 0.5 * r
    out = np.zeros(r.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(half)
    out[..., 1, 1] = np.exp(-half)
    return out


def rotations_z(thetas) -> np.ndarray:
    """Rotations about z, diag(exp(-i theta/2), exp(i theta/2)), as a (k, 2, 2) stack."""
    t = np.asarray(thetas, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"rotation angle {t[~np.isfinite(t)].flat[0]} is not finite")
    half = 0.5 * t
    out = np.zeros(half.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * half)
    out[..., 1, 1] = np.exp(1j * half)
    return out


def boost_z(rapidity: float) -> np.ndarray:
    """Pure boost along z: the one element of boosts_z([rapidity])."""
    return boosts_z([rapidity])[0]


def rotation_z(theta: float) -> np.ndarray:
    """Rotation by theta about z: the one element of rotations_z([theta])."""
    return rotations_z([theta])[0]


def sample_sl2c_stack(rng: np.random.Generator, k: int, max_rapidity: float = 2.0) -> np.ndarray:
    """k sample_sl2c draws from ``rng``, bit for bit, as a (k, 2, 2) stack (see random_sl2c)."""
    if not 0.0 < max_rapidity <= MAX_RAPIDITY:
        raise ValueError(f"max_rapidity must lie in (0, {MAX_RAPIDITY}]")
    # element i takes the next (real, imaginary) block pair with |det| >= 1e-6, as draws in turn do
    g = np.empty((0, 2, 2), dtype=complex)
    while len(g) < k:
        z = rng.standard_normal((k - len(g), 2, 2, 2))
        new = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
        g = np.concatenate([g, new[np.abs(det(new)) >= 1e-6]])
    lam = g / np.sqrt(det(g))[:, None, None]
    u, s, vh = np.linalg.svd(lam)
    clamp = s[:, 0] / s[:, 1] > np.exp(max_rapidity)
    # det(u @ vh) is already 1: unit-product singular values keep the determinant fixed
    s = np.array([np.exp(0.5 * max_rapidity), np.exp(-0.5 * max_rapidity)])
    lam[clamp] = (u[clamp] * s) @ vh[clamp]
    lam = lam / np.sqrt(det(lam))[:, None, None]
    return require_sl2c(lam)


def sample_sl2c(rng: np.random.Generator, max_rapidity: float = 2.0) -> np.ndarray:
    """Draw one SL(2,C) element, as a 2x2 array: the one element of sample_sl2c_stack(rng, 1)."""
    return sample_sl2c_stack(rng, 1, max_rapidity)[0]


def random_sl2c(rng_seed: int, max_rapidity: float = 2.0) -> np.ndarray:
    """Deterministic random SL(2,C) element with bounded conditioning.

    A complex Gaussian matrix is normalized by a principal square root of its
    determinant, then its singular values are clamped (via the polar pieces of
    an SVD) so their ratio stays at or below exp(max_rapidity).
    """
    return sample_sl2c(rng_from_seed(rng_seed), max_rapidity=max_rapidity)
