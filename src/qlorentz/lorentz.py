"""SL(2,C) elements, their 4x4 Lorentz images, and the Minkowski form on Herm(2).

A Hermitian 2x2 matrix h = t*I + x*X + y*Y + z*Z is identified with the
4-vector (t, x, y, z), held as the last axis of a plain (..., 4) float array;
conjugation h -> L h L† by a unit-determinant L acts on these coordinates as
a restricted Lorentz transformation.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .linalg import PAULIS, _det2
from .seeding import rng_from_seed

#: Minkowski metric in (t, x, y, z) coordinates.
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

MAX_RAPIDITY = 20.0

#: c of the Minkowski tolerance c*eps*||L||_F^2 in require_lorentz; see there.
LORENTZ_TOL_FACTOR = 16.0
#: c of the determinant tolerance c*eps*||L||_F^2 in require_sl2c; see there.
SL2C_TOL_FACTOR = 8.0
_EPS = np.finfo(float).eps


def require_sl2c(m) -> np.ndarray:
    """Check a 2x2 complex matrix, or each of a (..., 2, 2) stack, for membership of SL(2,C).

    Returns the input as a complex array. Raises ValueError for any other
    shape, and ContractError naming the first failing element by its position
    in the flattened stack when an entry is non-finite, the scale overflows, or
    |det L - 1| exceeds c*eps*||L||_F^2, c = SL2C_TOL_FACTOR: the scale of det's
    rounding, on which sample_sl2c_stack draws read at most 1.4. At c = 8 every
    admitted element's spin image passes require_lorentz; a phase times L fails.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"SL(2,C) elements must be 2x2, got shape {a.shape}")
    # a non-finite entry makes its element's determinant non-finite, so one test catches both
    with np.errstate(over="ignore", invalid="ignore"):
        d = _det2(a)
        tol = SL2C_TOL_FACTOR * _EPS * (np.abs(a) ** 2).sum(axis=(-2, -1))
    bad = ~(np.abs(d - 1.0) <= tol) | np.isinf(tol)
    if bad.any():
        i = int(np.argmax(bad))
        where = f" {i}" if a.ndim > 2 else ""
        if not np.isfinite(a.reshape(-1, 2, 2)[i]).all():
            raise ContractError(f"SL(2,C) element{where} has non-finite entries")
        raise ContractError(
            f"SL(2,C) element{where} has determinant {d.flat[i]}, "
            f"not within {tol.flat[i]:.1e} of 1"
        )
    return a


def require_lorentz(a) -> np.ndarray:
    """The one gate for a map stack: check it and return it as a float (k, 4, 4) array.

    ValueError unless it is a non-empty real (k, 4, 4) stack (a complex one fails even with
    zero imaginary parts, which a float cast would drop); ContractError, naming the first
    failing map, unless every map is finite and preserves the Minkowski form, a test that a
    NaN fails. Parity, time reversal and PT pass: the check asks for no component.

    The test allows c*eps*||L||_F^2 with c = LORENTZ_TOL_FACTOR: rounding in
    L^T eta L scales with ||L||_2^2 <= ||L||_F^2. The worst measured value is
    1.2 in units of eps*||L||_F^2, over the spin images of boost_z at rapidity
    0..20 and of 6000 sample_sl2c draws at max rapidity 2, 8 and 20; the
    rapidity-1 boost scaled by 1.01 reads 9e12 and diag(1, 1, 1, 2) 6e14. A
    form whose scale overflows fails.
    """
    if np.shape(a)[1:] != (4, 4):
        raise ValueError(f"maps must be a (k, 4, 4) stack, got shape {np.shape(a)}")
    if np.iscomplexobj(a):
        raise ValueError("maps must be real; got a complex stack")
    a = np.asarray(a, dtype=float)
    if not len(a):
        raise ValueError("need at least one map")
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise ContractError(f"map {int(np.argmin(finite))} has non-finite entries")
    # finite entries can still overflow to inf - inf = NaN, which the test below fails
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
    return a


def herm_from_vector(v) -> np.ndarray:
    """The Hermitian matrices t*I + x*X + y*Y + z*Z of a (..., 4) coordinate array, as (..., 2, 2)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 4:
        raise ValueError(f"expected 4 real coordinates on the last axis, got shape {v.shape}")
    t, x, iy, z = v[..., 0], v[..., 1], 1j * v[..., 2], v[..., 3]
    out = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = t + z, x - iy, x + iy, t - z
    return out


def spin_images(m) -> np.ndarray:
    """Lorentz images of a (k, 2, 2) stack of SL(2,C) matrices, as (k, 4, 4).

    The stack is checked by require_sl2c, which names a failing element by
    its position. Entry (mu, nu) of image k is 1/2 Re Tr(s_mu L_k s_nu L_k†)
    for s ranging over (I, X, Y, Z), so column nu holds the Pauli coordinates
    of L_k s_nu L_k† and the image maps the coordinates of h to those of
    L_k h L_k†. Each image lies in SO+(1,3), as SL(2,C) is connected; the
    images are returned unchecked.
    """
    m = require_sl2c(m)
    traces = np.einsum("mab,kbc,ncd,kad->kmn", PAULIS, m, PAULIS, m.conj())
    return 0.5 * traces.real


def spin_hom(lam) -> np.ndarray:
    """The 4x4 image of one SL(2,C) element: spin_images of a one-element stack."""
    return spin_images(np.asarray(lam)[None])[0]


def boosts_z(rapidities) -> np.ndarray:
    """Pure boosts along z, diag(exp(r/2), exp(-r/2)), as a (k, 2, 2) stack."""
    r = np.asarray(rapidities, dtype=float)
    over = ~(np.abs(r) <= MAX_RAPIDITY)
    if over.any():
        bad = abs(float(r[over].flat[0]))
        raise ValueError(f"|rapidity| {bad} exceeds conditioning guard {MAX_RAPIDITY}")
    return _diag_exp(0.5 * r)


def rotations_z(thetas) -> np.ndarray:
    """Rotations about z, diag(exp(-i theta/2), exp(i theta/2)), as a (k, 2, 2) stack."""
    t = np.asarray(thetas, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"rotation angle {t[~np.isfinite(t)].flat[0]} is not finite")
    return _diag_exp(-1j * (0.5 * t))


def _diag_exp(z) -> np.ndarray:
    """diag(exp(z), exp(-z)) for each entry of z, as a (..., 2, 2) complex stack."""
    out = np.zeros(np.shape(z) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(z), np.exp(-z)
    return out


def boost_z(rapidity: float) -> np.ndarray:
    """Pure boost along z: the one element of boosts_z([rapidity])."""
    return boosts_z([rapidity])[0]


def rotation_z(theta: float) -> np.ndarray:
    """Rotation by theta about z: the one element of rotations_z([theta])."""
    return rotations_z([theta])[0]


def sample_sl2c_stack(rng: np.random.Generator, k: int, max_rapidity: float = 2.0) -> np.ndarray:
    """k sample_sl2c draws from ``rng``, bit for bit, as a (k, 2, 2) stack (see random_sl2c).

    The stack is returned unchecked: apply_local and spin_images check it where it enters.
    """
    if not 0.0 < max_rapidity <= MAX_RAPIDITY:
        raise ValueError(f"max_rapidity must lie in (0, {MAX_RAPIDITY}]")
    # element i takes the next (real, imaginary) block pair with |det| >= 1e-6, as draws in turn do
    g = np.empty((0, 2, 2), dtype=complex)
    while len(g) < k:
        z = rng.standard_normal((k - len(g), 2, 2, 2))
        new = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
        g = np.concatenate([g, new[np.abs(_det2(new)) >= 1e-6]])
    lam = g / np.sqrt(_det2(g))[:, None, None]
    u, s, vh = np.linalg.svd(lam)
    clamp = s[:, 0] / s[:, 1] > np.exp(max_rapidity)
    # det(u @ vh) is already 1: unit-product singular values keep the determinant fixed
    s = np.array([np.exp(0.5 * max_rapidity), np.exp(-0.5 * max_rapidity)])
    lam[clamp] = (u[clamp] * s) @ vh[clamp]
    return lam / np.sqrt(_det2(lam))[:, None, None]


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
