"""Pauli coordinates, SL(2,C) samples, and the map onto restricted Lorentz matrices."""

import numpy as np
import pytest

from qlorentz import ContractError, boost_z, random_sl2c, spin_hom
from qlorentz.correlation import correlator_deviations
from qlorentz.linalg import PAULIS, det
from qlorentz.lorentz import (
    ETA,
    SL2C_TOL_FACTOR,
    boosts_z,
    herm_from_vector,
    require_lorentz,
    require_sl2c,
    rotation_z,
    rotations_z,
    sample_sl2c,
    sample_sl2c_stack,
    spin_images,
)
from qlorentz.seeding import rng_from_seed, split_seed


def test_herm_from_vector_frozen():
    h = herm_from_vector([1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(h, np.diag([2.0, 0.0]), atol=0)
    h = herm_from_vector([0.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(h, np.array([[0, 1], [1, 0]]), atol=0)


def test_vector_herm_round_trip():
    # the coordinates come back as 1/2 Tr(h s_mu) over the Pauli basis
    rng = np.random.default_rng(21)
    for trial in range(30):
        v = rng.standard_normal(4)
        w = 0.5 * np.einsum("ab,mba->m", herm_from_vector(v), np.stack(PAULIS)).real
        np.testing.assert_allclose(w, v, atol=1e-14)


def test_minkowski_quadratic_form_values_and_determinant_link():
    v = np.array([2.0, 1.0, 1.0, 1.0])
    assert v @ ETA @ v == 1.0
    rng = np.random.default_rng(22)
    for trial in range(30):
        v = rng.standard_normal(4)
        h = herm_from_vector(v)
        assert abs(v @ ETA @ v - np.linalg.det(h).real) < 1e-12


def test_minkowski_vector_array_round_trip():
    # a (..., 4) stack maps to the (..., 2, 2) stack of its single-vector images
    v = np.random.default_rng(28).standard_normal((5, 3, 4))
    h = herm_from_vector(v)
    assert h.shape == (5, 3, 2, 2)
    for i in range(5):
        for j in range(3):
            np.testing.assert_array_equal(h[i, j], herm_from_vector(v[i, j]))
    with pytest.raises(ValueError):
        herm_from_vector([1.0, 2.0, 3.0])


def _herm_stack_formula(v):
    """herm_from_vector as a stack of the four entry arrays, the formula it replaces."""
    t, x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    return np.stack([t + z, x - 1j * y, x + 1j * y, t - z], axis=-1).reshape(np.shape(v)[:-1] + (2, 2))


def test_herm_from_vector_bytes_match_the_stack_formula():
    # signed zeros, subnormals and large coordinates, each in every slot, and Gaussian stacks
    special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7e308, -1.7e308, 1.5, -2.25]
    rng = np.random.default_rng(29)
    inputs = [
        np.array(special[:4]),
        rng.choice(special, size=(64, 4)),
        rng.choice(special, size=(32, 2, 4)),
        rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-300, 300, (7, 4)),
        rng.standard_normal((105, 2, 4)),
        [1, 2, 3, 4],
    ]
    with np.errstate(over="ignore"):  # t + z overflows for the largest pairs, in both
        for v in inputs:
            h = herm_from_vector(v)
            expected = _herm_stack_formula(v)
            assert h.shape == expected.shape and h.dtype == expected.dtype
            assert h.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], 1.0, np.zeros((3, 5)), np.zeros((2, 4, 3))])
def test_herm_from_vector_rejects_a_last_axis_other_than_four(bad):
    with pytest.raises(ValueError, match="expected 4 real coordinates on the last axis"):
        herm_from_vector(bad)


#: require_sl2c's tolerance c*eps*||L||_F^2 at diag(a, 1) with a ~ 1, where ||L||_F^2 ~ 2
_DET_TOL_DIAG = SL2C_TOL_FACTOR * np.finfo(float).eps * 2.0


def test_sl2c_rejects_wrong_determinant():
    assert require_sl2c(np.eye(2)).dtype == complex
    with pytest.raises(ContractError, match="determinant"):
        require_sl2c(2.0 * np.eye(2))
    with pytest.raises(ValueError):
        require_sl2c(np.eye(3))
    with pytest.raises(ValueError):
        require_sl2c(np.ones((2, 3)))
    # |det| = 1 is not enough: a unit-modulus phase times an element has det e^{2i phi}
    lam = random_sl2c(31, 2.0)
    require_sl2c(lam)
    with pytest.raises(ContractError, match="determinant"):
        require_sl2c(np.exp(0.3j) * lam)
    # at 0.5x and 2x of the determinant tolerance c*eps*||L||_F^2, ||diag(a, 1)||_F^2 ~ 2
    require_sl2c(np.diag([1.0 + 0.5 * _DET_TOL_DIAG, 1.0]))
    with pytest.raises(ContractError, match="determinant"):
        require_sl2c(np.diag([1.0 + 2.0 * _DET_TOL_DIAG, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_sl2c_rejects_non_finite_entries(bad):
    a = np.eye(2, dtype=complex)
    a[0, 1] = bad
    with pytest.raises(ContractError, match="non-finite"):
        require_sl2c(a)


def test_require_sl2c_names_the_failing_element():
    stack = boosts_z(np.linspace(-1.0, 1.0, 5))
    assert np.array_equal(require_sl2c(stack), stack)
    bad = stack.copy()
    bad[3] = 2.0 * np.eye(2)
    with pytest.raises(ContractError, match="element 3 has determinant"):
        require_sl2c(bad)
    bad[1, 0, 0] = np.inf
    with pytest.raises(ContractError, match="element 1 has non-finite"):
        require_sl2c(bad)
    # finite entries whose determinant overflows fail without a warning
    bad = stack.copy()
    bad[2] = [[1e200, 0.0], [0.0, 1e200]]
    with pytest.raises(ContractError, match=r"element 2 has determinant \(inf"):
        require_sl2c(bad)
    # so does a unit determinant whose scale ||L||_F^2 overflows: its tolerance would be infinite
    bad[2] = [[1e160, 0.0], [0.0, 1e-160]]
    with pytest.raises(ContractError, match="element 2 has determinant"):
        require_sl2c(bad)
    # at 0.5x and 2x of the tolerance, element by element
    bad = stack.copy()
    bad[4] = np.diag([1.0 + 0.5 * _DET_TOL_DIAG, 1.0])
    require_sl2c(bad)
    bad[4] = np.diag([1.0 + 2.0 * _DET_TOL_DIAG, 1.0])
    with pytest.raises(ContractError, match="element 4 has determinant"):
        require_sl2c(bad)


def test_boost_and_rotation_generators():
    np.testing.assert_allclose(boost_z(0.0), np.eye(2), atol=0)
    # the double cover: a full turn lands on minus the identity
    np.testing.assert_allclose(rotation_z(2.0 * np.pi), -np.eye(2), atol=1e-15)
    with pytest.raises(ValueError):
        boost_z(25.0)


def test_spin_hom_boost_closed_form():
    for eta in (0.5, 1.0, 2.0):
        ch, sh = np.cosh(eta), np.sinh(eta)
        expected = np.array(
            [
                [ch, 0, 0, sh],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [sh, 0, 0, ch],
            ]
        )
        np.testing.assert_allclose(spin_hom(boost_z(eta)), expected, atol=1e-10)


def test_spin_hom_rotation_closed_form():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, c, -s, 0],
            [0, s, c, 0],
            [0, 0, 0, 1],
        ]
    )
    np.testing.assert_allclose(spin_hom(rotation_z(theta)), expected, atol=1e-12)


def test_spin_hom_is_a_homomorphism():
    for trial in range(50):
        a = random_sl2c(split_seed(23, 2 * trial), 2.0)
        b = random_sl2c(split_seed(23, 2 * trial + 1), 2.0)
        lhs = spin_hom(a @ b)
        rhs = spin_hom(a) @ spin_hom(b)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_spin_hom_kernel_is_sign():
    lam = random_sl2c(99, 1.5)
    np.testing.assert_allclose(spin_hom(-lam), spin_hom(lam), atol=1e-12)


def test_spin_hom_checks_its_element():
    # require_sl2c is the one check: an element within its determinant
    # tolerance gets its image, and that image passes require_lorentz
    a = 1.0 + 0.5 * _DET_TOL_DIAG
    c, s = 0.5 * (a * a + 1.0), 0.5 * (a * a - 1.0)
    expected = np.array([[c, 0, 0, s], [0, a, 0, 0], [0, 0, a, 0], [s, 0, 0, c]])
    np.testing.assert_allclose(spin_hom(np.diag([a, 1.0])), expected, rtol=0, atol=1e-15)
    require_lorentz(spin_hom(np.diag([a, 1.0]))[None])
    with pytest.raises(ContractError, match="determinant"):
        spin_hom(np.diag([1.0 + 2.0 * _DET_TOL_DIAG, 1.0]))
    # the phase e^{i pi/4} has the same image as 1, but is not in SL(2,C)
    with pytest.raises(ContractError, match="determinant"):
        spin_hom(np.exp(0.25j * np.pi) * np.eye(2))
    with pytest.raises(ContractError, match="determinant"):
        spin_hom(np.diag([2.0, 1.0]))
    with pytest.raises(ContractError, match="non-finite"):
        spin_hom(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_require_sl2c_admits_sampled_elements_boosts_and_rotations():
    # in units of eps*||L||_F^2, sampled draws read at most about 1.4 and z
    # boosts and rotations at most 0.5, against SL2C_TOL_FACTOR = 8
    rng = rng_from_seed(35)
    for max_rapidity in (2.0, 8.0, 20.0):
        require_sl2c(sample_sl2c_stack(rng, 20_000, max_rapidity))
    require_sl2c(boosts_z(np.linspace(-20.0, 20.0, 401)))
    require_sl2c(rotations_z(np.linspace(0.0, 4.0 * np.pi, 401)))


def test_require_sl2c_admits_only_elements_whose_images_require_lorentz_admits():
    # elements moved onto the determinant tolerance, on either side of 1, and
    # kept where rounding leaves them inside it: their spin images read up to
    # about 9 of require_lorentz's 16 (at a factor of 16 they would read up to
    # about 17, and be refused)
    rng = rng_from_seed(36)
    eps = np.finfo(float).eps
    for max_rapidity in (2.0, 8.0, 20.0):
        stack = sample_sl2c_stack(rng, 2000, max_rapidity)
        tol = SL2C_TOL_FACTOR * eps * (np.abs(stack) ** 2).sum(axis=(1, 2))
        for sign in (1.0, -1.0):
            edge = stack * np.sqrt(1.0 + sign * tol)[:, None, None]
            edge_tol = SL2C_TOL_FACTOR * eps * (np.abs(edge) ** 2).sum(axis=(1, 2))
            inside = np.abs(det(edge) - 1.0) <= edge_tol
            assert inside.sum() > 500
            require_lorentz(spin_images(edge[inside]))


def test_spin_images_refuses_an_element_whose_image_require_lorentz_refuses():
    # negative control: diag(1 + 5e-11, 1) reads 1.1e5 in units of
    # eps*||L||_F^2; an absolute 1e-10 determinant tolerance admitted it, and
    # its image then failed the Minkowski check inside correlator_deviations
    with pytest.raises(ContractError, match="has determinant"):
        correlator_deviations(spin_images(np.diag([1.0 + 5e-11, 1.0])[None]), 1, rng_from_seed(37))


def test_spin_hom_images_are_restricted_lorentz():
    for trial in range(50):
        lam = random_sl2c(split_seed(24, trial), 2.0)
        img = spin_hom(lam)
        defect = np.abs(img.T @ ETA @ img - ETA).max()
        assert defect < 1e-9
        assert abs(np.linalg.det(img) - 1.0) < 1e-9
        assert img[0, 0] >= 1.0 - 1e-9


def test_spin_hom_moves_vectors_like_conjugation():
    rng = np.random.default_rng(25)
    for trial in range(20):
        lam = random_sl2c(split_seed(26, trial), 2.0)
        img = spin_hom(lam)
        v = rng.standard_normal(4)
        w = img @ v
        direct = lam @ herm_from_vector(v) @ lam.conj().T
        assert np.abs(direct - herm_from_vector(w)).max() < 1e-10
        assert abs(w @ ETA @ w - v @ ETA @ v) < 1e-10


def test_lorentz_matrix_rejects_eta_violation():
    with pytest.raises(ContractError):
        require_lorentz(np.diag([1.0, 1.0, 1.0, 2.0])[None])


def test_sample_sl2c_respects_rapidity_clamp():
    for trial in range(50):
        lam = sample_sl2c(rng_from_seed(split_seed(27, trial)), 2.0)
        s = np.linalg.svd(lam, compute_uv=False)
        assert s[0] / s[1] <= np.exp(2.0) * (1.0 + 1e-12)
        assert abs(np.linalg.det(lam) - 1.0) < 1e-10


def test_sample_sl2c_argument_guard():
    with pytest.raises(ValueError):
        sample_sl2c(rng_from_seed(1), 0.0)
    with pytest.raises(ValueError):
        sample_sl2c(rng_from_seed(1), 50.0)


def reference_sl2c(rng, max_rapidity):
    """One draw by the documented per-element recipe: normalize, clamp, renormalize."""
    while True:
        g = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
        d = det(g)
        if abs(d) >= 1e-6:
            break
    lam = g / np.sqrt(d)
    u, s, vh = np.linalg.svd(lam)
    if s[0] / s[1] > np.exp(max_rapidity):
        lam = (u * [np.exp(0.5 * max_rapidity), np.exp(-0.5 * max_rapidity)]) @ vh
    return lam / np.sqrt(det(lam))


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("max_rapidity", [0.3, 2.0, 20.0])
def test_sample_sl2c_stack_is_sequential_draws_bit_for_bit(k, max_rapidity):
    clamped = 0
    for seed in range(40):
        stack = sample_sl2c_stack(rng_from_seed(split_seed(28, seed)), k, max_rapidity)
        rng = rng_from_seed(split_seed(28, seed))
        assert stack.shape == (k, 2, 2)
        assert stack.tobytes() == np.stack([sample_sl2c(rng, max_rapidity) for _ in range(k)]).tobytes()
        rng = rng_from_seed(split_seed(28, seed))
        reference = np.stack([reference_sl2c(rng, max_rapidity) for _ in range(k)])
        assert stack.tobytes() == reference.tobytes(), seed
        s = np.linalg.svd(stack, compute_uv=False)
        clamped += int(np.sum(s[:, 0] / s[:, 1] > np.exp(max_rapidity) * (1.0 - 1e-9)))
    # the clamp branch is exercised wherever it can bind
    assert clamped > 0 or max_rapidity == 20.0


class ScriptedNormals:
    """A generator stand-in that serves standard normals from a fixed flat stream, in order."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        out = self.values[self.used : self.used + size].reshape(shape)
        self.used += size
        return out


def test_sample_sl2c_stack_skips_a_singular_draw_in_stream_order():
    # the second block pair is singular (all zeros): element 1 takes the third pair, and so on
    stream = rng_from_seed(29).standard_normal(8 * 5)
    stream[8:16] = 0.0
    stack = sample_sl2c_stack(ScriptedNormals(stream), 4)
    sequential = ScriptedNormals(stream)
    assert stack.tobytes() == np.stack([sample_sl2c(sequential, 2.0) for _ in range(4)]).tobytes()
    reference = ScriptedNormals(stream)
    assert stack.tobytes() == np.stack([reference_sl2c(reference, 2.0) for _ in range(4)]).tobytes()
    assert reference.used == sequential.used == 8 * 5


def test_sample_sl2c_stack_argument_guard():
    with pytest.raises(ValueError):
        sample_sl2c_stack(rng_from_seed(1), 3, 0.0)
    with pytest.raises(ValueError):
        sample_sl2c_stack(rng_from_seed(1), 3, 50.0)
    assert sample_sl2c_stack(rng_from_seed(1), 0).shape == (0, 2, 2)


def test_random_sl2c_deterministic_per_seed():
    a = random_sl2c(314, 2.0)
    b = random_sl2c(314, 2.0)
    np.testing.assert_allclose(a, b, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lorentz_matrix_rejects_non_finite_entries(bad):
    a = np.eye(4)
    a[2, 1] = bad
    with pytest.raises(ContractError, match="non-finite"):
        require_lorentz(a[None])


def test_lorentz_matrix_rejects_overflowing_form():
    # finite entries whose form overflows: (a^T eta a)_00 = 1e400 - 1e400 comes
    # out inf or NaN with the summation order; both must fail, without a warning
    a = np.eye(4)
    a[0, 0] = a[1, 0] = 1e200
    with pytest.raises(ContractError, match="Minkowski form"):
        require_lorentz(a[None])


def test_spin_images_stack_matches_spin_hom_bit_for_bit():
    rng = rng_from_seed(28)
    lams = [boost_z(float(rng.uniform(-2.0, 2.0))) for _ in range(5)]
    lams += [rotation_z(float(rng.uniform(0.0, 2.0 * np.pi))) for _ in range(5)]
    lams += [sample_sl2c(rng, 2.0) for _ in range(5)]
    images = spin_images(np.stack(lams))
    for lam, image in zip(lams, images):
        assert np.array_equal(image, spin_hom(lam))


def test_require_lorentz_names_the_failing_map():
    stretch = np.diag([1.0, 1.0, 1.0, 2.0])
    with pytest.raises(ContractError, match="map 2 does not preserve"):
        require_lorentz(np.stack([np.eye(4), ETA, stretch, np.eye(4)]))
    with pytest.raises(ContractError, match="map 7 does not preserve"):
        require_lorentz(np.stack([np.eye(4)] * 7 + [stretch, np.eye(4)]))
    # parity P = ETA (det -1), time reversal T (det -1, L00 = -1) and PT = -I
    # (L00 = -1) preserve the form: all three components outside SO+(1,3) pass
    time_reversal = np.diag([-1.0, 1.0, 1.0, 1.0])
    require_lorentz(np.stack([np.eye(4), ETA, time_reversal, -np.eye(4)]))


@pytest.mark.parametrize("rapidity", [8.5, 12.0, 20.0])
def test_spin_hom_accepts_large_boosts(rapidity):
    # the defect of L^T eta L is rounding of size eps*cosh(r)^2, which an
    # absolute tolerance of 1e-9 rejected from r = 8.5 up
    image = spin_hom(boost_z(rapidity))
    assert image[0, 0] == pytest.approx(np.cosh(rapidity), rel=1e-12)


@pytest.mark.parametrize("rapidity", [1.0, 12.0])
def test_require_lorentz_rejects_a_scaled_boost(rapidity):
    # negative control for the c*eps*||L||_F^2 tolerance: a 1% scale moves
    # L^T eta L by 0.02, far outside it (at r = 20 the form's own rounding,
    # about eps*cosh(20)^2 = 13, is larger than that move, and no float64
    # check can see it)
    image = spin_hom(boost_z(rapidity))
    with pytest.raises(ContractError, match="map 1 does not preserve"):
        require_lorentz(np.stack([image, 1.01 * image]))
    with pytest.raises(ContractError, match="map 1 does not preserve"):
        require_lorentz(np.stack([image, np.diag([1.0, 1.0, 1.0, 2.0])]))


def test_boost_and_rotation_stacks_match_the_single_maps_bit_for_bit():
    # one uniform(size=k) call is the stream of k scalar draws, and each stack
    # element is the boost_z/rotation_z matrix, so are their spin images
    k = 12
    draws = rng_from_seed(29)
    rapidities = draws.uniform(-2.0, 2.0, size=k)
    angles = draws.uniform(0.0, 2.0 * np.pi, size=k)
    scalar = rng_from_seed(29)
    r_scalar = [float(scalar.uniform(-2.0, 2.0)) for _ in range(k)]
    t_scalar = [float(scalar.uniform(0.0, 2.0 * np.pi)) for _ in range(k)]
    assert rapidities.tolist() == r_scalar and angles.tolist() == t_scalar
    stack = np.concatenate([boosts_z(rapidities), rotations_z(angles)])
    singles = [boost_z(r) for r in r_scalar] + [rotation_z(t) for t in t_scalar]
    images = spin_images(stack)
    for m, image, lam in zip(stack, images, singles):
        assert np.array_equal(m, lam)
        assert np.array_equal(image, spin_hom(lam))


def test_boosts_z_keeps_the_rapidity_guard():
    boosts_z([-20.0, 20.0])
    with pytest.raises(ValueError, match="conditioning guard"):
        boosts_z([0.5, -20.5])
    with pytest.raises(ValueError, match="conditioning guard"):
        boost_z(20.5)
    # a NaN rapidity fails the guard too, as no SL(2,C) check follows boost_z
    with pytest.raises(ValueError, match="conditioning guard"):
        boost_z(np.nan)
    # a 0-d rapidity is guarded like a stacked one, and builds the same matrix
    for bad in (np.inf, np.nan, 25.0):
        with pytest.raises(ValueError, match="conditioning guard"):
            boosts_z(bad)
    assert boosts_z(0.5).shape == (2, 2)
    assert boosts_z(0.5).tobytes() == boost_z(0.5).tobytes()


@pytest.mark.filterwarnings("error")
def test_rotations_z_rejects_non_finite_angles():
    # the first non-finite angle is named, before exp could warn about it
    with pytest.raises(ValueError, match="^rotation angle inf is not finite$"):
        rotations_z([0.3, np.inf, np.nan])
    with pytest.raises(ValueError, match="^rotation angle nan is not finite$"):
        rotation_z(np.nan)
