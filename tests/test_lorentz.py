"""Pauli coordinates, SL(2,C) samples, and the map onto restricted Lorentz matrices."""

import numpy as np
import pytest

from qlorentz import ContractError, boost_z, random_sl2c, spin_hom
from qlorentz.linalg import PAULIS
from qlorentz.lorentz import ETA, SL2C, LorentzMatrix4, herm_from_vector, rotation_z, sample_sl2c
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


def test_sl2c_rejects_wrong_determinant():
    with pytest.raises(ContractError):
        SL2C(2.0 * np.eye(2))
    with pytest.raises(ValueError):
        SL2C(np.eye(3))


def test_boost_and_rotation_generators():
    np.testing.assert_allclose(boost_z(0.0).m, np.eye(2), atol=0)
    # the double cover: a full turn lands on minus the identity
    np.testing.assert_allclose(rotation_z(2.0 * np.pi).m, -np.eye(2), atol=1e-15)
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
        np.testing.assert_allclose(spin_hom(boost_z(eta)).entries, expected, atol=1e-10)


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
    np.testing.assert_allclose(spin_hom(rotation_z(theta)).entries, expected, atol=1e-12)


def test_spin_hom_is_a_homomorphism():
    for trial in range(50):
        a = random_sl2c(split_seed(23, 2 * trial), 2.0)
        b = random_sl2c(split_seed(23, 2 * trial + 1), 2.0)
        lhs = spin_hom(a @ b).entries
        rhs = spin_hom(a).entries @ spin_hom(b).entries
        assert np.abs(lhs - rhs).max() < 1e-9


def test_spin_hom_kernel_is_sign():
    lam = random_sl2c(99, 1.5)
    np.testing.assert_allclose(spin_hom(-lam).entries, spin_hom(lam).entries, atol=1e-12)


def test_spin_hom_images_are_restricted_lorentz():
    for trial in range(50):
        lam = random_sl2c(split_seed(24, trial), 2.0)
        img = spin_hom(lam)
        defect = np.abs(img.entries.T @ ETA @ img.entries - ETA).max()
        assert defect < 1e-9
        assert abs(np.linalg.det(img.entries) - 1.0) < 1e-9
        assert img.entries[0, 0] >= 1.0 - 1e-9


def test_spin_hom_moves_vectors_like_conjugation():
    rng = np.random.default_rng(25)
    for trial in range(20):
        lam = random_sl2c(split_seed(26, trial), 2.0)
        img = spin_hom(lam)
        v = rng.standard_normal(4)
        w = img.entries @ v
        direct = lam.m @ herm_from_vector(v) @ lam.m.conj().T
        assert np.abs(direct - herm_from_vector(w)).max() < 1e-10
        assert abs(w @ ETA @ w - v @ ETA @ v) < 1e-10


def test_lorentz_matrix_rejects_eta_violation():
    with pytest.raises(ContractError):
        LorentzMatrix4(np.diag([1.0, 1.0, 1.0, 2.0]))


def test_sample_sl2c_respects_rapidity_clamp():
    for trial in range(50):
        lam = sample_sl2c(rng_from_seed(split_seed(27, trial)), 2.0)
        s = np.linalg.svd(lam.m, compute_uv=False)
        assert s[0] / s[1] <= np.exp(2.0) * (1.0 + 1e-12)
        assert abs(np.linalg.det(lam.m) - 1.0) < 1e-10


def test_sample_sl2c_argument_guard():
    with pytest.raises(ValueError):
        sample_sl2c(rng_from_seed(1), 0.0)
    with pytest.raises(ValueError):
        sample_sl2c(rng_from_seed(1), 50.0)


def test_random_sl2c_deterministic_per_seed():
    a = random_sl2c(314, 2.0)
    b = random_sl2c(314, 2.0)
    np.testing.assert_allclose(a.m, b.m, atol=0)
