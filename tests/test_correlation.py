"""Singlet correlator, polarized determinant, Haar twirl, symmetry checks."""

import numpy as np
import pytest

import qlorentz.correlation
from qlorentz import ContractError, apply_local, boost_z, pauli_correlation_table, spin_hom
from qlorentz.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from qlorentz.lorentz import (
    ETA,
    boosts_z,
    herm_from_vector,
    rotation_z,
    rotations_z,
    sample_sl2c,
    spin_images,
)
from qlorentz.states import SINGLET_COEFFS, singlet
from qlorentz.correlation import (
    SWAP,
    TWIRL_ABS_FLOOR,
    correlator_deviations,
    correlator_symmetry_check,
    haar_twirl_mc,
    haar_unitaries,
    polarized_determinant,
    singlet_correlation,
)
from qlorentz.seeding import rng_from_seed


def random_pair(rng):
    o1 = herm_from_vector(rng.standard_normal(4))
    o2 = herm_from_vector(rng.standard_normal(4))
    return o1, o2


def test_singlet_correlation_frozen_values():
    assert abs(singlet_correlation(PAULI_I, PAULI_I) - 1.0) < 1e-12
    assert abs(singlet_correlation(PAULI_Z, PAULI_Z) + 1.0) < 1e-12
    assert abs(singlet_correlation(PAULI_X, PAULI_Z)) < 1e-12


def test_singlet_correlation_trace_identity():
    rng = np.random.default_rng(81)
    for trial in range(50):
        o1, o2 = random_pair(rng)
        expected = 0.5 * (
            np.trace(o1) * np.trace(o2) - np.trace(o1 @ o2)
        ).real
        assert abs(singlet_correlation(o1, o2) - expected) < 1e-10
    # one call on a (50, 2, 2) stack of pairs, checked element by element
    a, b = herm_from_vector(rng.standard_normal((2, 50, 4)))
    expected = 0.5 * (
        np.trace(a, axis1=1, axis2=2) * np.trace(b, axis1=1, axis2=2)
        - np.trace(a @ b, axis1=1, axis2=2)
    ).real
    got = singlet_correlation(a, b)
    assert got.shape == (50,)
    assert np.abs(got - expected).max() < 1e-10


def test_singlet_correlation_rejects_non_hermitian():
    with pytest.raises(ContractError):
        singlet_correlation(np.array([[0.0, 1.0], [0.0, 0.0]]), PAULI_I)
    # only element 3 of the stack is off: every element must be checked
    stack = herm_from_vector(np.random.default_rng(80).standard_normal((6, 4)))
    stack[3, 0, 1] += 1e-3
    with pytest.raises(ContractError):
        singlet_correlation(stack, PAULI_Z)


def test_polarized_determinant_frozen_values():
    assert abs(polarized_determinant(PAULI_I, PAULI_I) - 1.0) < 1e-12
    assert abs(polarized_determinant(PAULI_X, PAULI_Y)) < 1e-12


def test_polarized_determinant_diagonal_is_minkowski_quadratic_form():
    rng = np.random.default_rng(82)
    for trial in range(50):
        v = rng.standard_normal(4)
        o = herm_from_vector(v)
        diag = polarized_determinant(o, o)
        assert abs(diag - np.linalg.det(o).real) < 1e-10
        assert abs(diag - v @ ETA @ v) < 1e-10
    # one call on a (50, 2, 2) stack, checked element by element
    o = herm_from_vector(rng.standard_normal((50, 4)))
    diag = polarized_determinant(o, o)
    assert diag.shape == (50,)
    assert np.abs(diag - np.linalg.det(o).real).max() < 1e-10


def test_correlator_equals_polarized_determinant():
    rng = np.random.default_rng(83)
    for trial in range(100):
        o1, o2 = random_pair(rng)
        assert abs(singlet_correlation(o1, o2) - polarized_determinant(o1, o2)) < 1e-10


def test_correlator_bilinearity_and_symmetry():
    rng = np.random.default_rng(84)
    o1, o1b = random_pair(rng)
    o2, _ = random_pair(rng)
    a, b = 1.7, -0.4
    lhs = singlet_correlation(a * o1 + b * o1b, o2)
    rhs = a * singlet_correlation(o1, o2) + b * singlet_correlation(o1b, o2)
    assert abs(lhs - rhs) < 1e-10
    assert abs(singlet_correlation(o1, o2) - singlet_correlation(o2, o1)) < 1e-12


def test_pauli_correlation_table_is_minkowski_metric():
    # exact: the unscaled singlet coefficients make every Pauli-table term exact
    table = pauli_correlation_table()
    np.testing.assert_allclose(table, ETA, atol=0, rtol=0)


def test_swap_operator_unit_checks():
    psi = SINGLET_COEFFS.ravel() / np.sqrt(2.0)
    assert abs((psi.conj() @ SWAP @ psi).real + 1.0) < 1e-12
    np.testing.assert_allclose(SWAP @ SWAP, np.eye(4), atol=0)
    assert abs(psi.conj() @ psi - 1.0) < 1e-14


def test_haar_unitaries_are_unitary_and_deterministic():
    u = haar_unitaries(rng_from_seed(85), 100)
    prods = np.einsum("nij,nkj->nik", u, u.conj())
    assert np.abs(prods - np.eye(2)).max() < 1e-12
    v = haar_unitaries(rng_from_seed(85), 100)
    np.testing.assert_allclose(u, v, atol=0)


def test_haar_sampling_mean_is_zero():
    # entries of a Haar-distributed unitary average to zero
    u = haar_unitaries(rng_from_seed(86), 100_000)
    mean = u.mean(axis=0)
    # each entry has |u_ij|^2 averaging 1/2, so sigma of the mean ~ 1/sqrt(2N)
    sigma = 1.0 / np.sqrt(2.0 * u.shape[0])
    assert np.abs(mean).max() < 5.0 * sigma


def test_twirl_coefficients_closed_forms():
    # chi = t1 t2 / 3 - t12 / 6 and zeta = t1 t2 / 6 - t12 / 3, read off the report block
    tw = haar_twirl_mc(PAULI_I, PAULI_I, 1000, 1)
    assert (tw["chi"], tw["zeta"]) == (1.0, 0.0)
    tw = haar_twirl_mc(PAULI_Z, PAULI_Z, 1000, 1)
    assert abs(tw["chi"] + 1.0 / 3.0) < 1e-14
    assert abs(tw["zeta"] + 2.0 / 3.0) < 1e-14
    tw = haar_twirl_mc(PAULI_X, PAULI_Y, 1000, 1)
    assert (tw["chi"], tw["zeta"]) == (0.0, 0.0)


def test_twirl_returns_the_report_block():
    tw = haar_twirl_mc(PAULI_Z, PAULI_X, 1000, 1)
    assert set(tw) == {"samples", "chi", "zeta", "max_abs_deviation", "std_error"}
    assert tw["samples"] == 1000 and type(tw["samples"]) is int
    assert all(type(tw[k]) is float for k in ("chi", "zeta", "max_abs_deviation", "std_error"))


def test_twirl_requires_minimum_samples():
    with pytest.raises(ValueError):
        haar_twirl_mc(PAULI_Z, PAULI_Z, 500, 1)
    with pytest.raises(ValueError):
        haar_twirl_mc(np.stack([PAULI_Z, PAULI_Z, PAULI_Z]), PAULI_Z, 1000, 1)


def test_twirl_identity_pair_is_exact():
    tw = haar_twirl_mc(PAULI_I, PAULI_I, 1000, 2)
    assert tw["max_abs_deviation"] <= 5.0 * tw["std_error"] + TWIRL_ABS_FLOOR
    assert tw["chi"] == 1.0 and tw["zeta"] == 0.0


def test_twirl_zz_pair_converges():
    tw = haar_twirl_mc(PAULI_Z, PAULI_Z, 30_000, 3)
    assert tw["max_abs_deviation"] <= 5.0 * tw["std_error"] + TWIRL_ABS_FLOOR


def test_twirl_deterministic_per_seed():
    assert haar_twirl_mc(PAULI_Z, PAULI_X, 2000, 11) == haar_twirl_mc(PAULI_Z, PAULI_X, 2000, 11)


def test_symmetry_check_identity_map():
    assert correlator_symmetry_check(np.eye(4)[None], 20, rng_from_seed(88)) < 1e-14


def test_symmetry_check_boost_rotation_parity():
    assert correlator_symmetry_check(spin_hom(boost_z(1.5))[None], 50, rng_from_seed(89)) < 1e-8
    assert correlator_symmetry_check(spin_hom(rotation_z(0.9))[None], 50, rng_from_seed(90)) < 1e-8
    assert correlator_symmetry_check(ETA[None], 50, rng_from_seed(91)) < 1e-8


def test_symmetry_check_sl2c_conjugation():
    lam = sample_sl2c(rng_from_seed(92), 2.0)
    assert correlator_symmetry_check(spin_images(lam[None]), 50, rng_from_seed(93)) < 1e-8


def test_symmetry_check_rejects_bad_maps():
    with pytest.raises(ContractError):
        correlator_symmetry_check(np.diag([1.0, 1.0, 1.0, 2.0])[None], 5, rng_from_seed(94))
    # one bare 4x4 matrix, or SL(2,C) elements, are not a (k, 4, 4) stack
    with pytest.raises(ValueError, match=r"\(k, 4, 4\) stack"):
        correlator_symmetry_check(ETA, 5, rng_from_seed(95))
    with pytest.raises(ValueError, match=r"\(k, 4, 4\) stack"):
        correlator_symmetry_check(boosts_z([0.5]), 5, rng_from_seed(95))


def test_symmetry_check_applies_the_map(monkeypatch):
    # negative control: a map that does not preserve the form, admitted without
    # validation, must move the correlator; a check that skips the map reads 0
    monkeypatch.setattr(qlorentz.correlation, "require_lorentz", lambda lams: None)
    stretch = np.diag([1.0, 1.0, 1.0, 2.0])[None]
    assert correlator_symmetry_check(stretch, 20, rng_from_seed(97)) > 1e-2


def test_symmetry_check_rejects_non_finite_maps():
    # a NaN map has a NaN Minkowski defect; it must raise, not report nan
    with pytest.raises(ContractError):
        correlator_symmetry_check(np.full((1, 4, 4), np.nan), 5, rng_from_seed(1))
    inf_map = np.eye(4)
    inf_map[0, 3] = np.inf
    with pytest.raises(ContractError):
        correlator_symmetry_check(inf_map[None], 5, rng_from_seed(1))


#: Index ranges of the kinds of map in sampled_maps: spin images of boosts,
#: rotations and sampled SL(2,C) elements; plain Lorentz matrices; parity.
SPIN_IMAGES, PLAIN, PARITY = slice(0, 10), slice(10, 13), slice(13, 15)


def sampled_maps(seed: int) -> np.ndarray:
    """A (15, 4, 4) stack of Lorentz matrices of every kind that metric checks, and more."""
    rng = rng_from_seed(seed)
    lams = [boost_z(float(rng.uniform(-2.0, 2.0))) for _ in range(3)]
    lams += [rotation_z(float(rng.uniform(0.0, 2.0 * np.pi))) for _ in range(3)]
    lams += [sample_sl2c(rng, 2.0) for _ in range(3)]
    lams += [boost_z(1.5)]
    images = [spin_hom(lam) for lam in lams]
    images += [spin_hom(sample_sl2c(rng, 2.0)) @ ETA, np.eye(4), -np.eye(4)]
    return np.stack(images + [ETA, ETA])


def one_map_calls(maps, trials, rng) -> list:
    """Reference for a stacked call: each map's one-map call with its c_j pairs, in turn on rng."""
    counts = trials if np.ndim(trials) else [trials] * len(maps)
    return [correlator_deviations(m[None], c, rng)[0] for m, c in zip(maps, counts)]


@pytest.mark.parametrize("trials", [1, 5, 17])
def test_stacked_check_equals_max_of_single_map_checks(trials):
    maps = sampled_maps(100 + trials)
    singles = one_map_calls(maps, trials, rng_from_seed(101))
    assert correlator_symmetry_check(maps, trials, rng_from_seed(101)) == max(singles)
    # each kind alone, stacked: spin images, plain Lorentz matrices, parity
    for kind in (SPIN_IMAGES, PLAIN, PARITY):
        stacked = correlator_symmetry_check(maps[kind], trials, rng_from_seed(102))
        assert stacked == max(one_map_calls(maps[kind], trials, rng_from_seed(102)))
    # a one-map stack is the single-map call
    assert correlator_symmetry_check(maps[:1], trials, rng_from_seed(101)) == singles[0]


@pytest.mark.parametrize("position", [0, 6, 14])
def test_stacked_check_applies_each_map_to_its_own_draws(position, monkeypatch):
    # negative control: a stretch admitted past validation must show at the
    # first, a middle and the last position of a stack of valid maps; a
    # broadcast that applied map 0 to every draw would read rounding noise
    monkeypatch.setattr(qlorentz.correlation, "require_lorentz", lambda lams: None)
    maps = np.insert(sampled_maps(102)[:14], position, np.diag([1.0, 1.0, 1.0, 2.0]), axis=0)
    dev = correlator_symmetry_check(maps, 5, rng_from_seed(103))
    assert dev > 1e-2
    assert dev == one_map_calls(maps, 5, rng_from_seed(103))[position]
    valid = np.delete(maps, position, axis=0)
    assert correlator_symmetry_check(valid, 5, rng_from_seed(103)) < 1e-8


def test_stacked_check_needs_a_map_and_a_generator():
    maps = sampled_maps(104)[:3]
    # a sub-seed, or a sequence of them, is not a generator
    with pytest.raises(AttributeError):
        correlator_symmetry_check(maps, 5, 1)
    with pytest.raises(AttributeError):
        correlator_symmetry_check(maps, 5, [1, 2, 3])
    with pytest.raises(ValueError, match="at least one map"):
        correlator_symmetry_check(np.empty((0, 4, 4)), 5, rng_from_seed(1))


def test_stacked_check_names_the_failing_map():
    # a bad SL(2,C) element is refused where it enters spin_images, named by its place in the stack
    spin = np.stack([rotation_z(0.3), boost_z(0.5), np.eye(2), np.diag([2.0, 1.0])])
    with pytest.raises(ContractError, match="SL\\(2,C\\) element 3 has determinant"):
        correlator_symmetry_check(spin_images(spin), 5, rng_from_seed(1))
    stretch = np.diag([1.0, 1.0, 1.0, 2.0])
    with pytest.raises(ContractError, match="map 2 "):
        correlator_symmetry_check(
            np.stack([spin_hom(boost_z(0.5)), np.eye(4), stretch]), 5, rng_from_seed(1)
        )
    with pytest.raises(ContractError, match="map 1 has non-finite"):
        correlator_symmetry_check(
            np.stack([np.eye(4), np.full((4, 4), np.nan)]), 5, rng_from_seed(1)
        )


@pytest.mark.parametrize("k", [1, 3, 10])
def test_family_stack_deviations_equal_the_per_map_checks(k):
    # the boost and rotation families in one (2k, 4, 4) stack: each map's
    # deviation, so each family's max, is that of its own single-map check
    rng = rng_from_seed(105 + k)
    rapidities = rng.uniform(-2.0, 2.0, size=k)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=k)
    stack = spin_images(np.concatenate([boosts_z(rapidities), rotations_z(angles)]))
    devs = correlator_deviations(stack, 5, rng_from_seed(106))
    images = [spin_hom(boost_z(r)) for r in rapidities] + [spin_hom(rotation_z(t)) for t in angles]
    singles = one_map_calls(images, 5, rng_from_seed(106))
    assert devs.tolist() == singles
    assert devs[:k].max() == max(singles[:k]) and devs[k:].max() == max(singles[k:])
    assert correlator_symmetry_check(stack, 5, rng_from_seed(106)) == max(singles)
    assert correlator_deviations(np.stack(images), 5, rng_from_seed(106)).tolist() == singles


@pytest.mark.parametrize("counts", [[1, 5, 17, 5], [5, 5, 5, 5], [17, 1, 1, 2]])
def test_uneven_pair_counts_match_the_one_map_calls(counts):
    # map j with its own c_j pairs: entry j is its one-map call bit for bit
    maps = np.concatenate([sampled_maps(107)[[0, 3, 6]], ETA[None]])
    rng, twin = rng_from_seed(108), rng_from_seed(108)
    devs = correlator_deviations(maps, counts, rng)
    singles = one_map_calls(maps, counts, twin)
    assert devs.tolist() == singles
    # the stack leaves the generator where the one-map calls in turn leave it
    assert rng.standard_normal() == twin.standard_normal()
    assert correlator_deviations(maps, tuple(counts), rng_from_seed(108)).tolist() == singles
    assert correlator_deviations(maps, np.array(counts), rng_from_seed(108)).tolist() == singles


def test_uneven_pair_counts_keep_each_map_to_its_own_pairs(monkeypatch):
    # negative control: a stretch in the last, parity-sized slot, admitted past
    # validation, shows in its own entry only; a gather that slid the map rows
    # against the pair counts would spread it to a neighbour or hide it
    monkeypatch.setattr(qlorentz.correlation, "require_lorentz", lambda lams: None)
    maps = np.concatenate([sampled_maps(109)[:3], np.diag([1.0, 1.0, 1.0, 2.0])[None]])
    devs = correlator_deviations(maps, [5, 5, 5, 10], rng_from_seed(110))
    assert devs[-1] > 1e-2
    assert devs[:-1].max() < 1e-8


def test_pair_counts_are_validated():
    maps = sampled_maps(111)[:3]
    for counts in ([5, 5], [5, 5, 5, 5], [5, 0, 5], [5, 5, -1], 0, -3):
        with pytest.raises(ValueError, match="pair count"):
            correlator_deviations(maps, counts, rng_from_seed(1))
    assert correlator_deviations(maps, [1, 1, 1], rng_from_seed(1)).shape == (3,)


def test_stack_input_is_validated():
    good = spin_images(boosts_z([0.3, -1.1, 1.7]))
    bad = good.copy()
    bad[2] = np.diag([1.0, 1.0, 1.0, 2.0])
    with pytest.raises(ContractError, match="map 2 does not preserve"):
        correlator_deviations(bad, 5, rng_from_seed(1))
    with pytest.raises(ValueError, match=r"\(k, 4, 4\)"):
        correlator_deviations(np.zeros((3, 3, 3)), 5, rng_from_seed(1))
    assert correlator_deviations(good, 5, rng_from_seed(1)).shape == (3,)


def test_complex_stack_is_rejected():
    # a float cast would drop the imaginary part and check the real part alone
    with pytest.raises(ValueError, match="must be real"):
        correlator_symmetry_check(np.eye(4)[None] + 0.5j, 5, rng_from_seed(1))
    with pytest.raises(ValueError, match="must be real"):
        correlator_deviations([np.eye(4, dtype=complex)], 5, rng_from_seed(1))
    # control: the same maps as a real stack pass
    assert correlator_symmetry_check(np.eye(4)[None], 5, rng_from_seed(1)) == 0.0
    assert correlator_deviations([np.eye(4)], 5, rng_from_seed(1)).tolist() == [0.0]


def test_singlet_invariant_under_unit_determinant_family():
    # |det| = 1 with arbitrary phase: the projector is exactly preserved
    rng = rng_from_seed(96)
    for trial in range(20):
        lam = sample_sl2c(rng, 2.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        m = phase * lam
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-10
        rho = np.kron(m, m) @ singlet().rho @ np.kron(m, m).conj().T
        assert np.abs(rho - singlet().rho).max() < 1e-9


def test_singlet_symmetry_via_apply_local():
    lam = sample_sl2c(rng_from_seed(97), 2.0)
    moved = apply_local(singlet(), [lam, lam])
    assert np.abs(moved.rho - singlet().rho).max() < 1e-9
    assert isinstance(lam, np.ndarray) and lam.shape == (2, 2)
