"""State construction, the spin flip, W-matrices, local actions, serialization."""

import json
from functools import reduce as fold

import numpy as np
import pytest

import qlorentz.states
from qlorentz import ContractError, PositivityError, apply_local, boost_z, preset, random_sl2c
from qlorentz.linalg import kron, mat_sqrt_psd, require_hermitian
from qlorentz.states import (
    QubitState,
    _rank_factor,
    basis0,
    ghz,
    maximally_mixed,
    product_of_singlets,
    random_state,
    reduce,
    singlet,
    spin_flip,
    state_from_json_dict,
    state_to_json_dict,
    w_spectrum,
    wstate,
)
from qlorentz.linalg import MAX_QUBITS, PAULI_Y, PSD_TOL, max_abs
from qlorentz.lorentz import sample_sl2c_stack
from qlorentz.seeding import rng_from_seed, split_seed
from reference import depolarize, w_matrix


def test_constructor_validates_hermiticity():
    with pytest.raises(ContractError):
        QubitState(1, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_constructor_validates_positivity():
    with pytest.raises(PositivityError):
        QubitState(1, np.diag([1.0, -0.5]).astype(complex))


def test_constructor_validates_trace():
    with pytest.raises(ContractError):
        QubitState(1, np.zeros((2, 2), dtype=complex))
    # a negative trace fails, here at the PSD floor
    with pytest.raises(ContractError):
        QubitState(1, -np.eye(2, dtype=complex))
    # an imaginary diagonal of 1e-9 is a Hermiticity defect of 2e-9
    with pytest.raises(ContractError, match="not Hermitian"):
        QubitState(1, np.eye(2) / 2 + 1e-9j * np.eye(2))


@pytest.mark.parametrize("n", [1, 6])
def test_constructor_accepts_an_imaginary_trace_within_the_hermiticity_bound(n):
    # I/d + 4e-11 i I passes require_hermitian (defect 8e-11); the state stores
    # its Hermitian part I/d, with trace exactly 1 and no imaginary part
    d = 2**n
    s = QubitState(n, np.eye(d) / d + 4e-11j * np.eye(d))
    assert s.trace() == 1.0
    assert np.trace(s.rho).imag == 0.0


def test_constructor_validates_dimension():
    with pytest.raises(ValueError):
        QubitState(2, np.eye(2, dtype=complex))
    for n in (1, 2):
        with pytest.raises(ValueError, match="dimension 3 does not match"):
            QubitState(n, np.eye(3, dtype=complex))
    # require_hermitian takes a stack of matrices; the state is one (2**n, 2**n) matrix
    with pytest.raises(ValueError, match="does not match n=1 qubits"):
        QubitState(1, np.stack([np.eye(2, dtype=complex) / 2] * 2))
    # refused by the qubit cap, without forming 2**n
    with pytest.raises(ValueError, match=f"qubit count {10**12} outside 1..{MAX_QUBITS}"):
        QubitState(10**12, np.eye(2, dtype=complex))
    # the cap is checked before the matrix is read: no 2**11-dimensional eigvalsh runs
    for n in (0, MAX_QUBITS + 1):
        with pytest.raises(ValueError, match=f"qubit count {n} outside 1..{MAX_QUBITS}"):
            QubitState(n, object())


def test_states_are_immutable():
    s = maximally_mixed(1)
    with pytest.raises(AttributeError):
        s.n = 3
    with pytest.raises(ValueError):
        s.rho[0, 0] = 5.0


def test_internally_built_states_are_read_only():
    s = random_state(3, "mixed", 54)
    p = random_state(3, "pure", 54)
    factors = [boost_z(0.4)] * 3
    presets = (singlet(), ghz(3), wstate(4), product_of_singlets(2), maximally_mixed(2), basis0(3))
    adopted = (reduce(s, [1, 3]), reduce(s, [1, 2, 3]))
    for built in (s, p, spin_flip(s), s.scaled(2.0), apply_local(s, factors), *presets, *adopted):
        assert built.rho.shape == (2**built.n, 2**built.n)
        assert built.rho.dtype == np.complex128
        assert built.rho.flags.c_contiguous
        assert not built.rho.flags.writeable
        with pytest.raises(ValueError):
            built.rho[0, 0] = 5.0


def built_states(tmp_path):
    """(label, state) from every builder: presets, random draws, derived and loaded states."""
    for family, sizes in [("singlet", [""]), ("singlets", [1, 2, 4]), ("ghz", [1, 3, 4, 8]),
                          ("wstate", [2, 3, 8]), ("maximally_mixed", [1, 4]), ("basis0", [1, 5])]:
        for size in sizes:
            yield f"{family}{size}", preset(f"{family}{size}")
    for n in range(1, 9):
        for kind in ("pure", "mixed"):
            for seed in range(3):
                s = random_state(n, kind, split_seed(55 + seed, n))
                yield f"random {kind} n={n} seed={seed}", s
            rng = rng_from_seed(split_seed(58, n))
            yield f"scaled {kind} n={n}", s.scaled(0.3)
            yield f"spin_flip {kind} n={n}", spin_flip(s)
            yield f"apply_local {kind} n={n}", apply_local(s, sample_sl2c_stack(rng, n, 2.0))
            yield f"reduce {kind} n={n}", reduce(s, range(1, n + 1, 2))
    # a file with an anti-Hermitian part inside HERMITIAN_TOL
    rho = random_state(3, "pure", 59).rho + 1e-12j * np.triu(np.ones((8, 8)), 1)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(QubitState._adopt(3, rho))))
    yield "loaded n=3", state_from_json_dict(json.loads(path.read_text()))


def test_every_builder_stores_an_exactly_hermitian_matrix(tmp_path):
    bad = [label for label, s in built_states(tmp_path) if not np.array_equal(s.rho, s.rho.conj().T)]
    assert not bad


def test_exact_hermiticity_sweep_negative_control(monkeypatch, tmp_path):
    # the raw outer product rounds psi_i conj(psi_j) and psi_j conj(psi_i) apart
    monkeypatch.setattr(qlorentz.states, "_projector", lambda psi: np.outer(psi, psi.conj()))
    bad = [label for label, s in built_states(tmp_path) if not np.array_equal(s.rho, s.rho.conj().T)]
    assert any(label.startswith("random pure") for label in bad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e308])
def test_scaled_rejects_a_bad_factor_or_an_overflow(c):
    # 1e308 is finite and positive, but 1e308 * 2 overflows
    s = QubitState(1, np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        s.scaled(c)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_apply_local_rejects_an_overflowing_result():
    s = QubitState(1, np.diag([1e300, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        apply_local(s, [boost_z(20.0)])


def test_spin_flip_single_qubit_closed_form():
    rng = np.random.default_rng(31)
    for trial in range(20):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s = QubitState(1, g @ g.conj().T)
        expected = np.trace(s.rho) * np.eye(2) - s.rho
        np.testing.assert_allclose(spin_flip(s).rho, expected, atol=1e-12)


def test_spin_flip_fixed_points_and_involution():
    np.testing.assert_allclose(spin_flip(maximally_mixed(1)).rho, 0.5 * np.eye(2), atol=0)
    np.testing.assert_allclose(spin_flip(singlet()).rho, singlet().rho, atol=1e-15)
    s = random_state(3, "mixed", 313)
    np.testing.assert_allclose(spin_flip(spin_flip(s)).rho, s.rho, atol=1e-12)


def test_spin_flip_preserves_trace():
    s = random_state(2, "mixed", 32).scaled(2.5)
    assert abs(spin_flip(s).trace() - s.trace()) < 1e-12


def test_spin_flip_bit_identical_to_dense_sandwich():
    for n in range(1, 9):
        y = fold(np.kron, [PAULI_Y] * n)
        for kind in ("pure", "mixed"):
            s = random_state(n, kind, split_seed(320, n))
            dense = y @ np.conj(s.rho) @ y
            assert np.array_equal(spin_flip(s).rho.view(np.uint64), dense.view(np.uint64)), (n, kind)


def test_w_matrix_frozen_cases():
    np.testing.assert_allclose(w_matrix(maximally_mixed(1)), 0.25 * np.eye(2), atol=0)
    np.testing.assert_allclose(w_matrix(singlet()), singlet().rho, atol=1e-14)


def test_w_matrix_pure_product_has_zero_trace():
    a = random_state(1, "pure", 33)
    b = random_state(1, "pure", 34)
    s = QubitState(2, kron(a.rho, b.rho))
    assert abs(np.trace(w_matrix(s))) < 1e-12


def test_w_matrix_factorizes_over_products():
    a = random_state(1, "mixed", 35)
    b = random_state(2, "mixed", 36)
    s = QubitState(3, kron(a.rho, b.rho))
    np.testing.assert_allclose(
        w_matrix(s), kron(w_matrix(a), w_matrix(b)), atol=1e-10
    )


def test_w_spectrum_frozen_cases():
    np.testing.assert_allclose(w_spectrum(singlet()), [1.0, 0.0, 0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(w_spectrum(maximally_mixed(2)), [1.0 / 16] * 4, atol=1e-12)


def test_w_spectrum_matches_direct_eigenvalues():
    # the PSD surrogate must be isospectral to the non-Hermitian product
    for trial in range(10):
        s = random_state(2, "mixed", split_seed(37, trial))
        direct = np.sort_complex(np.linalg.eigvals(w_matrix(s)))[::-1]
        assert np.abs(direct.imag).max() < 1e-9
        np.testing.assert_allclose(w_spectrum(s), direct.real, atol=1e-9)


def surrogate_w_spectrum(s):
    """The square-root route: eigenvalues of sqrt(rho) rho* sqrt(rho), clipped at zero."""
    root = mat_sqrt_psd(s.rho)
    sandwich = root @ spin_flip(s).rho @ root
    return np.clip(np.linalg.eigvalsh(0.5 * (sandwich + sandwich.conj().T))[::-1], 0.0, None)


def test_w_spectrum_matches_square_root_surrogate():
    # both routes are backward stable on rho, so they agree to a few eps * Tr(rho)^2
    for n in range(1, 9):
        for kind in ("pure", "mixed"):
            base = random_state(n, kind, split_seed(47, n))
            factors = [random_sl2c(split_seed(48, 10 * n + j), 2.0) for j in range(n)]
            for s in (base, base.scaled(3.7), apply_local(base, factors)):
                tol = 1e-13 * s.trace() ** 2
                assert np.abs(w_spectrum(s) - surrogate_w_spectrum(s)).max() <= tol, (n, kind)


def test_w_spectrum_of_pure_odd_is_zero():
    # psi^T Y^(x)n psi vanishes exactly for odd n; the square-root route leaves ~1e-17
    for n in (1, 3, 5, 7):
        s = random_state(n, "pure", split_seed(38, n))
        assert w_spectrum(s).max() <= 1e-25 * s.trace() ** 2, n


def test_w_spectrum_of_pure_odd_is_exactly_zero():
    # b = (-1)^n b^T holds exactly, so at odd n the 1 x 1 preconcurrence is 0, not rounding noise
    for n in (1, 3, 5, 7):
        for seed in range(20):
            lam = w_spectrum(random_state(n, "pure", split_seed(39, 100 * n + seed)))
            assert (lam == 0.0).all(), (n, seed)


def test_w_spectrum_rank_one_column_is_the_hermitian_parts(monkeypatch):
    # the rank-1 branch reads column j of rho as stored, with no symmetrized copy:
    # random_state stores the Hermitian part of psi psi^dag, so the branch
    # matches the symmetrize-first route bit for bit
    s = random_state(4, "pure", split_seed(1, 0))
    expected = w_spectrum(QubitState._adopt(4, 0.5 * (s.rho + s.rho.conj().T)))
    assert np.count_nonzero(expected) == 1
    assert w_spectrum(s).tobytes() == expected.tobytes()
    # negative control: the raw np.outer projector, Hermitian only to 1 ulp,
    # moves e_1 = l_1 on this state
    monkeypatch.setattr(qlorentz.states, "_projector", lambda psi: np.outer(psi, psi.conj()))
    assert w_spectrum(random_state(4, "pure", split_seed(1, 0)))[0] != expected[0]


def test_w_spectrum_rejects_invalid_input():
    # a state adopted past the constructor still meets the kernel's PSD floor
    with pytest.raises(PositivityError):
        w_spectrum(QubitState._adopt(1, np.asarray(np.diag([1.0, -0.5]), complex)))


def test_w_spectrum_descending_and_clamped():
    s = random_state(3, "mixed", 39)
    lam = w_spectrum(s)
    assert np.all(np.diff(lam) <= 1e-12)
    assert lam.min() >= 0.0


def _mixture(n: int, seed: int, weights) -> QubitState:
    return QubitState(n, sum(w * random_state(n, "pure", seed + k).rho for k, w in enumerate(weights)))


# One state per factor branch of w_spectrum, the numpy calls that branch makes,
# and the exact zeros of its W-spectrum. The pure state is at even n, since at
# odd n its W-spectrum vanishes and the diag(2, 1) control below would compare
# zeros. Cholesky completes on the rank-3 mixture, with a last pivot near
# 1e-15 of the first, so only the pivot test sends it on to eigh.
FACTOR_BRANCHES = {
    "rank1": (lambda: random_state(4, "pure", 50), [], 15),
    "cholesky": (lambda: random_state(3, "mixed", 51), ["cholesky"], 0),
    "eigh": (lambda: _mixture(3, 52, [1.0, 0.5]), ["cholesky", "eigh"], 6),
    "eigh-small-pivot": (lambda: _mixture(2, 60, [1.0, 0.5, 0.25]), ["cholesky", "eigh"], 1),
}


def spy_factor_calls(monkeypatch) -> list:
    calls = []
    for name in ("cholesky", "eigh"):
        real = getattr(np.linalg, name)

        def spy(m, _real=real, _name=name):
            calls.append(_name)
            return _real(m)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("branch", sorted(FACTOR_BRANCHES))
def test_w_spectrum_factor_branches(monkeypatch, branch):
    build, expected_calls, zeros = FACTOR_BRANCHES[branch]
    s = build()
    # diag(2, 1) on qubit 1 scales the W-spectrum by |det|^2 = 4; it would
    # stay put if the moved state's spectrum came from the base state's factor
    m = kron(np.diag([2.0, 1.0]), np.eye(s.dim // 2))
    moved = QubitState._adopt(s.n, np.asarray(m @ s.rho @ m.conj().T, complex))
    calls = spy_factor_calls(monkeypatch)
    lam = w_spectrum(s)
    assert calls == expected_calls
    assert (lam == 0.0).sum() == zeros
    lam_moved = w_spectrum(moved)
    assert calls == 2 * expected_calls
    monkeypatch.undo()
    tol = 1e-13 * s.trace() ** 2
    direct = np.sort(np.linalg.eigvals(w_matrix(s)).real)[::-1]
    assert np.abs(lam - direct).max() <= tol
    assert np.abs(lam - surrogate_w_spectrum(s)).max() <= tol
    assert lam.max() > 1e3 * tol
    assert np.abs(lam_moved - 4.0 * lam).max() <= 1e-13 * moved.trace() ** 2


def _with_negative_eigenvalue(positive: np.ndarray, u: np.ndarray, c: float) -> np.ndarray:
    """positive - c * PSD_TOL * max|positive| * u u^dag, for a unit vector u in the kernel of positive."""
    return positive - c * PSD_TOL * max_abs(positive) * np.outer(u, u.conj())


def _near_rank1(n: int, c: float) -> np.ndarray:
    rng = np.random.default_rng(split_seed(54, n))
    psi, phi = rng.standard_normal((2, 2**n)) + 1j * rng.standard_normal((2, 2**n))
    psi /= np.linalg.norm(psi)
    phi -= psi * np.vdot(psi, phi)
    return _with_negative_eigenvalue(np.outer(psi, psi.conj()), phi / np.linalg.norm(phi), c)


def _full_rank(n: int, c: float) -> np.ndarray:
    rng = np.random.default_rng(split_seed(56, n))
    d = 2**n
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    evals = np.concatenate([[0.0], rng.uniform(0.1, 1.0, d - 1)])
    return _with_negative_eigenvalue((u * evals) @ u.conj().T, u[:, 0], c)


@pytest.mark.parametrize("n", [3, 7])
@pytest.mark.parametrize("build", [_near_rank1, _full_rank], ids=["near-rank1", "full-rank"])
def test_w_spectrum_psd_floor(build, n):
    # an eigenvalue at -2 PSD_TOL * max|rho| is refused, one at -0.5 PSD_TOL accepted;
    # neither fast branch accepts these (the rank-1 residual is far above 1e-14 |psi|^2,
    # and Cholesky fails on a negative eigenvalue), so eigh decides, at today's bound
    with pytest.raises(PositivityError):
        w_spectrum(QubitState._adopt(n, np.asarray(build(n, 2.0), complex)))
    s = QubitState._adopt(n, np.asarray(build(n, 0.5), complex))
    assert np.isfinite(w_spectrum(s)).all()


# Random n = 7 states, as `invariants` sees them before and after a random local
# action, never reach the eigh fallback. At d = 1024 a completed Cholesky no
# longer certifies the PSD_TOL bound, so eigh alone decides there.
BRANCHES_BY_SIZE = {
    "pure-n7": (lambda: random_state(7, "pure", 57), []),
    "mixed-n7": (lambda: random_state(7, "mixed", 57), ["cholesky"]),
    "mixed-n10": (lambda: maximally_mixed(MAX_QUBITS), ["eigh"]),
}


@pytest.mark.parametrize("case", sorted(BRANCHES_BY_SIZE))
def test_w_spectrum_branch_by_size(monkeypatch, case):
    build, expected_calls = BRANCHES_BY_SIZE[case]
    s = build()
    moved = apply_local(s, [random_sl2c(split_seed(58, q)) for q in range(s.n)])
    calls = spy_factor_calls(monkeypatch)
    w_spectrum(s)
    w_spectrum(moved)
    assert calls == 2 * expected_calls


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_rank_one_trace_prefilter_keeps_every_branch_decision(monkeypatch, n):
    # the rank-1 branch is taken exactly when the Frobenius residual test alone accepts
    decisions = set()
    for seed in range(3):
        pure = random_state(n, "pure", split_seed(56, 10 * n + seed)).rho
        noise = random_state(n, "mixed", split_seed(57, 10 * n + seed)).rho
        for eps in (0.0, 1e-17, 1e-15, 3e-15, 1e-14, 1e-13, 1e-9, 1e-6, 1.0):
            for scale in (1e-6, 1.0, 1e6):
                rho = require_hermitian(scale * (pure + eps * noise))
                j = int(np.argmax(rho.diagonal().real))
                psi = rho[:, j : j + 1] / np.sqrt(rho[j, j].real)
                norm2 = np.linalg.norm(psi) ** 2
                accepts = np.linalg.norm(rho - psi @ psi.conj().T) <= 1e-14 * norm2
                with monkeypatch.context() as m:
                    calls = spy_factor_calls(m)
                    _rank_factor(rho)
                assert (calls == []) == accepts, (seed, eps, scale)
                decisions.add(accepts)
    assert decisions == {True, False}


@pytest.mark.parametrize("small", [4e-11, 4e-13, 5e-15])
@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_w_spectrum_near_pure_keeps_what_eigh_keeps(scale, small):
    # diag(a, b) has W-spectrum [ab, ab]; eigh keeps b above 1e-14 a, and the
    # rank-1 branch must not drop a b that eigh would keep
    s = QubitState(1, scale * np.diag([1.0, small]))
    expected = scale**2 * small if small > 1e-14 else 0.0
    assert np.allclose(w_spectrum(s), [expected, expected], rtol=1e-12, atol=0.0)


def test_apply_local_identity_and_boost():
    s = basis0(1)
    moved = apply_local(s, [boost_z(1.0)])
    np.testing.assert_allclose(moved.rho, np.diag([np.e, 0.0]), atol=1e-12)
    same = apply_local(s, [boost_z(0.0)])
    np.testing.assert_allclose(same.rho, s.rho, atol=0)


def test_apply_local_singlet_symmetry():
    lam = random_sl2c(40, 1.5)
    moved = apply_local(singlet(), [lam, lam])
    np.testing.assert_allclose(moved.rho, singlet().rho, atol=1e-9)


def test_apply_local_length_mismatch():
    with pytest.raises(ValueError):
        apply_local(singlet(), [boost_z(1.0)])
    with pytest.raises(ValueError):
        apply_local(singlet(), [np.eye(2)] * 3)
    # one qubit still takes a (1, 2, 2) stack, not a bare 2x2 matrix
    with pytest.raises(ValueError):
        apply_local(basis0(1), np.eye(2))


def dense_action_error(s, factors, acting=None) -> float:
    """Max deviation of apply_local(s, acting) from the dense M H M^dag of ``factors``.

    In units of 4 n eps ||M||_2^2 max|rho|: both sides are backward stable
    products of M, rho and M^dag, so each entry's rounding is a few of them.
    ``acting`` defaults to ``factors``.
    """
    m = fold(np.kron, factors)
    out = m @ s.rho @ m.conj().T
    dense = 0.5 * (out + out.conj().T)
    unit = 4 * s.n * np.finfo(float).eps * np.linalg.norm(m, 2) ** 2 * max_abs(s.rho)
    moved = apply_local(s, factors if acting is None else acting)
    return max_abs(moved.rho - dense) / unit


def test_apply_local_takes_plain_arrays():
    s = random_state(3, "mixed", 47)
    factors = [boost_z(0.7), np.eye(2), random_sl2c(48, 2.0)]
    assert np.array_equal(apply_local(s, factors).rho, apply_local(s, np.stack(factors)).rho)
    assert dense_action_error(s, factors) <= 1.0
    # real identity factors leave the bits of the state alone
    t = random_state(2, "mixed", 49)
    assert np.array_equal(apply_local(t, [np.eye(2)] * 2).rho, t.rho)
    for n in range(1, 8):
        for kind in ("pure", "mixed"):
            t = random_state(n, kind, split_seed(49, n))
            assert np.array_equal(apply_local(t, [np.eye(2)] * n).rho, t.rho), (n, kind)


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_local_matches_the_dense_product(n):
    # n = 1 has a single block; odd n split unevenly, d_hi = 2^(n // 2) < d_lo
    for kind in ("pure", "mixed"):
        for max_rapidity in (0.5, 2.0, 20.0):
            s = random_state(n, kind, split_seed(52, n))
            rng = rng_from_seed(split_seed(53, 100 * n + int(max_rapidity)))
            factors = sample_sl2c_stack(rng, n, max_rapidity)
            assert dense_action_error(s, factors) <= 1.0, (n, kind, max_rapidity)


def test_apply_local_dense_check_negative_control():
    # the same factors acting on the wrong qubits read about 2e14 units
    s = random_state(3, "mixed", 47)
    factors = [boost_z(0.7), np.eye(2), random_sl2c(48, 2.0)]
    assert dense_action_error(s, factors, [factors[0], factors[2], factors[1]]) >= 1e12


def test_apply_local_rejects_a_factor_outside_sl2c():
    s = random_state(3, "mixed", 50)
    # the factor of qubit 2 has det 2: it is named by its position 1
    with pytest.raises(ContractError, match="element 1 has determinant"):
        apply_local(s, [boost_z(0.7), np.diag([2.0, 1.0]), np.eye(2)])
    with pytest.raises(ContractError, match="element 2 has non-finite"):
        apply_local(s, [boost_z(0.7), np.eye(2), np.full((2, 2), np.nan)])


def test_apply_local_does_not_renormalize():
    s = maximally_mixed(1)
    moved = apply_local(s, [boost_z(1.0)])
    assert abs(moved.trace() - np.cosh(1.0)) < 1e-12


def test_spin_flip_twisted_commutation():
    # spin_flip(M rho M^dag) = (M^dag)^{-1} spin_flip(rho) M^{-1}
    for trial in range(10):
        n = 1 + trial % 3
        s = random_state(n, "mixed", split_seed(41, trial))
        factors = [random_sl2c(split_seed(42, 10 * trial + j), 2.0) for j in range(n)]
        moved = apply_local(s, factors)
        m = factors[0]
        for f in factors[1:]:
            m = kron(m, f)
        m_inv = np.linalg.inv(m)
        expected = m_inv.conj().T @ spin_flip(s).rho @ m_inv
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(spin_flip(moved).rho - expected).max() < 1e-8 * scale


def test_w_matrix_conjugates_under_local_actions():
    for trial in range(10):
        n = 1 + trial % 3
        s = random_state(n, "mixed", split_seed(43, trial))
        factors = [random_sl2c(split_seed(44, 10 * trial + j), 2.0) for j in range(n)]
        m = factors[0]
        for f in factors[1:]:
            m = kron(m, f)
        expected = m @ w_matrix(s) @ np.linalg.inv(m)
        got = w_matrix(apply_local(s, factors))
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() < 1e-8 * scale


def test_w_spectrum_invariant_under_local_actions():
    for trial in range(10):
        n = 1 + trial % 3
        s = random_state(n, "mixed", split_seed(45, trial))
        factors = [random_sl2c(split_seed(46, 10 * trial + j), 2.0) for j in range(n)]
        before = w_spectrum(s)
        after = w_spectrum(apply_local(s, factors))
        rel = np.abs(before - after) / np.maximum(1.0, np.abs(before))
        assert rel.max() < 1e-7


def test_reduce_marginals():
    for q in ([1], [2]):
        np.testing.assert_allclose(reduce(singlet(), q).rho, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(reduce(ghz(3), [2]).rho, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        reduce(product_of_singlets(2), [1, 2]).rho, singlet().rho, atol=1e-12
    )


def test_reduce_chain_composition():
    s = random_state(4, "mixed", 47)
    once = reduce(s, [1, 3])
    twice = reduce(reduce(s, [1, 2, 3]), [1, 3])
    np.testing.assert_allclose(once.rho, twice.rho, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_product_of_singlets_is_the_left_kron_fold(k):
    # bit for bit the left fold of np.kron over k singlet blocks
    expected = fold(np.kron, [singlet().rho] * k)
    assert product_of_singlets(k).rho.tobytes() == expected.tobytes()


def test_preset_parsing():
    assert preset("singlet").n == 2
    assert preset("ghz4").dim == 16
    assert preset("wstate").n == 3
    assert preset("GHZ_4").n == 4
    assert preset("product_of_singlets2").n == 4
    assert preset("singlets3").n == 6
    assert preset("basis0").n == 1
    assert preset("basis02").n == 2
    assert preset("maximally_mixed3").n == 3
    with pytest.raises(ValueError):
        preset("bell")
    with pytest.raises(ValueError):
        preset("ghz99")


def test_singlet_entries_frozen():
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    np.testing.assert_allclose(singlet().rho, expected, atol=1e-15)


def test_ghz_and_wstate_structure():
    g = ghz(4)
    assert abs(g.trace() - 1.0) < 1e-12
    assert abs(g.rho[0, 0] - 0.5) < 1e-12 and abs(g.rho[15, 15] - 0.5) < 1e-12
    w = wstate(4)
    support = [1 << k for k in range(4)]
    for idx in support:
        assert abs(w.rho[idx, idx] - 0.25) < 1e-12
    assert abs(w.trace() - 1.0) < 1e-12


def test_random_state_contracts():
    pure = random_state(1, "pure", 48)
    assert abs(pure.trace() - 1.0) < 1e-12
    assert abs(np.trace(pure.rho @ pure.rho).real - 1.0) < 1e-10
    a = random_state(2, "mixed", 49)
    b = random_state(2, "mixed", 49)
    np.testing.assert_allclose(a.rho, b.rho, atol=0)
    with pytest.raises(ValueError):
        random_state(0, "pure", 1)
    with pytest.raises(ValueError):
        random_state(MAX_QUBITS + 1, "pure", 1)
    with pytest.raises(ValueError):
        random_state(2, "thermal", 1)


@pytest.mark.parametrize("n", [1, 3, 6, 7])
def test_random_state_draws_match_the_seed_contract(n):
    # the Hermitian parts of the documented draws, which seed-replay tools
    # reproduce with this exact expression
    hermitian_part = lambda a: 0.5 * (a + a.conj().T)
    d = 2**n
    for seed in (0, 48, split_seed(49, n), 2**64 - 1):
        rng = rng_from_seed(seed)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())
        rng = rng_from_seed(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mixed = g @ g.conj().T
        mixed = mixed / np.trace(mixed).real
        assert random_state(n, "pure", seed).rho.tobytes() == hermitian_part(pure).tobytes(), seed
        assert random_state(n, "mixed", seed).rho.tobytes() == hermitian_part(mixed).tobytes(), seed


def test_depolarize_limits():
    s = random_state(1, "pure", 50)
    np.testing.assert_allclose(depolarize(s, 0.0).rho, s.rho, atol=0)
    np.testing.assert_allclose(depolarize(s, 1.0).rho, 0.5 * np.eye(2), atol=1e-12)
    assert abs(depolarize(s, 0.3).trace() - s.trace()) < 1e-12
    with pytest.raises(ValueError):
        depolarize(s, 1.5)


def test_json_round_trip():
    s = random_state(2, "mixed", 51).scaled(1.7)
    payload = state_to_json_dict(s)
    assert payload["n"] == 2
    back = state_from_json_dict(payload)
    np.testing.assert_allclose(back.rho, s.rho, atol=1e-15)


def test_json_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        state_from_json_dict({"matrix": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        state_from_json_dict({"n": 1, "matrix": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError):
        state_from_json_dict({"n": 1, "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]})
    # "n" must be a JSON integer: null, a fraction, a boolean or a string is refused by name
    basis0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for n in (None, 1.7, True, "1"):
        with pytest.raises(ValueError, match="'n'"):
            state_from_json_dict({"n": n, "matrix": basis0})
    # entries must be JSON numbers that fit in a float: numeric strings, booleans
    # and null are refused by type, as is an integer beyond the float range
    for entry, name in (("0.5", "str"), (" 0.5 ", "str"), ("5e-1", "str"), (True, "bool"),
                        (False, "bool"), (None, "NoneType"), (10**400, "int")):
        matrix = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [entry, 0.0]]]
        with pytest.raises(ValueError, match=name):
            state_from_json_dict({"n": 1, "matrix": matrix})
    # valid shape but not a state
    with pytest.raises(ContractError):
        state_from_json_dict(
            {"n": 1, "matrix": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        )


def test_json_loader_shares_the_kernel_psd_floor():
    # smallest eigenvalue -6e-10 * max|rho|: w_spectrum refuses it, so the loader must too
    low = QubitState._adopt(1, np.asarray(np.diag([1.0, -6e-10]), complex))
    with pytest.raises(PositivityError):
        w_spectrum(low)
    with pytest.raises(PositivityError):
        state_from_json_dict(state_to_json_dict(low))
    # drift inside the floor still loads, and the kernel accepts it
    drift = QubitState._adopt(1, np.asarray(np.diag([1.0, -5e-11]), complex))
    drift = state_from_json_dict(state_to_json_dict(drift))
    assert w_spectrum(drift).shape == (2,)
