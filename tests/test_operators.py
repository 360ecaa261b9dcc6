import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import thermalqfi.operators as operators
from thermalqfi.operators import (
    EigensolverError,
    NotHermitianError,
    commutator_i,
    eigendecompose,
    hermiticity_defect,
    matrix_exp_scaled,
    require_hermitian,
    require_unitary,
    seminorm,
    variance,
)
from thermalqfi.spin import spin_operators
from thermalqfi.thermal import gibbs_state, partition_moment_ratio

from conftest import hermitian_matrices, hermitian_pairs, random_hermitian, record_solver_calls


class TestEigendecompose:
    def test_jz_half(self):
        _, _, jz = spin_operators(1)
        dec = eigendecompose(jz)
        np.testing.assert_allclose(dec.eigenvalues, [-0.5, 0.5], atol=1e-14)

    def test_jy_spin1_spectrum(self):
        _, jy, _ = spin_operators(2)
        dec = eigendecompose(jy)
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_reconstruction_random_4x4(self):
        # oracle: direct multiplication V diag(E) V^dagger
        rng = np.random.default_rng(42)
        a = random_hermitian(rng, 4)
        dec = eigendecompose(a)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - a)) <= 1e-10

    def test_battery_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            a = random_hermitian(rng, dim)
            dec = eigendecompose(a)
            eye = np.eye(dim)
            v = dec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - eye)) <= 1e-10
            rebuilt = (v * dec.eigenvalues) @ v.conj().T
            assert np.max(np.abs(rebuilt - a)) <= 1e-10 * max(1.0, np.max(np.abs(a)))
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_deterministic_for_identical_input(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 6)
        d1 = eigendecompose(a)
        d2 = eigendecompose(a.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square_and_nan(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((2, 3)))
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            eigendecompose(bad)


class TestMatrixExpScaled:
    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 5)
        np.testing.assert_allclose(matrix_exp_scaled(a, 0.0), np.eye(5), atol=1e-12)

    def test_jz_rotation_phases(self):
        # diagonal input evaluates entry by entry: exp(-i pi Jz) on J=1/2
        _, _, jz = spin_operators(1)
        u = matrix_exp_scaled(jz, -1j * math.pi)
        expected = np.diag([np.exp(0.5j * math.pi), np.exp(-0.5j * math.pi)])
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 6)
        u = matrix_exp_scaled(a, -1.7j)
        require_unitary(u)

    def test_real_scale_positive_definite(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        m = matrix_exp_scaled(a, -0.3)
        assert hermiticity_defect(m) <= 1e-12 * np.max(np.abs(m))
        assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_overflow_guard(self):
        a = np.diag([800.0, 0.0]).astype(complex)
        with pytest.raises(OverflowError, match="log domain"):
            matrix_exp_scaled(a, 1.0)


class TestCommutator:
    def test_angular_momentum_algebra(self):
        jx, jy, jz = spin_operators(3)
        np.testing.assert_allclose(commutator_i(jx, jy), -jz, atol=1e-12)

    def test_self_commutator_vanishes(self):
        jx, _, _ = spin_operators(4)
        assert np.max(np.abs(commutator_i(jx, jx))) == 0.0

    def test_against_direct_product_oracle(self):
        jx, jy, jz = spin_operators(2)
        oracle = 1j * (jz @ jx - jx @ jz)
        got = commutator_i(jz, jx)
        assert np.max(np.abs(got - oracle)) <= 1e-12
        np.testing.assert_allclose(got, -jy, atol=1e-12)

    @given(hermitian_pairs(max_dim=6))
    def test_antisymmetry(self, pair):
        a, b = pair
        np.testing.assert_allclose(commutator_i(a, b), -commutator_i(b, a), atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator_i(np.eye(2), np.eye(3))

    def test_result_hermitian(self):
        rng = np.random.default_rng(9)
        a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
        assert hermiticity_defect(commutator_i(a, b)) == 0.0


class TestSeminorm:
    @pytest.mark.parametrize("twice_j", [1, 2, 3, 7, 20])
    def test_jz_width_is_2j(self, twice_j):
        _, _, jz = spin_operators(twice_j)
        assert seminorm(jz) == pytest.approx(twice_j, abs=1e-12)

    def test_jy_qubit(self):
        _, jy, _ = spin_operators(1)
        assert seminorm(jy) == pytest.approx(1.0, abs=1e-12)

    def test_anticommutator_spin1(self):
        # oracle: explicit 3x3 eigenproblem, spectrum {-1, 0, 1}
        jx, jy, _ = spin_operators(2)
        m = jx @ jy + jy @ jx
        evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        np.testing.assert_allclose(evals, [-1.0, 0.0, 1.0], atol=1e-12)
        assert seminorm(0.5 * (m + m.conj().T)) == pytest.approx(2.0, abs=1e-10)

    @given(hermitian_pairs(max_dim=7))
    @settings(max_examples=60)
    def test_unitary_invariance(self, pair):
        a, g = pair
        u = matrix_exp_scaled(g, -1j)
        conjugated = u @ a @ u.conj().T
        conjugated = 0.5 * (conjugated + conjugated.conj().T)
        assert abs(seminorm(conjugated) - seminorm(a)) <= 1e-9

    def test_zero_iff_identity_multiple(self):
        assert seminorm(2.7 * np.eye(4)) == 0.0
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 4)
        assert seminorm(a) > 0


class TestVariance:
    def test_pure_eigenstate_of_diagonal(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert variance(a, rho) == 0.0

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 10.0])
    def test_qubit_thermal_jy_variance(self, beta):
        # direct 2x2 computation: Tr[rho Jy^2] = 1/4, Tr[rho Jy] = 0
        _, jy, jz = spin_operators(1)
        rho = gibbs_state(jz, beta).density_matrix()
        assert variance(jy, rho) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("twice_j,beta", [(2, 1.0), (5, 0.7), (10, 2.3)])
    def test_jy_variance_partition_identity(self, twice_j, beta):
        # Var[Jy] = (J(J+1) - Z2/Z)/2 for the thermal Jz probe
        j = twice_j / 2.0
        _, jy, jz = spin_operators(twice_j)
        rho = gibbs_state(jz, beta).density_matrix()
        expected = 0.5 * (j * (j + 1.0) - partition_moment_ratio(twice_j, beta))
        assert variance(jy, rho) == pytest.approx(expected, rel=1e-12)

    @given(hermitian_pairs(max_dim=6))
    @settings(max_examples=60)
    def test_bounded_by_squared_seminorm(self, pair):
        a, h = pair
        rho = gibbs_state(h, 1.3).density_matrix()
        assert variance(a, rho) <= seminorm(a) ** 2 / 4.0 + 1e-10

    def test_rejects_unnormalized(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="trace"):
            variance(a, 0.6 * np.eye(2, dtype=complex))

    def test_rejects_non_psd(self):
        a = np.eye(2, dtype=complex)
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            variance(a, rho)


def test_require_hermitian_scale_relative_tolerance():
    a = np.array([[0.0, 1e5], [1e5, 0.0]], dtype=complex)
    a[0, 1] += 1e-9  # below 1e-12 * 1e5 relative tolerance
    require_hermitian(a)
    a[0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        require_hermitian(a)


def test_require_unitary_rejects_scaled_identity():
    with pytest.raises(ValueError, match="unitary"):
        require_unitary(1.5 * np.eye(3))


def _diag(values) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=float)).astype(np.complex128)


def _with_negative_zero_offdiagonal(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    off = ~np.eye(m.shape[0], dtype=bool)
    out[off] = complex(-0.0, -0.0)
    return out


_RNG = np.random.default_rng(20261018)
DIAGONAL_CASES = {
    **{f"jz-{tj}": spin_operators(tj)[2] for tj in (1, 3, 10, 100, 400)},
    "unsorted": _diag([3.0, -1.0, 2.0, 0.5]),
    "unsorted-200": _diag(_RNG.normal(size=200)),
    "degenerate": _diag([2.0, 1.0, 1.0, 0.0, 1.0]),
    "degenerate-60": _diag(np.round(_RNG.normal(size=60)) + 0.0),
    "signed-zeros": _diag([0.0, -0.0, 1.0]),
    "negative-zero-offdiagonal": _with_negative_zero_offdiagonal(spin_operators(4)[2]),
}


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _eigenspaces(evals, evecs):
    """For each distinct eigenvalue, the set of unit vectors spanning its eigenspace."""
    rows = np.argmax(np.abs(evecs), axis=0)
    return {float(e): frozenset(rows[evals == e].tolist()) for e in np.unique(evals)}


class TestDiagonalFastPath:
    """A diagonal input skips the eigensolver and the dense products and must
    give what the dense path gives, bit for bit."""

    def test_diagonal_detection(self):
        jx, _, jz = spin_operators(6)
        assert _bits(operators._diagonal_of(jz)) == _bits(np.diagonal(jz))
        assert operators._diagonal_of(DIAGONAL_CASES["negative-zero-offdiagonal"]) is not None
        assert operators._diagonal_of(jz.T) is not None
        assert operators._diagonal_of(np.eye(1, dtype=np.complex128)) is not None
        assert operators._diagonal_of(jx) is None
        late = jz.copy()
        late[6, 2] = 1e-300
        assert operators._diagonal_of(late) is None

    @pytest.mark.parametrize("twice_j", [1, 3, 10, 100, 400])
    def test_jz_eigh_is_the_exact_identity(self, twice_j):
        _, _, jz = spin_operators(twice_j)
        evals, evecs = np.linalg.eigh(jz)
        assert _bits(evecs) == _bits(np.eye(twice_j + 1, dtype=np.complex128))
        assert _bits(evals) == _bits(np.diagonal(jz).real)
        dec = eigendecompose(jz)
        np.testing.assert_array_equal(dec.order, np.arange(twice_j + 1))
        assert dec.source is jz
        assert dec.to_eigenbasis(jz) is jz

    @pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
    def test_eigendecompose_matches_eigh(self, name, monkeypatch):
        a = DIAGONAL_CASES[name]
        evals, evecs = np.linalg.eigh(a)

        def refuse(*args, **kwargs):
            raise AssertionError("the eigensolver ran on a diagonal matrix")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        dec = eigendecompose(a)
        assert _bits(dec.eigenvalues) == _bits(evals)
        if len(np.unique(evals)) == len(evals):
            assert _bits(dec.eigenvectors) == _bits(evecs)
        else:
            # within an eigenspace the gauge is arbitrary; LAPACK's selection
            # sort may order the unit vectors differently from a stable sort
            assert _eigenspaces(dec.eigenvalues, dec.eigenvectors) == _eigenspaces(evals, evecs)

    @pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
    def test_to_eigenbasis_matches_dense_product(self, name):
        a = DIAGONAL_CASES[name]
        dec = eigendecompose(a)
        op = random_hermitian(np.random.default_rng(7), a.shape[0])
        v = dec.eigenvectors
        assert _bits(dec.to_eigenbasis(op)) == _bits(v.conj().T @ op @ v)

    @pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
    def test_seminorm_matches_eigvalsh(self, name, monkeypatch):
        a = DIAGONAL_CASES[name]
        evals = np.linalg.eigvalsh(a)

        def refuse(*args, **kwargs):
            raise AssertionError("the eigensolver ran on a diagonal matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert repr(seminorm(a)) == repr(float(evals[-1] - evals[0]))

    @pytest.mark.parametrize("name", sorted(set(DIAGONAL_CASES) - {"signed-zeros"}))
    def test_commutator_matches_explicit_products(self, name):
        a = DIAGONAL_CASES[name]
        b = random_hermitian(np.random.default_rng(7), a.shape[0])
        x = 1j * (a @ b - b @ a)
        assert _bits(commutator_i(a, b)) == _bits(0.5 * (x + x.conj().T))

    @pytest.mark.parametrize("a", [DIAGONAL_CASES["signed-zeros"], -spin_operators(40)[2]], ids=["signed-zeros", "negated-jz"])
    def test_a_negative_zero_on_the_diagonal_agrees_in_value(self, a):
        """A -0.0 on the diagonal (-J_z at integer J has one, in both parts)
        times an entry of B is an exact zero whose sign depends on the BLAS
        kernel, and LAPACK does not keep the sign of a zero eigenvalue
        either; everything else stays bit for bit."""
        n = a.shape[0]
        b = random_hermitian(np.random.default_rng(7), n)
        evals, evecs = np.linalg.eigh(a)
        dec = eigendecompose(a)
        np.testing.assert_array_equal(dec.eigenvalues, evals)
        assert _bits(dec.eigenvectors) == _bits(evecs)
        x = 1j * (a @ b - b @ a)
        fast, dense = commutator_i(a, b), 0.5 * (x + x.conj().T)
        np.testing.assert_array_equal(fast, dense)
        nonzero = dense != 0
        assert _bits(fast[nonzero]) == _bits(dense[nonzero])

    def test_validated_skips_the_scans_but_not_the_shape_check(self, monkeypatch):
        _, _, jz = spin_operators(4)

        def refuse(*args, **kwargs):
            raise AssertionError("validated input was scanned again")

        monkeypatch.setattr(operators, "require_hermitian", refuse)
        assert seminorm(jz, validated=True) == 4.0
        assert _bits(commutator_i(jz, jz, validated=True)) == _bits(np.zeros((5, 5), dtype=np.complex128))
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator_i(jz, np.eye(3, dtype=np.complex128), validated=True)


class TestValidators:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)])
    def test_non_finite_entries_refused(self, entry):
        m = np.eye(3, dtype=np.complex128)
        m[1, 2] = entry
        with pytest.raises(ValueError, match="^matrix contains NaN or Inf entries$"):
            operators.as_complex_matrix(m)

    def test_defect_and_message(self):
        a = np.array([[1.0, 2.0 + 1e-3j], [2.0, -1.0]])
        assert hermiticity_defect(a) == 1e-3
        message = "m is not Hermitian: defect 1.000e-03 exceeds tolerance 2.000e-12"
        with pytest.raises(NotHermitianError, match=f"^{re.escape(message)}$"):
            require_hermitian(a, "m")


class TestDebugResidue:
    """The discarded anti-Hermitian residue is measured only for the DEBUG log."""

    @staticmethod
    def _pair():
        a, b = spin_operators(4)[:2]
        b = b.copy()
        b[0, 1] += 1e-14  # within tolerance, so the commutator has a nonzero residue
        return a, b

    def test_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="thermalqfi.operators"):
            commutator_i(*self._pair())
        assert "commutator_i: symmetrized away anti-Hermitian residue" in caplog.text

    def test_not_measured_without_debug(self, caplog, monkeypatch):
        a, b = self._pair()
        expected = commutator_i(a, b)

        def refuse(*args, **kwargs):
            raise AssertionError("residue measured with DEBUG off")

        monkeypatch.setattr(operators, "hermiticity_defect", refuse)
        with caplog.at_level(logging.INFO, logger="thermalqfi.operators"):
            got = commutator_i(a, b, validated=True)
        assert _bits(got) == _bits(expected)


def _jx_squared(twice_j):
    jx, _, _ = spin_operators(twice_j)
    x = jx @ jx
    return 0.5 * (x + x.conj().T)


def _lmg(twice_j, lam):
    _, _, jz = spin_operators(twice_j)
    return _jx_squared(twice_j) + lam * jz


def _halves(dim):
    return [((dim + 1) // 2, False), (dim // 2, False)]


class TestParityBlocks:
    @pytest.mark.parametrize("twice_j", [10, 11, 100, 101, 200, 400])
    def test_jx_squared_width(self, twice_j, monkeypatch):
        # the eigenvalues of J_x^2 are M^2, so its width is J^2 (integer J)
        # or J^2 - 1/4 (half-integer J)
        j = twice_j / 2.0
        expected = j * j if twice_j % 2 == 0 else j * j - 0.25
        calls = record_solver_calls(monkeypatch, "eigvalsh")
        assert seminorm(_jx_squared(twice_j)) == pytest.approx(expected, rel=1e-12, abs=0.0)
        dim = twice_j + 1
        assert calls == (_halves(dim) if dim > operators.DENSE_MAX_DIM else [(dim, True)])

    def test_threshold_keeps_every_verify_dimension_dense(self):
        # criterion 8 takes seminorms up to 2J = 80, and the figures run at 2J = 10
        assert operators.DENSE_MAX_DIM >= 81

    @pytest.mark.parametrize("offset, split", [(0, False), (1, True)], ids=["at", "above"])
    def test_one_full_size_solve_at_the_threshold(self, offset, split, monkeypatch):
        dim = operators.DENSE_MAX_DIM + offset
        h = _lmg(dim - 1, 0.3)
        eighs = record_solver_calls(monkeypatch, "eigh")
        eigvalshs = record_solver_calls(monkeypatch, "eigvalsh")
        dec = eigendecompose(h)
        seminorm(h)
        assert (dec.blocks is not None) == split
        expected = _halves(dim) if split else [(dim, True)]
        assert eighs == expected
        assert eigvalshs == expected

    def test_no_split_across_parity(self, monkeypatch):
        jx, _, _ = spin_operators(100)  # J_x flips the parity of J + M
        calls = record_solver_calls(monkeypatch, "eigh")
        assert eigendecompose(jx).blocks is None
        assert calls == [(101, True)]

    def test_complex_blocks_stay_complex(self, monkeypatch):
        _, _, jz = spin_operators(100)
        c = commutator_i(jz, _jx_squared(100))  # i times a real antisymmetric matrix
        calls = record_solver_calls(monkeypatch, "eigvalsh")
        width = seminorm(c)
        assert calls == [(51, True), (50, True)]
        evals = np.linalg.eigvalsh(c)
        assert width == pytest.approx(evals[-1] - evals[0], rel=1e-12)

    @pytest.mark.parametrize("twice_j", [100, 101])
    def test_block_decomposition_matches_dense(self, twice_j):
        h = _lmg(twice_j, -0.7)
        dec = eigendecompose(h)
        assert dec.blocks is not None
        assert all(not np.iscomplexobj(block.vectors) for block in dec.blocks)
        scale = float(np.abs(h).max())
        dense = np.linalg.eigvalsh(h)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        assert np.max(np.abs(dec.eigenvalues - dense)) <= 1e-12 * scale
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(twice_j + 1))) <= 1e-12
        assert np.max(np.abs((v * dec.eigenvalues) @ v.conj().T - h)) <= 1e-12 * scale
        jx, _, jz = spin_operators(twice_j)
        ops = {"diagonal": jz, "cross-parity": jx, "dense": random_hermitian(np.random.default_rng(5), twice_j + 1)}
        for name, op in ops.items():
            x = dec.to_eigenbasis(op)
            assert np.max(np.abs(x - v.conj().T @ op @ v)) <= 1e-12 * twice_j, name
            assert np.max(np.abs(dec.from_eigenbasis(x) - op)) <= 1e-12 * twice_j, name

    def test_basis_changes_keep_exact_zeros_across_parity(self):
        dec = eigendecompose(_lmg(100, 1.0))
        _, _, jz = spin_operators(100)
        back = dec.from_eigenbasis(dec.to_eigenbasis(jz) * (1.0 + 0.5j))
        assert not back[0::2, 1::2].any() and not back[1::2, 0::2].any()

    def test_residual_contract_per_block(self, monkeypatch):
        h = _lmg(100, 1.0)
        original = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            evals, evecs = original(a, *args, **kwargs)
            return evals, evecs * (1.0 + 1e-8)

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(EigensolverError, match="residual contract"):
            eigendecompose(h)
