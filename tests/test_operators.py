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
from thermalqfi.models import lmg_hamiltonian
from thermalqfi.spin import spin_operator_forms, spin_operators
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
        np.testing.assert_allclose(commutator_i(jx, jy).matrix, -jz, atol=1e-12)

    def test_self_commutator_vanishes(self):
        jx, _, _ = spin_operators(4)
        assert np.max(np.abs(commutator_i(jx, jx).matrix)) == 0.0

    def test_against_direct_product_oracle(self):
        jx, jy, jz = spin_operators(2)
        oracle = 1j * (jz @ jx - jx @ jz)
        got = commutator_i(jz, jx).matrix
        assert np.max(np.abs(got - oracle)) <= 1e-12
        np.testing.assert_allclose(got, -jy, atol=1e-12)

    @given(hermitian_pairs(max_dim=6))
    def test_antisymmetry(self, pair):
        a, b = pair
        np.testing.assert_allclose(commutator_i(a, b).matrix, -commutator_i(b, a).matrix, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator_i(np.eye(2), np.eye(3))

    def test_result_hermitian(self):
        rng = np.random.default_rng(9)
        a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
        assert hermiticity_defect(commutator_i(a, b).matrix) == 0.0


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


def _layout(record: operators.Hermitian):
    """A record's form and its tridiagonal flags, one per block: one
    unflagged block is a dense matrix."""
    return record.form, record.tridiagonal


def _eigenspaces(evals, evecs):
    """For each distinct eigenvalue, the set of unit vectors spanning its eigenspace."""
    rows = np.argmax(np.abs(evecs), axis=0)
    return {float(e): frozenset(rows[evals == e].tolist()) for e in np.unique(evals)}


class TestDiagonalFastPath:
    """A diagonal input skips the eigensolver and the dense products and must
    give what the dense path gives, bit for bit."""

    def test_diagonal_detection(self):
        jx, _, jz = spin_operators(6)
        record = operators.operator_form(jz)
        assert record.form == "diagonal" and _bits(record.parts[0]) == _bits(np.diagonal(jz))
        assert _bits(record.matrix) == _bits(jz)  # the dense array rebuilt from the diagonal
        assert operators.operator_form(DIAGONAL_CASES["negative-zero-offdiagonal"]).form == "diagonal"
        assert operators.operator_form(jz.T).form == "diagonal"
        assert operators.operator_form(np.eye(1, dtype=np.complex128)).form == "diagonal"
        assert _layout(operators.operator_form(jx)) == ("blocks", (False,))  # one dense block
        late = jz.copy()
        late[6, 2] = 1e-300
        assert _layout(operators.operator_form(late)) == ("blocks", (False,))

    @pytest.mark.parametrize("twice_j", [1, 3, 10, 100, 400])
    def test_jz_eigh_is_the_exact_identity(self, twice_j):
        _, _, jz = spin_operators(twice_j)
        evals, evecs = np.linalg.eigh(jz)
        assert _bits(evecs) == _bits(np.eye(twice_j + 1, dtype=np.complex128))
        assert _bits(evals) == _bits(np.diagonal(jz).real)
        dec = eigendecompose(jz)
        np.testing.assert_array_equal(dec.order, np.arange(twice_j + 1))
        assert _bits(dec.source.matrix) == _bits(jz)
        assert _bits(dec.to_eigenbasis(jz).matrix) == _bits(jz)

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
        assert _bits(dec.to_eigenbasis(op).matrix) == _bits(v.conj().T @ op @ v)

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
        assert _bits(commutator_i(a, b).matrix) == _bits(0.5 * (x + x.conj().T))

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
        fast, dense = commutator_i(a, b).matrix, 0.5 * (x + x.conj().T)
        np.testing.assert_array_equal(fast, dense)
        nonzero = dense != 0
        assert _bits(fast[nonzero]) == _bits(dense[nonzero])

    def test_records_skip_the_scans_but_not_the_shape_check(self, monkeypatch):
        _, _, jz = spin_operators(4)
        record, small = operators.operator_form(jz), operators.operator_form(np.eye(3, dtype=np.complex128))

        def refuse(*args, **kwargs):
            raise AssertionError("a record was scanned again")

        monkeypatch.setattr(operators, "require_hermitian", refuse)
        assert seminorm(record) == 4.0
        product = commutator_i(record, record)
        assert product.form == "diagonal" and _bits(product.matrix) == _bits(np.zeros((5, 5), dtype=np.complex128))
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator_i(record, small)


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


def _stack(seed, k, dim, skewed=None):
    """k random Hermitian matrices of one dimension; member skewed, if
    given, gets a 1e-3 anti-Hermitian defect."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, dim) for _ in range(k)])
    if skewed is not None:
        stack[skewed, 0, dim - 1] += 1e-3j
    return stack


STACKS = {
    "dim2": _stack(1, 5, 2),
    "dim5": _stack(2, 3, 5),
    "dim8-one-non-hermitian": _stack(3, 4, 8, skewed=2),
}


class TestStacks:
    """hermiticity_defect, _residuals and the dense branch of commutator_i
    take (k, n, n) stacks and give the per-matrix bits; eigendecompose of
    a dense stack record gives the bits of per-matrix eigh. The stack
    helpers raise
    EigensolverError on a LAPACK error or a missed certificate, with the
    stack's shape and the first matrix that misses."""

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_hermiticity_defect(self, name):
        stack = STACKS[name]
        assert _bits(hermiticity_defect(stack)) == _bits(np.array([hermiticity_defect(m) for m in stack]))

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_residuals(self, name):
        stack = STACKS[name]
        evals, evecs = np.linalg.eigh(stack)
        ortho, recon = operators._residuals(evals, evecs, stack)
        single = [operators._residuals(e, v, m) for e, v, m in zip(evals, evecs, stack)]
        assert _bits(ortho) == _bits(np.array([o for o, _ in single]))
        assert _bits(recon) == _bits(np.array([r for _, r in single]))

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_commutator(self, name):
        # records: the stacks are taken as they are, unscanned
        a, b = STACKS[name], STACKS[name][::-1].copy()
        single = np.array([commutator_i(operators._blocks(x), operators._blocks(y)).matrix for x, y in zip(a, b)])
        assert _bits(commutator_i(operators._blocks(a), operators._blocks(b)).matrix) == _bits(single)

    @pytest.mark.parametrize("name", sorted(set(STACKS) - {"dim8-one-non-hermitian"}))
    def test_eigendecompose_of_a_stack(self, name):
        stack = STACKS[name]
        dec = eigendecompose(operators._blocks(stack), "H stack")
        for e, v, m in zip(dec.eigenvalues, dec.eigenvectors, stack):
            dec = eigendecompose(m)
            assert _bits(e) == _bits(dec.eigenvalues) and _bits(v) == _bits(dec.eigenvectors)

    def test_eigendecompose_of_a_stack_raises_the_certificate_error_of_its_first_matrix(self, monkeypatch):
        stack = STACKS["dim5"]
        monkeypatch.setattr(operators, "RECONSTRUCTION_RTOL", -1.0)
        with pytest.raises(EigensolverError) as single:
            eigendecompose(stack[0], "H")
        message = str(single.value).replace(
            "of H misses its residual contract", "of H stack misses its residual contract at matrix 0"
        )
        with pytest.raises(EigensolverError, match=f"^{re.escape(message)}$"):
            eigendecompose(operators._blocks(stack), "H stack")

    def test_eigendecompose_of_a_stack_names_the_first_matrix_that_misses(self, monkeypatch):
        stack = STACKS["dim5"]
        original = np.linalg.eigh

        def skewed(a):
            evals, evecs = original(a)
            evecs[1:] *= 1.0 + 1e-6  # matrices 1 and 2 lose orthonormality
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        ortho, recon = operators._residuals(*skewed(stack), stack)
        message = (
            f"eigendecomposition of H stack misses its residual contract at matrix 1: orthonormality "
            f"{ortho[1]:.3e}, reconstruction {recon[1]:.3e} (scale {max(1.0, np.abs(stack[1]).max()):.3e})"
        )
        with pytest.raises(EigensolverError, match=f"^{re.escape(message)}$"):
            eigendecompose(operators._blocks(stack), "H stack")

    @pytest.mark.parametrize("solver, helper", [("eigh", "eigendecompose"), ("eigvalsh", "_widths")])
    def test_a_lapack_error_raises_for_the_stack(self, monkeypatch, solver, helper):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, failing)
        message = "eigensolver failed on a 4x8x8 H stack: Eigenvalues did not converge (hermiticity defect 1.000e-03)"
        stack = STACKS["dim8-one-non-hermitian"]
        with pytest.raises(EigensolverError, match=f"^{re.escape(message)}$"):
            getattr(operators, helper)(operators._blocks(stack), "H stack")

    def test_a_stack_in_several_blocks_or_diagonal_is_refused(self):
        h = lmg_hamiltonian(100, 0.6)
        with pytest.raises(ValueError, match="^eigendecompose takes a stack only as one block; this H stack is in 2 blocks$"):
            eigendecompose(operators.concatenate([h.member(None)] * 2), "H")
        with pytest.raises(ValueError, match="^eigendecompose takes a stack only as one block; this H stack is diagonal$"):
            eigendecompose(operators._diagonal(np.array([[1.0, 2.0], [3.0, 0.0]])), "H")


class TestNonFiniteSpectra:
    """A record skips the gate's finiteness scan, so a non-finite entry
    reaches LAPACK, which returns NaN eigenvalues rather than failing."""

    @staticmethod
    def _nan_pair():
        m = np.eye(3, dtype=np.complex128)
        m[0, 1] = m[1, 0] = np.nan
        return operators._blocks(m)

    def test_eigendecompose_raises(self):
        message = "eigensolver failed on a 3x3 H: non-finite eigenvalue (hermiticity defect nan)"
        with pytest.raises(EigensolverError, match=f"^{re.escape(message)}$"):
            eigendecompose(self._nan_pair(), "H")

    def test_seminorm_raises(self):
        with pytest.raises(EigensolverError, match="non-finite eigenvalue"):
            seminorm(self._nan_pair())

    def test_an_overflowing_lmg_hamiltonian_raises(self):
        with np.errstate(over="ignore"):
            h = lmg_hamiltonian(4, 1e308)  # lambda J_z overflows to inf
        with pytest.raises(EigensolverError, match="non-finite eigenvalue"):
            eigendecompose(h)

    @staticmethod
    def _non_finite_diagonal(kind):
        if kind == "nan":
            return operators._diagonal(np.array([-1.0, np.nan, 1.0]))
        with np.errstate(over="ignore"):
            return 1e308 * spin_operator_forms(4)[2]  # J_z: -2e308 and 2e308 overflow to -inf and inf

    @pytest.mark.parametrize("kind", ["overflow", "nan"])
    def test_a_diagonal_record_takes_the_same_rule(self, kind):
        # read off the diagonal, with no solve, and refused before any
        # arithmetic on it can warn (the suite makes a RuntimeWarning an error)
        r = self._non_finite_diagonal(kind)
        n = r.dim
        message = f"eigensolver failed on a {n}x{n} H: non-finite eigenvalue (hermiticity defect nan)"
        with pytest.raises(EigensolverError, match=f"^{re.escape(message)}$"):
            eigendecompose(r, "H")
        with pytest.raises(EigensolverError, match="non-finite eigenvalue"):
            seminorm(r)

    def test_a_diagonal_stack_takes_the_same_rule(self):
        stack = operators._diagonal(np.array([[-1.0, 0.0, 1.0], [-1.0, np.inf, 1.0]]))
        with pytest.raises(EigensolverError, match="^eigensolver failed on a 2x3x3 C: non-finite eigenvalue"):
            operators._widths(stack, "C")

    @pytest.mark.parametrize("ortho, recon", [(np.nan, 0.0), (0.0, np.nan), (np.array([0.0, np.nan]), np.zeros(2))])
    def test_a_nan_residual_misses_the_certificate(self, ortho, recon):
        with pytest.raises(EigensolverError, match="misses its residual contract"):
            operators._certify(ortho, recon, np.ones(np.shape(ortho)), "H")


def _mixed_stack(dim):
    """A stack of dense, diagonal, zero and tridiagonal Hermitian matrices."""
    rng = np.random.default_rng(dim)
    jx, jy, jz = spin_operators(dim - 1)
    return np.array([
        random_hermitian(rng, dim), jz, np.zeros((dim, dim), dtype=np.complex128), 2.3 * jx,
        commutator_i(jz, 0.7 * jy).matrix, np.diag(rng.normal(size=dim)).astype(np.complex128),
    ])


def _detected_member_forms(stack):
    """The form of each member of a stack array: diagonal, or blocks (one
    dense block up to DENSE_MAX_DIM)."""
    return tuple(operators.operator_form(m).form for m in stack)


def _stack_widths(stack: operators.Hermitian) -> list[float]:
    return operators._widths(stack, "stack").tolist()


class TestStackedBasisAndWidths:
    """The basis changes and the widths take a stack with the bits of
    per-matrix calls."""

    @pytest.mark.parametrize("dim", [2, 3, 11, 81, 82, 102])
    def test_stacked_widths_have_the_bits_of_seminorm(self, dim):
        stack = _mixed_stack(dim)
        forms = _detected_member_forms(stack)
        widths = _stack_widths(operators._blocks(stack))
        # up to DENSE_MAX_DIM these are the forms the gate finds on each member
        assert repr(widths) == repr([seminorm(m if f == "diagonal" else operators._blocks(m)) for m, f in zip(stack, forms)])

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("twice_j", [100, 101, 400])
    def test_block_stacks_above_the_threshold_have_the_bits_of_seminorm(self, twice_j, k, monkeypatch):
        # H(lambda) in real blocks, and C = i[J_z, H(lambda)] in complex tridiagonal ones
        hamiltonians = [lmg_hamiltonian(twice_j, lam) for lam in (0.6, -0.7, 1.0)[:k]]
        _, _, jz = spin_operators(twice_j)
        for members in (hamiltonians, [commutator_i(jz, h) for h in hamiltonians]):
            stack = operators.concatenate([h.member(None) for h in members])
            assert stack.form == "blocks" and stack.shape == (k, twice_j + 1, twice_j + 1)
            calls = record_solver_calls(monkeypatch, "eigvalsh")
            widths = _stack_widths(stack)
            assert sorted(calls) == [((twice_j + 1) // 2, False), ((twice_j + 2) // 2, False)]
            monkeypatch.undo()
            assert repr(widths) == repr([seminorm(h) for h in members])

    @pytest.mark.parametrize("twice_j", [100, 101, 400])
    def test_a_tridiagonal_stack_above_the_threshold_has_the_bits_of_seminorm(self, twice_j, monkeypatch):
        # the linear model's C = i[J_z, t J_x] at three times
        jx, _, jz = spin_operators(twice_j)
        members = [commutator_i(jz, operators._blocks(t * jx, tridiagonal=[True])) for t in (0.7, 2.3, 3.14)]
        stack = operators.concatenate([c.member(None) for c in members])
        assert _layout(stack) == ("blocks", (True,)) and stack.shape == (3, twice_j + 1, twice_j + 1)
        calls = record_solver_calls(monkeypatch, "eigvalsh")
        widths = _stack_widths(stack)
        assert calls == [(twice_j + 1, False)]  # one real solve for the whole stack
        monkeypatch.undo()
        assert repr(widths) == repr([seminorm(c) for c in members])

    def test_diagonal_members_make_no_solver_call(self, monkeypatch):
        ones = np.array([[2.0 + 0j], [-1.0]])
        assert repr(_stack_widths(operators._diagonal(ones))) == "[0.0, 0.0]"
        stack = _mixed_stack(11)
        calls = record_solver_calls(monkeypatch, "eigvalsh", key=lambda a: a.shape)
        diagonal = np.diagonal(stack[[1, 2, 5]], axis1=1, axis2=2)
        _stack_widths(operators._diagonal(diagonal))
        assert calls == []  # a diagonal stack is read off its diagonals
        _stack_widths(operators._blocks(stack))
        assert calls == [(6, 11, 11)]  # a mixed stack is one dense block: every member, in one call

    @pytest.mark.parametrize(
        "source",
        [
            lambda: np.diag([2.0, -1.0, 0.5, 3.0, -1.0]),  # diagonal, a reordering
            lambda: spin_operators(4)[2],  # diagonal, the identity order
            lambda: random_hermitian(np.random.default_rng(4), 5),  # dense
            lambda: _lmg(101, 0.6),  # parity blocks
        ],
        ids=["reordered", "identity", "dense", "blocks"],
    )
    def test_basis_changes_of_a_stack_have_the_per_matrix_bits(self, source):
        dec = eigendecompose(source())
        dim = dec.source_dim
        rng = np.random.default_rng(dim)
        _, jy, _ = spin_operators(dim - 1)
        # no diagonal member: a 2-D diagonal operator takes the scaling
        # shortcut, whose bits may differ from the product's
        stack = np.array([random_hermitian(rng, dim), 1.7 * _jx_squared(dim - 1), jy])
        x = dec.to_eigenbasis(operators._blocks(stack)).matrix
        assert _bits(x) == _bits(np.array([dec.to_eigenbasis(operators._blocks(m)).matrix for m in stack]))
        assert _bits(dec.from_eigenbasis(x)) == _bits(np.array([dec.from_eigenbasis(m) for m in x]))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "source",
        [
            lambda: random_hermitian(np.random.default_rng(4), 5),  # dense
            lambda: lmg_hamiltonian(101, 0.6),  # parity blocks
        ],
        ids=["dense", "blocks"],
    )
    def test_a_diagonal_stack_scales_the_rows(self, source, k):
        dec = eigendecompose(source())
        n = dec.source_dim
        d = np.random.default_rng(k).normal(size=(k, n))
        got = dec.to_eigenbasis(operators._diagonal(d)).matrix
        expected = np.zeros((k, n, n), dtype=np.complex128)
        k_blocks = len(dec.blocks)  # one for a dense source
        for x, row in zip(expected, d):
            for b in dec.blocks:
                x[np.ix_(b.positions, b.positions)] = (b.vectors.conj().T * row[b.start :: k_blocks]) @ b.vectors
        assert got.shape == (k, n, n) and _bits(got) == _bits(expected)


class TestLinearAboveTheThreshold:
    """Above DENSE_MAX_DIM the linear model's J_x, J_y and C = i[J_z, t J_a]
    do not split by parity, but are Hermitian tridiagonal: seminorm solves
    each as one real tridiagonal matrix."""

    @pytest.mark.parametrize("twice_j", [100, 101, 200, 400])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_widths_match_the_dense_complex_solve(self, twice_j, axis, monkeypatch):
        jx, jy, jz = spin_operators(twice_j)
        generator = {"x": jx, "y": jy}[axis]
        dim = twice_j + 1
        for m in (generator, commutator_i(jz, 2.3 * generator).matrix):
            dense = np.linalg.eigvalsh(m)
            calls = record_solver_calls(monkeypatch, "eigvalsh")
            width = seminorm(m)
            assert calls == [(dim, False)]  # one real solve per width
            monkeypatch.undo()
            assert width == pytest.approx(dense[-1] - dense[0], rel=1e-12, abs=0.0)

    def test_at_the_threshold_the_solve_stays_complex(self, monkeypatch):
        jx, _, _ = spin_operators(operators.DENSE_MAX_DIM - 1)
        calls = record_solver_calls(monkeypatch, "eigvalsh")
        seminorm(jx)
        assert calls == [(operators.DENSE_MAX_DIM, True)]


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
        expected = commutator_i(a, b).matrix

        def refuse(*args, **kwargs):
            raise AssertionError("residue measured with DEBUG off")

        monkeypatch.setattr(operators, "hermiticity_defect", refuse)
        with caplog.at_level(logging.INFO, logger="thermalqfi.operators"):
            # records: the gate's tolerance check of b would measure its defect
            got = commutator_i(operators.operator_form(a), operators.operator_form(b)).matrix
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
        assert len(dec.blocks) == (2 if split else 1)  # a dense matrix is one block
        expected = _halves(dim) if split else [(dim, True)]
        assert eighs == expected
        assert eigvalshs == expected

    def test_no_split_across_parity(self, monkeypatch):
        jx, _, _ = spin_operators(100)  # J_x flips the parity of J + M
        calls = record_solver_calls(monkeypatch, "eigh")
        (block,) = eigendecompose(jx).blocks  # one full-size block
        assert block.start == 0 and _bits(block.positions) == _bits(np.arange(101))
        assert calls == [(101, True)]

    def test_tridiagonal_complex_blocks_are_solved_real(self, monkeypatch):
        _, _, jz = spin_operators(100)
        c = commutator_i(jz, _jx_squared(100)).matrix  # i times a real antisymmetric matrix
        calls = record_solver_calls(monkeypatch, "eigvalsh")
        width = seminorm(c)
        # each block is Hermitian tridiagonal: a diagonal phase similarity
        # away from a real symmetric one
        assert calls == _halves(101)
        evals = np.linalg.eigvalsh(c)
        assert width == pytest.approx(evals[-1] - evals[0], rel=1e-12)

    def test_complex_blocks_stay_complex(self, monkeypatch):
        from thermalqfi.models import build_scenario

        scenario = build_scenario("lmg", 100, 0.7, 2.3, lam=0.6)
        c = commutator_i(scenario.probe.hamiltonian, scenario.h).matrix  # dense within each block
        calls = record_solver_calls(monkeypatch, "eigvalsh")
        width = seminorm(c)
        assert calls == [(51, True), (50, True)]
        evals = np.linalg.eigvalsh(c)
        assert width == pytest.approx(evals[-1] - evals[0], rel=1e-12)

    @pytest.mark.parametrize("twice_j", [100, 101, 400])
    def test_tridiagonal_block_widths_match_dense(self, twice_j):
        # a Hermitian matrix with offsets 0 and +-2 and random complex
        # phases: each parity block is complex tridiagonal
        rng = np.random.default_rng(twice_j)
        n = twice_j + 1
        m = np.zeros((n, n), dtype=np.complex128)
        k = np.arange(n - 2)
        m[k + 2, k] = rng.normal(size=n - 2) + 1j * rng.normal(size=n - 2)
        m = m + m.conj().T + np.diag(rng.normal(size=n))
        width = seminorm(m)
        evals = np.linalg.eigvalsh(m)
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
            x = dec.to_eigenbasis(op).matrix
            assert np.max(np.abs(x - v.conj().T @ op @ v)) <= 1e-12 * twice_j, name
            assert np.max(np.abs(dec.from_eigenbasis(x) - op)) <= 1e-12 * twice_j, name

    def test_basis_changes_keep_exact_zeros_across_parity(self):
        dec = eigendecompose(_lmg(100, 1.0))
        _, _, jz = spin_operators(100)
        back = dec.from_eigenbasis(dec.to_eigenbasis(jz).matrix * (1.0 + 0.5j))
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

    @pytest.mark.parametrize("twice_j", [82, 100, 101, 200, 400])
    @pytest.mark.parametrize("lam", [0.6, 1.0, -0.7])
    def test_a_diagonal_operator_scales_within_one_rounding_of_the_products(self, twice_j, lam, monkeypatch):
        # to_eigenbasis of a diagonal d on a parity-block decomposition
        # scales V^T (left * d), which BLAS then multiplies in another
        # operand layout than (left @ diag(d)): not the products bit for
        # bit, but within eps * max|d| of them (measured at most 0.4 eps
        # * max|d|, 4.4e-15 at lmg 2J = 101, lambda -0.7)
        from thermalqfi.models import lmg_hamiltonian

        dec = eigendecompose(lmg_hamiltonian(twice_j, lam))
        jz = spin_operators(twice_j)[2]
        scaled = dec.to_eigenbasis(jz).matrix  # the gate finds it diagonal: scaled
        multiplied = dec.to_eigenbasis(operators._blocks(jz)).matrix  # taken as one block: multiplied
        assert dec.blocks is not None
        assert np.max(np.abs(scaled - multiplied)) <= np.finfo(float).eps * np.abs(np.diagonal(jz)).max()


def _tolerance_verdict(m: np.ndarray, what: str):
    """The tolerance path alone, the gate's reference: None when every
    matrix of m passes, else the message raised for the first that fails."""
    tol = operators.HERMITICITY_RTOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    defect = hermiticity_defect(m)
    failed = np.flatnonzero(defect > tol)
    if failed.size == 0:
        return None
    i = failed[0]
    return f"{what} is not Hermitian: defect {defect.flat[i]:.3e} exceeds tolerance {tol.flat[i]:.3e}"


def _gate_verdict(m: np.ndarray, what: str):
    try:
        assert operators._hermitian(m, what) is m
    except NotHermitianError as exc:
        return str(exc)
    return None


@st.composite
def gate_inputs(draw):
    """A matrix or a (k, n, n) stack, real or complex, that is exactly
    Hermitian or carries one defect: just inside or just outside the
    tolerance, a NaN, an infinity, or a pair of zeros of opposite sign.
    Dimensions up to 150 make the gate compare several blocks of rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.one_of(st.integers(1, 12), st.integers(100, 150)))
    k = draw(st.sampled_from([None, 1, 3]))
    is_complex = draw(st.booleans())
    kind = draw(st.sampled_from(["exact", "inside", "outside", "nan", "inf", "inf-pair", "signed-zeros"]))
    shape = (dim, dim) if k is None else (k, dim, dim)
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 5)
    if is_complex:
        x = x + 1j * rng.normal(size=shape)
    m = 0.5 * (x + x.conj().mT)
    member = m if k is None else m[rng.integers(k)]
    i, j = rng.integers(dim, size=2)
    tol = operators.HERMITICITY_RTOL * max(1.0, float(np.abs(member).max()))
    if kind in ("inside", "outside"):
        # a real defect d on an off-diagonal entry is a defect d (an
        # imaginary one on the diagonal, 2 d); the factors keep clear of
        # the entry's rounding
        step = (0.4 if kind == "inside" else 2.5) * tol
        if i == j and is_complex:
            member[i, i] += 0.5j * step
        elif i != j:
            member[i, j] += step
    elif kind == "nan":
        member[i, j] = np.nan
    elif kind in ("inf", "inf-pair"):
        member[i, j] = np.inf
        if kind == "inf-pair":
            member[j, i] = np.inf
    elif kind == "signed-zeros" and i != j:
        member[i, j], member[j, i] = -0.0, 0.0
    return m


class TestExactHermiticityGate:
    """_hermitian compares each matrix with its conjugate transpose once,
    exactly, and computes the tolerance and the defect only when that
    comparison fails: same verdict, same message as the tolerance path."""

    @settings(max_examples=300, deadline=None)
    @given(m=gate_inputs())
    def test_same_verdict_and_message_as_the_tolerance_path(self, m):
        with np.errstate(invalid="ignore"):  # inf - inf in the defect of an infinite entry
            assert _gate_verdict(m, "generator") == _tolerance_verdict(m, "generator")
        if np.isfinite(m).all():
            expected = _tolerance_verdict(m.astype(np.complex128), "generator")
            try:
                for member in [m] if m.ndim == 2 else m:
                    require_hermitian(member, "generator")
            except NotHermitianError as exc:
                assert str(exc) == expected
            else:
                assert expected is None

    def test_an_exactly_hermitian_matrix_measures_no_defect(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("defect measured on an exactly Hermitian matrix")

        monkeypatch.setattr(operators, "hermiticity_defect", refuse)
        require_hermitian(spin_operators(100)[1], "generator")
        operators._hermitian(STACKS["dim5"], "generator")

    @pytest.mark.parametrize("shape", [(401, 401), (3, 201, 201)])
    def test_blocks_of_rows_make_no_full_size_temporary(self, shape):
        import tracemalloc

        x = np.random.default_rng(0).normal(size=shape) + 1j
        m = x + x.conj().mT
        tracemalloc.start()
        try:
            assert operators._exactly_hermitian(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16384 * m.itemsize < m.nbytes
        m[..., -1, -2] += 1e-3  # a defect that only the last block of rows sees
        assert not operators._exactly_hermitian(m)
        assert _gate_verdict(m, "generator") == _tolerance_verdict(m, "generator") is not None


def _old_commutator(a, b, diagonal):
    """commutator_i's out-of-place formula, the reference for its bits: a
    diagonal A scales B."""
    d = np.diagonal(a) if diagonal else None
    x = 1j * (a @ b - b @ a) if d is None else 1j * (d[:, None] * b - b * d[None, :])
    return 0.5 * (x + x.conj().mT)


def _uint64(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestInPlaceSymmetrization:
    """commutator_i and the generators symmetrize in place, with the bits
    of 0.5 (X + X^dagger) formed out of place."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 10),
        k=st.sampled_from([None, 1, 4]),
        a_kind=st.sampled_from(["diagonal", "dense", "dense-stack"]),
        a_complex=st.booleans(),
        b_complex=st.booleans(),
        zeros=st.booleans(),
    )
    def test_commutator_has_the_out_of_place_bits(self, seed, dim, k, a_kind, a_complex, b_complex, zeros):
        rng = np.random.default_rng(seed)

        def hermitian(shape, is_complex):
            x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if is_complex else 0.0)
            h = 0.5 * (x + x.conj().mT)
            if zeros:  # exact zeros of both signs, where the sign of a product's zero shows
                mask = rng.random(shape) < 0.3
                h[mask & np.triu(np.ones((dim, dim), dtype=bool))] = -0.0
                h = np.triu(h) + np.triu(h, 1).conj().mT
            return h

        stack_k = k or 2
        if a_kind == "diagonal":
            a = np.diag(rng.normal(size=dim)) * (1.0 + (0j if a_complex else 0.0))
        else:
            a = hermitian((stack_k, dim, dim) if a_kind == "dense-stack" else (dim, dim), a_complex)
        b = hermitian((dim, dim) if k is None and a_kind != "dense-stack" else (stack_k, dim, dim), b_complex)
        # records, taken as they are: a real stack is never converted on this path
        record_a = operators._diagonal(np.diagonal(a)) if a_kind == "diagonal" else operators._blocks(a)
        got = commutator_i(record_a, operators._blocks(b)).matrix
        assert got.dtype == np.complex128
        assert np.array_equal(_uint64(got), _uint64(_old_commutator(a, b, a_kind == "diagonal")))
        if b.ndim == 2:
            scanned = commutator_i(a, b).matrix
            a, b = a.astype(np.complex128), b.astype(np.complex128)
            expected = _old_commutator(a, b, operators.operator_form(a).form == "diagonal")
            assert np.array_equal(_uint64(scanned), _uint64(expected))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1, 1), (5, 5), (3, 7, 7), (90, 90)]))
    def test_symmetrize_has_the_out_of_place_bits(self, seed, shape):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # signed zeros in either part, and subnormals
        x[rng.random(shape) < 0.2] = complex(-0.0, 0.0)
        x.imag[rng.random(shape) < 0.2] = -0.0
        x.real[rng.random(shape) < 0.1] = 5e-324
        expected = 0.5 * (x + x.conj().mT)
        got = operators._symmetrize(x)
        assert got is x and np.array_equal(_uint64(got), _uint64(expected))

    @pytest.mark.parametrize("twice_j, lam", [(10, 0.6), (101, -0.7)])
    def test_integral_generator_has_the_out_of_place_bits(self, twice_j, lam, monkeypatch):
        import thermalqfi.encoding as encoding
        from thermalqfi.models import model_encoding

        _, family = model_encoding("lmg", twice_j, 2.3, lam=lam)
        spectrum = encoding.encoding_spectrum(family)
        stacks = [np.array(times)[:, None, None] for times in ([2.3], [0.0, 0.7, 2.3])]
        got = [encoding._integral_matrices(spectrum, t).matrix for t in stacks]
        monkeypatch.setattr(encoding, "_symmetrize", lambda h: h)
        for value, t in zip(got, stacks):
            h = encoding._integral_matrices(spectrum, t).matrix
            assert np.array_equal(_uint64(value), _uint64(0.5 * (h + h.conj().mT)))

    def test_finite_difference_generator_has_the_out_of_place_bits(self):
        from thermalqfi.encoding import NumericUnitary, evolution_unitary, generator_fd

        jx, _, jz = spin_operators(6)
        scheme = NumericUnitary(lambda lam: evolution_unitary(jx @ jx + lam * jz, 1.3), 0.4, 1e-4)
        step = scheme.fd_step
        u0, up, um = (np.asarray(scheme.unitary(scheme.lam + s), dtype=np.complex128) for s in (0.0, step, -step))
        raw = 1j * (u0.conj().T @ (up - um)) / (2.0 * step)
        expected = 0.5 * (raw + raw.conj().T)
        assert np.array_equal(_uint64(generator_fd(scheme).matrix), _uint64(expected))


def _overflowing(shape, part):
    """Finite entries whose sum overflows: two 1e308 on the diagonal of each
    matrix, or, in the imaginary part, 1e308j twice above it (not
    Hermitian: the imaginary parts of a Hermitian matrix cancel)."""
    m = np.zeros(shape, dtype=np.complex128)
    if part == "real":
        m[..., 0, 0] = m[..., 1, 1] = 1e308
    else:
        m[..., 0, 1] = m[..., 0, 2] = 1e308j
    return m


class TestFiniteGate:
    """The gate proves finiteness with one sum, and checks entry by entry
    only when that sum is not finite: a NaN or an infinity is refused
    with the same message, in either part, in a matrix or a stack, and
    finite entries whose sum overflows are not."""

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)], ids=["matrix", "stack"])
    def test_non_finite_entries_refused(self, entry, part, shape):
        m = np.zeros(shape, dtype=np.complex128)
        setattr(m[..., 1, 1:2][-1] if len(shape) == 3 else m[1, 1:2], part, entry)
        check = operators.as_complex_matrix if len(shape) == 2 else operators._require_finite
        with pytest.raises(ValueError, match="^matrix contains NaN or Inf entries$"):
            check(m)

    @pytest.mark.parametrize(
        "shape, part", [((3, 3), "real"), ((3, 3), "imag"), ((2, 3, 3), "real")], ids=["matrix", "imag", "stack"]
    )
    def test_finite_entries_whose_sum_overflows_pass(self, shape, part):
        m = _overflowing(shape, part)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(m.sum())
        if len(shape) == 2:
            assert operators.as_complex_matrix(m) is m
        else:
            operators._require_finite(m)


class TestOperatorRecords:
    """A record stores a matrix in its form and gives back the dense array
    it stands for."""

    def test_forms_store_only_what_they_need(self):
        from thermalqfi.models import lmg_hamiltonian

        jz = operators.operator_form(spin_operators(100)[2])
        assert jz.form == "diagonal" and jz.parts[0].shape == (101,)
        h = lmg_hamiltonian(100, 0.6)
        assert h.form == "blocks" and [p.shape for p in h.parts] == [(51, 51), (50, 50)]
        assert not any(np.iscomplexobj(p) for p in h.parts) and h.tridiagonal == (True, True)
        assert "matrix" not in h.__dict__  # no dense array until one is asked for
        dense = h.matrix
        assert not dense[0::2, 1::2].any() and not dense[1::2, 0::2].any()
        np.testing.assert_array_equal(dense[0::2, 0::2], h.parts[0])
        assert h.shape == (101, 101) and dense.dtype == np.complex128

    def test_forms_follow_the_products(self):
        from thermalqfi.encoding import ExplicitGenerator, generator_stack
        from thermalqfi.models import lmg_hamiltonian

        jz = operators.operator_form(spin_operators(100)[2])
        h = lmg_hamiltonian(100, 0.6)
        c = commutator_i(jz, h)
        assert _layout(c) == ("blocks", (True, True))  # [diagonal, blocks]
        assert commutator_i(jz, jz).form == "diagonal"
        assert _layout(commutator_i(h, h)) == ("blocks", (False, False))
        zero = generator_stack(ExplicitGenerator(h, 0.0))([0.0]).member(0)  # t h at t = 0
        assert zero.form == "diagonal" and _layout(2.0 * h) == ("blocks", (True, True))
        jx = operators.operator_form(spin_operators(100)[0])
        assert _layout(commutator_i(jz, jx)) == ("blocks", (True,))  # one tridiagonal block
        assert _layout(commutator_i(jx, h)) == ("blocks", (False,))  # across parity: one dense block
        # ([h, h] is blocks by the rule, though its entries all vanish)
        for record in (c, zero, h + 0.3 * jz, commutator_i(jz, jx)):
            assert _layout(operators.operator_form(record.matrix.copy())) == _layout(record)

    @pytest.mark.parametrize("twice_j", [1, 10, 81, 82, 400])
    @pytest.mark.parametrize(
        "model, axis, lam",
        [("linear", "x", None), ("linear", "y", None), ("linear", "z", None), ("oat", "x", None), ("lmg", "x", -0.7)],
        ids=["linear-x", "linear-y", "linear-z", "oat", "lmg"],
    )
    def test_every_model_record_has_one_of_two_layouts(self, model, axis, lam, twice_j):
        # diagonal, or k blocks with one tridiagonal flag each: a dense
        # matrix is the one-block case, a tridiagonal one a flagged block
        from thermalqfi.encoding import HamiltonianFamily
        from thermalqfi.models import build_scenario

        scenario = build_scenario(model, twice_j, 0.7, 2.3, axis=axis, lam=lam)
        probe_h = scenario.probe.decomposition.source
        scheme = scenario.scheme
        encoding = (
            [scheme.hamiltonian(scheme.lam), scheme.dh_dlambda]
            if isinstance(scheme, HamiltonianFamily)
            else [scheme.generator]
        )
        records = [probe_h, scenario.h, commutator_i(probe_h, scenario.h), *encoding]
        for record in records:
            assert record.form in ("diagonal", "blocks")
            if record.form == "diagonal":
                assert len(record.parts) == 1 and record.tridiagonal == ()
            else:
                assert len(record.tridiagonal) == len(record.parts) >= 1
            assert sum(p.shape[-1] for p in record.parts) == record.dim == twice_j + 1

    def test_concatenate_keeps_a_layout_only_when_every_record_shares_it(self):
        # oat's C is two tridiagonal parity blocks, lmg's two unflagged
        # ones: a stack of oat, lmg and oat may not keep the first and last
        # records' flags, or lmg's blocks are solved as tridiagonal
        from thermalqfi.models import build_scenario

        members = []
        for model, lam in (("oat", None), ("lmg", 1.0), ("oat", None)):
            scenario = build_scenario(model, 100, 0.7, 2.3, lam=lam)
            members.append(commutator_i(scenario.probe.decomposition.source, scenario.h))
        oat, lmg = ("blocks", (True, True)), ("blocks", (False, False))
        assert [_layout(c) for c in members] == [oat, lmg, oat]
        stack = operators.concatenate([c.member(None) for c in members])
        widths = operators._widths(stack, "stack")
        np.testing.assert_allclose(widths, [seminorm(c) for c in members], rtol=1e-12)
        assert _layout(stack) == ("blocks", (False,))  # one dense block
        kept = operators.concatenate([members[0].member(None), members[2].member(None)])
        assert _layout(kept) == ("blocks", (True, True))
