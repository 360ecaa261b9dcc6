import math

import numpy as np
import pytest

from thermalqfi.operators import seminorm
from thermalqfi.spin import (
    MAX_TWICE_J,
    check_twice_j,
    m_values,
    oat_commutator,
    rotated_oat_operator,
    spin_dim,
    spin_operators,
    spin_value,
)


def test_rejects_bad_twice_j():
    for bad in (0, -1, 1.5, True, "2"):
        with pytest.raises(ValueError):
            check_twice_j(bad)


def test_spin_cap():
    assert check_twice_j(MAX_TWICE_J) == MAX_TWICE_J == 2000
    for too_large in (MAX_TWICE_J + 1, np.int64(10**9)):
        with pytest.raises(ValueError, match="at most 2000"):
            check_twice_j(too_large)


def test_dimensions_and_m_ordering():
    assert spin_dim(3) == 4
    assert spin_value(3) == 1.5
    np.testing.assert_array_equal(m_values(3), [-1.5, -0.5, 0.5, 1.5])


def _ladder_formula(twice_j):
    """(J_x, J_y) as 0.5 (J_+ + J_-) and -0.5j (J_+ - J_-), from the
    dense raising operator J_+."""
    m = m_values(twice_j)
    j = twice_j / 2.0
    jplus = np.zeros((m.size, m.size), dtype=np.complex128)
    jplus[np.arange(1, m.size), np.arange(m.size - 1)] = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    jminus = jplus.conj().T
    return 0.5 * (jplus + jminus), -0.5j * (jplus - jminus)


@pytest.mark.parametrize("twice_j", [*range(1, 131), 400])
def test_band_built_operators_have_the_ladder_formula_bits(twice_j):
    # compared as int64 views, so the signed zeros off J_y's bands count too
    jx, jy, jz = spin_operators(twice_j)
    for got, expected in zip((jx, jy), _ladder_formula(twice_j)):
        assert got.dtype == expected.dtype and np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(jz.view(np.int64), np.diag(m_values(twice_j).astype(np.complex128)).view(np.int64))


def test_pauli_halves():
    jx, jy, jz = spin_operators(1)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)  # M ascending: -1/2 first
    np.testing.assert_allclose(jx, sx / 2, atol=1e-15)
    np.testing.assert_allclose(jy, -sy / 2, atol=1e-15)
    np.testing.assert_allclose(jz, sz / 2, atol=1e-15)


@pytest.mark.parametrize("twice_j", list(range(1, 51)))
def test_commutation_relations_up_to_j_25(twice_j):
    jx, jy, jz = spin_operators(twice_j)
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) <= 1e-12
    assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) <= 1e-12
    assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) <= 1e-12


@pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 6, 10, 20])
def test_casimir_identity(twice_j):
    j = twice_j / 2.0
    jx, jy, jz = spin_operators(twice_j)
    total = jx @ jx + jy @ jy + jz @ jz
    np.testing.assert_allclose(total, j * (j + 1.0) * np.eye(twice_j + 1), atol=1e-12)


def test_spin_operators_deterministic():
    a = spin_operators(5)
    b = spin_operators(5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


class TestOatCommutator:
    def test_qubit_is_zero(self):
        # J_x^2 is proportional to the identity on J = 1/2
        assert np.max(np.abs(oat_commutator(1))) <= 1e-15

    def test_spin1_seminorm(self):
        assert seminorm(oat_commutator(2)) == pytest.approx(2.0, abs=1e-10)

    def test_spin_three_halves_seminorm(self):
        # oracle: (J_+^2 - J_-^2)/(2i) splits into two 2x2 blocks with
        # off-diagonal magnitude sqrt(3), so the spectrum is {+-sqrt(3)} twice
        block = np.array([[0.0, -1j * math.sqrt(3)], [1j * math.sqrt(3), 0.0]])
        block_width = np.linalg.eigvalsh(block)[-1] - np.linalg.eigvalsh(block)[0]
        assert block_width == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert seminorm(oat_commutator(3)) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 8])
    def test_traceless(self, twice_j):
        assert abs(np.trace(oat_commutator(twice_j))) <= 1e-12

    def test_matches_commutator_convention(self):
        # i[J_z, J_x^2] = -(J_x J_y + J_y J_x), checked by direct products
        jx, jy, jz = spin_operators(4)
        jx2 = jx @ jx
        direct = 1j * (jz @ jx2 - jx2 @ jz)
        np.testing.assert_allclose(direct, -oat_commutator(4), atol=1e-12)


class TestRotatedOat:
    def test_spin1_spectrum(self):
        evals = np.linalg.eigvalsh(rotated_oat_operator(2))
        np.testing.assert_allclose(evals, [-1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("twice_j", list(range(1, 13)))
    def test_isospectral_with_anticommutator(self, twice_j):
        a = np.linalg.eigvalsh(oat_commutator(twice_j))
        b = np.linalg.eigvalsh(rotated_oat_operator(twice_j))
        np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 8, 16, 40])
    def test_width_bounded_by_2j_squared(self, twice_j):
        j = twice_j / 2.0
        assert seminorm(rotated_oat_operator(twice_j)) <= 2.0 * j * j + 1e-9
