import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thermalqfi.operators import matrix_exp_scaled
from thermalqfi.spin import spin_operators
from thermalqfi.thermal import (
    SpectralProbe,
    beta_from_polarization,
    gibbs_state,
    partition_moment_ratio,
    partition_moments,
    polarization,
)

from conftest import hermitian_matrices


class TestGibbsState:
    def test_infinite_temperature_is_maximally_mixed(self):
        _, _, jz = spin_operators(5)
        state = gibbs_state(jz, 0.0)
        np.testing.assert_array_equal(state.probabilities, np.full(6, 1.0 / 6.0))
        assert not state.effectively_pure

    def test_qubit_partition_function(self):
        # two-term sum: Z = e^{+1} + e^{-1} = 2 cosh(1) at beta = 2
        _, _, jz = spin_operators(1)
        state = gibbs_state(jz, 2.0)
        assert state.log_partition == pytest.approx(math.log(2.0 * math.cosh(1.0)), abs=1e-14)

    def test_spin1_partition_function(self):
        # direct sum e + 1 + 1/e, also the geometric-sum form sinh(3b/2)/sinh(b/2)
        _, _, jz = spin_operators(2)
        state = gibbs_state(jz, 1.0)
        direct = math.e + 1.0 + math.exp(-1.0)
        assert math.exp(state.log_partition) == pytest.approx(direct, rel=1e-14)
        geometric = math.sinh(1.5) / math.sinh(0.5)
        assert math.exp(state.log_partition) == pytest.approx(geometric, rel=1e-14)

    def test_probabilities_normalized_and_ordered(self):
        _, _, jz = spin_operators(9)
        state = gibbs_state(jz, 1.7)
        assert abs(math.fsum(state.probabilities.tolist()) - 1.0) <= 1e-12
        assert np.all(np.diff(state.probabilities) < 0)  # ascending energies, beta > 0
        assert np.all(state.probabilities > 0)

    def test_boltzmann_ratios(self):
        _, _, jz = spin_operators(4)
        beta = 0.9
        state = gibbs_state(jz, beta)
        p = state.probabilities
        np.testing.assert_allclose(p[1:] / p[:-1], np.exp(-beta), rtol=1e-12)

    @given(hermitian_matrices(max_dim=7), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=60)
    def test_commutes_with_hamiltonian(self, h, beta):
        state = gibbs_state(h, beta)
        rho = state.density_matrix()
        assert np.max(np.abs(rho @ h - h @ rho)) <= 1e-10

    def test_unitary_covariance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = 0.5 * (x + x.conj().T)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        u = matrix_exp_scaled(0.5 * (g + g.conj().T), -0.7j)
        rotated = u @ h @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        left = gibbs_state(rotated, 1.3).density_matrix()
        right = u @ gibbs_state(h, 1.3).density_matrix() @ u.conj().T
        assert np.max(np.abs(left - right)) <= 1e-10

    def test_purity_monotone_in_beta(self):
        _, _, jz = spin_operators(6)
        purities = [gibbs_state(jz, b).purity() for b in np.linspace(0.0, 8.0, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(purities, purities[1:]))

    def test_rejects_negative_beta(self):
        _, _, jz = spin_operators(1)
        with pytest.raises(ValueError, match="beta"):
            gibbs_state(jz, -0.1)
        with pytest.raises(ValueError, match="beta"):
            gibbs_state(jz, float("nan"))

    def test_effectively_pure_flag_and_full_rank(self):
        _, _, jz = spin_operators(1)
        state = gibbs_state(jz, 800.0)  # exp(-800) underflows
        assert state.effectively_pure
        assert np.all(state.probabilities > 0)
        assert state.probabilities[0] == pytest.approx(1.0)
        moderate = gibbs_state(jz, 50.0)
        assert not moderate.effectively_pure


class TestPartitionMoments:
    @pytest.mark.parametrize("twice_j", [1, 2, 5, 10])
    def test_infinite_temperature_power_sums(self, twice_j):
        j = twice_j / 2.0
        z, z2 = partition_moments(twice_j, 0.0)
        assert z == pytest.approx(twice_j + 1, abs=1e-12)
        assert z2 == pytest.approx(j * (j + 1.0) * (2.0 * j + 1.0) / 3.0, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 0.4, 2.0, 9.0])
    def test_qubit_second_moment_ratio(self, beta):
        z, z2 = partition_moments(1, beta)
        assert z2 == pytest.approx(z / 4.0, rel=1e-14)

    def test_spin1_direct_sum(self):
        _, z2 = partition_moments(2, 1.0)
        assert z2 == pytest.approx(math.e + math.exp(-1.0), rel=1e-14)

    def test_ratio_matches_moments(self):
        z, z2 = partition_moments(7, 1.9)
        assert partition_moment_ratio(7, 1.9) == pytest.approx(z2 / z, rel=1e-14)

    def test_stays_finite_at_large_beta_j(self):
        # beta*J = 350: naive exp(-beta*M) at M = -J would already be 1e152
        z, z2 = partition_moments(100, 7.0)
        assert math.isfinite(z) and math.isfinite(z2)
        assert math.isfinite(partition_moment_ratio(100, 7.0))

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            partition_moments(2, -1.0)


class TestPolarization:
    def test_values(self):
        assert polarization(0.0) == 0.0
        assert polarization(2.0) == pytest.approx(math.tanh(1.0), abs=1e-15)

    def test_monotone_limit_toward_one(self):
        grid = [polarization(b) for b in (1.0, 5.0, 20.0, 100.0)]
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert grid[-1] < 1.0 or grid[-1] == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_roundtrip(self, p):
        assert polarization(beta_from_polarization(p)) == pytest.approx(p, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            polarization(-1.0)
        with pytest.raises(ValueError):
            beta_from_polarization(1.0)
        with pytest.raises(ValueError):
            beta_from_polarization(-0.2)


def test_spectral_probe_validation():
    eye = np.eye(2, dtype=complex)
    SpectralProbe(np.array([0.5, 0.5]), eye)
    with pytest.raises(ValueError, match="sum"):
        SpectralProbe(np.array([0.7, 0.7]), eye)
    with pytest.raises(ValueError, match="nonnegative"):
        SpectralProbe(np.array([1.2, -0.2]), eye)


class TestSpectralProbeEigenvectors:
    """The eigenvectors of a SpectralProbe are a unitary matrix, one column
    per probability; anything else is refused before any QFI is formed."""

    P = np.array([0.4, 0.3, 0.2, 0.1])

    def test_a_non_unitary_matrix_is_refused(self):
        # unrefused, twice the identity would make qfi_general 16 times the true F
        with pytest.raises(ValueError, match="not unitary"):
            SpectralProbe(self.P, 2.0 * np.eye(4))

    def test_a_non_square_matrix_is_refused(self):
        with pytest.raises(ValueError, match="square"):
            SpectralProbe(self.P, np.eye(4)[:, :3])

    def test_a_matrix_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match="dimension 3, not 4"):
            SpectralProbe(self.P, np.eye(3))

    def test_a_unitary_matrix_is_kept_as_given(self):
        from thermalqfi.qfi import qfi_general

        vectors = np.linalg.eigh(spin_operators(3)[0])[1]
        probe = SpectralProbe(self.P, vectors)
        assert probe.eigenvectors.dtype == np.complex128
        assert probe.eigenvectors.tobytes() == vectors.astype(np.complex128).tobytes()
        assert qfi_general(SpectralProbe(self.P, np.eye(4)), spin_operators(3)[0]) > 0.0
