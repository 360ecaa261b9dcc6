"""Gibbs probe states with log-domain Boltzmann weights (k_B = hbar = 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import SpectralDecomposition, eigendecompose, require_unitary
from .spin import m_values, spin_value

# keeps the p_i + p_j denominators in the QFI sums well defined deep in the pure regime
PROBABILITY_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class GibbsState:
    """exp(-beta H)/Z in the eigenbasis of H.

    probabilities are ground-shifted Boltzmann weights, clamped at
    PROBABILITY_FLOOR so the state stays full rank; effectively_pure marks
    the regime where every excited weight underflowed. log_partition is
    the full log Z, assembled as -beta*ground_energy plus the log of the
    shifted sum, so it never overflows.
    """

    beta: float
    decomposition: SpectralDecomposition
    probabilities: np.ndarray
    log_partition: float
    ground_energy: float
    effectively_pure: bool

    @property
    def hamiltonian(self) -> np.ndarray:
        """H as the dense matrix of the record its decomposition was built
        from (decomposition.source)."""
        return self.decomposition.source.matrix

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.decomposition.eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.decomposition.eigenvectors

    @property
    def dim(self) -> int:
        return self.decomposition.source_dim

    def density_matrix(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.probabilities) @ v.conj().T

    def purity(self) -> float:
        return float(np.sum(self.probabilities**2))


@dataclass(frozen=True, eq=False)
class SpectralProbe:
    """Explicit probe spectrum for the general QFI route; need not be
    thermal. eigenvectors is unitary, one column per probability."""

    probabilities: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("probe probabilities must be finite and nonnegative")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probe probabilities sum to {total!r}, not 1")
        v = require_unitary(self.eigenvectors, "probe eigenvector matrix")
        if v.shape[0] != p.size:
            raise ValueError(f"probe eigenvector matrix has dimension {v.shape[0]}, not {p.size} (the probabilities)")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "eigenvectors", v)


def _check_beta(beta) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    return beta


def gibbs_state(hamiltonian, beta: float) -> GibbsState:
    """Build exp(-beta H)/Z; beta = 0 gives the maximally mixed state exactly.

    Weights are computed relative to the ground energy, so any finite
    beta >= 0 is safe regardless of the spectral width.
    """
    beta = _check_beta(beta)
    return gibbs_from_spectrum(eigendecompose(hamiltonian, "Hamiltonian"), beta)


def gibbs_from_spectrum(decomposition: SpectralDecomposition, beta: float) -> GibbsState:
    """exp(-beta H)/Z from an existing eigendecomposition of H; the k = 1
    case of boltzmann_weights."""
    weights = boltzmann_weights(decomposition.eigenvalues, (beta,))
    return GibbsState(
        beta=weights.betas[0],
        decomposition=decomposition,
        probabilities=weights.probabilities[0],
        log_partition=weights.log_partition[0],
        ground_energy=weights.ground_energy[0],
        effectively_pure=weights.effectively_pure[0],
    )


class BoltzmannWeights(NamedTuple):
    """The Gibbs weights of k inverse temperatures, one row per beta:
    probabilities is (k, n), every other field a list of k values."""

    betas: list[float]
    probabilities: np.ndarray
    log_partition: list[float]
    ground_energy: list[float]
    effectively_pure: list[bool]


def boltzmann_weights(energies, betas) -> BoltzmannWeights:
    """The ground-shifted Boltzmann weights of every beta at once.

    energies holds one ascending spectrum (n,) shared by every beta, or
    one spectrum per beta (k, n). One exp over the (k, n) exponents and
    one fsum per row: the only beta-dependent step of gibbs_state, so a
    temperature sweep decomposes H once and calls this once.
    """
    betas = [_check_beta(beta) for beta in betas]
    energies = np.asarray(energies, dtype=float)
    ground = energies[..., :1]
    weights = np.exp(-np.asarray(betas)[:, None] * (energies - ground))
    effectively_pure = (np.count_nonzero(weights, axis=1) == 1).tolist()
    weights = np.maximum(weights, PROBABILITY_FLOOR)
    shifted_z = [math.fsum(row) for row in weights.tolist()]
    grounds = np.broadcast_to(ground[..., 0], (len(betas),)).tolist()
    return BoltzmannWeights(
        betas=betas,
        probabilities=weights / np.asarray(shifted_z)[:, None],
        log_partition=[float(-beta * g + math.log(z)) for beta, g, z in zip(betas, grounds, shifted_z)],
        ground_energy=grounds,
        effectively_pure=effectively_pure,
    )


def partition_moments(twice_j, beta: float) -> tuple[float, float]:
    """(Z, Z2) for H = J_z: sums of exp(-beta M) and M^2 exp(-beta M).

    Evaluated with the dominant exp(+beta J) factor pulled out, so the sums
    themselves cannot overflow; the returned raw values stay finite for
    beta*J up to about 700 (beyond that Z itself exceeds float range and
    only the Z2/Z ratio, see partition_moment_ratio, remains meaningful).
    """
    beta = float(beta)
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    j = spin_value(twice_j)
    m = m_values(twice_j)
    shifted = np.exp(-beta * (m + j))
    s0 = math.fsum(shifted.tolist())
    s2 = math.fsum((m * m * shifted).tolist())
    scale = float(np.exp(beta * j))
    return scale * s0, scale * s2


def partition_moment_ratio(twice_j, beta: float) -> float:
    """Z2/Z for H = J_z, stable for any beta*J."""
    beta = float(beta)
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    j = spin_value(twice_j)
    m = m_values(twice_j)
    shifted = np.exp(-beta * (m + j))
    return math.fsum((m * m * shifted).tolist()) / math.fsum(shifted.tolist())


def polarization(beta: float) -> float:
    """P = tanh(beta/2), the natural temperature axis for thermal spin probes."""
    return math.tanh(0.5 * _check_beta(beta))


def beta_from_polarization(p: float) -> float:
    """Inverse of polarization; valid for P in [0, 1)."""
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"polarization must lie in [0, 1), got {p!r}")
    return 2.0 * math.atanh(p)
