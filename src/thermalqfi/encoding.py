"""Parameter-encoding unitaries and the transformed local generator.

The canonical evolution convention is U(lambda) = exp(-i H(lambda) t).
The opposite sign convention flips the generator h -> -h but leaves every
squared matrix element, every variance and seminorm, and hence the QFI
unchanged; the test suite asserts that insensitivity numerically.

The generator h = i U^dagger dU/dlambda is computed three independent
ways: exactly for an explicit generator, through the spectral kernel of a
Hamiltonian family, and by central differences on a black-box unitary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .operators import (
    SpectralDecomposition,
    as_complex_matrix,
    eigendecompose,
    hermiticity_defect,
    matrix_exp_scaled,
    require_hermitian,
    require_unitary,
)

logger = logging.getLogger(__name__)

# below this the spectral kernel switches to its two-term series
KERNEL_SERIES_CUTOFF = 1e-9
MAX_FD_STEP = 1e-2


def _check_time(t) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValueError(f"evolution time must be finite and >= 0, got {t!r}")
    return t


@dataclass(frozen=True, eq=False)
class ExplicitGenerator:
    """U(lambda) = exp(-i lambda A t) for a fixed Hermitian generator A."""

    generator: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "generator", as_complex_matrix(self.generator))
        object.__setattr__(self, "t", _check_time(self.t))


@dataclass(frozen=True, eq=False)
class HamiltonianFamily:
    """U(lambda) = exp(-i H(lambda) t) with a lambda-independent dH/dlambda."""

    hamiltonian: Callable[[float], np.ndarray]
    dh_dlambda: np.ndarray
    lam: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "dh_dlambda", as_complex_matrix(self.dh_dlambda))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "t", _check_time(self.t))


@dataclass(frozen=True, eq=False)
class NumericUnitary:
    """Black-box unitary evaluator, differentiated by central differences."""

    unitary: Callable[[float], np.ndarray]
    lam: float
    fd_step: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        step = float(self.fd_step)
        if not 0.0 < step <= MAX_FD_STEP:
            raise ValueError(f"fd_step must lie in (0, {MAX_FD_STEP}], got {step!r}")
        object.__setattr__(self, "fd_step", step)


EncodingScheme = ExplicitGenerator | HamiltonianFamily | NumericUnitary


@dataclass(frozen=True, eq=False)
class TransformedLocalGenerator:
    """Hermitian generator of parameter changes in the probe frame, with a
    tag recording which route produced it."""

    h: np.ndarray
    method: str


def as_operator(h) -> np.ndarray:
    """Accept either a TransformedLocalGenerator or a bare matrix."""
    if isinstance(h, TransformedLocalGenerator):
        return h.h
    return as_complex_matrix(h)


def generator_explicit(a, t) -> TransformedLocalGenerator:
    """h = t * A, exact for U = exp(-i lambda A t)."""
    return TransformedLocalGenerator(_check_time(t) * require_hermitian(a, "generator"), "explicit")


def _phase_kernel(delta: np.ndarray, t: float) -> np.ndarray:
    """(exp(i d t) - 1)/(i d) with the removable singularity at d = 0.

    For |d*t| below the cutoff the two-term series t*(1 + i d t/2) is used;
    its truncation error is O(t * (d t)^2) ~ 1e-18 * t at the switchover.
    """
    x = delta * t
    small = np.abs(x) < KERNEL_SERIES_CUTOFF
    denom = np.where(small, 1.0, delta)
    kernel = (np.exp(1j * x) - 1.0) / (1j * denom)
    series = t * (1.0 + 0.5j * x)
    return np.where(small, series, kernel)


@dataclass(frozen=True, eq=False)
class EncodingSpectrum:
    """The time-independent half of the spectral-kernel generator: the
    eigendecomposition of H(lambda), V = W^dagger dH/dlambda W and the
    level differences E_m - E_n."""

    decomposition: SpectralDecomposition
    v_eig: np.ndarray
    delta: np.ndarray


def encoding_spectrum(scheme: HamiltonianFamily) -> EncodingSpectrum:
    """Diagonalize H(lambda) once; generator_at then serves every time t.

    Both basis changes go through the decomposition, so a diagonal
    dH/dlambda (J_z for lmg) scales instead of multiplying, and an
    H(lambda) that splits into parity blocks changes basis block by
    block."""
    dec = eigendecompose(scheme.hamiltonian(scheme.lam), "encoding Hamiltonian")
    v = require_hermitian(scheme.dh_dlambda, "dH/dlambda")
    if dec.source.shape != v.shape:
        raise ValueError(f"dimension mismatch: H {dec.source.shape}, dH/dlambda {v.shape}")
    return EncodingSpectrum(
        decomposition=replace(dec, source=None),  # the basis only, not H(lambda) itself
        v_eig=dec.to_eigenbasis(v),
        delta=dec.eigenvalues[:, None] - dec.eigenvalues[None, :],
    )


def generator_at(spectrum: EncodingSpectrum, t) -> TransformedLocalGenerator:
    """h_mn = V_mn * k(E_m - E_n, t) in the eigenbasis of H(lambda), rotated back."""
    h_eig = spectrum.v_eig * _phase_kernel(spectrum.delta, _check_time(t))
    h = spectrum.decomposition.from_eigenbasis(h_eig)
    if logger.isEnabledFor(logging.DEBUG):
        residue = 0.5 * hermiticity_defect(h)
        if residue > 0.0:
            logger.debug("generator_integral: symmetrized residue %.3e", residue)
    return TransformedLocalGenerator(0.5 * (h + h.conj().T), "integral")


def generator_integral(scheme: HamiltonianFamily) -> TransformedLocalGenerator:
    """Generator via the spectral kernel in the eigenbasis of H(lambda).

    h_mn = V_mn * k(E_m - E_n, t) with V = dH/dlambda in that basis. The
    kernel satisfies k(-d) = conj(k(d)), so h is Hermitian, and reduces to
    t*V when [H, V] = 0.
    """
    return generator_at(encoding_spectrum(scheme), scheme.t)


def generator_fd(scheme: NumericUnitary) -> TransformedLocalGenerator:
    """Second-order central-difference generator i U^dagger dU/dlambda.

    The anti-Hermitian residue before symmetrization is O(step^2) and is
    logged at DEBUG; halving the step shrinks the disagreement with the spectral
    route by about a factor of four.
    """
    step = scheme.fd_step
    u0 = require_unitary(scheme.unitary(scheme.lam), "U(lambda)")
    up = require_unitary(scheme.unitary(scheme.lam + step), "U(lambda + step)")
    um = require_unitary(scheme.unitary(scheme.lam - step), "U(lambda - step)")
    raw = 1j * (u0.conj().T @ (up - um)) / (2.0 * step)
    if logger.isEnabledFor(logging.DEBUG):
        residue = 0.5 * hermiticity_defect(raw)
        logger.debug("generator_fd: anti-Hermitian residue %.3e at step %.1e", residue, step)
    return TransformedLocalGenerator(0.5 * (raw + raw.conj().T), "finite-difference")


def transformed_generator(scheme: EncodingScheme) -> TransformedLocalGenerator:
    if isinstance(scheme, ExplicitGenerator):
        return generator_explicit(scheme.generator, scheme.t)
    if isinstance(scheme, HamiltonianFamily):
        return generator_integral(scheme)
    if isinstance(scheme, NumericUnitary):
        return generator_fd(scheme)
    raise TypeError(f"unknown encoding scheme type: {type(scheme).__name__}")


def generator_family(scheme: ExplicitGenerator | HamiltonianFamily) -> Callable[[float], TransformedLocalGenerator]:
    """h as a function of the evolution time, with the t-independent work
    (the eigendecomposition of H(lambda)) done once; scheme.t is ignored."""
    if isinstance(scheme, ExplicitGenerator):
        generator = scheme.generator
        return lambda t: generator_explicit(generator, t)
    if isinstance(scheme, HamiltonianFamily):
        spectrum = encoding_spectrum(scheme)
        return lambda t: generator_at(spectrum, t)
    raise TypeError(f"no time family for encoding scheme type: {type(scheme).__name__}")


def evolution_unitary(hamiltonian, t) -> np.ndarray:
    """exp(-i H t); convenience for building NumericUnitary evaluators."""
    return matrix_exp_scaled(hamiltonian, -1j * float(t))
