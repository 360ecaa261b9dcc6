"""Parameter-encoding unitaries and the transformed local generator.

The canonical evolution convention is U(lambda) = exp(-i H(lambda) t).
The opposite sign convention flips the generator h -> -h but leaves every
squared matrix element, every variance and seminorm, and hence the QFI
unchanged; the test suite asserts that insensitivity numerically.

The generator h = i U^dagger dU/dlambda is computed three independent
ways: exactly for an explicit generator, through the spectral kernel of a
Hamiltonian family, and by central differences on a black-box unitary.
Each route returns h as an operators.Hermitian record.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .operators import (
    Hermitian,
    SpectralDecomposition,
    _blocks,
    _diagonal,
    _require_finite,
    _symmetrize,
    as_hermitian,
    eigendecompose,
    hermiticity_defect,
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


def _check_times(times) -> np.ndarray:
    """The times as one array, each checked as _check_time checks it; the
    first one that fails raises its message."""
    times = np.asarray(times, dtype=float)
    failed = times[~(np.isfinite(times) & (times >= 0.0))]
    if failed.size:
        _check_time(failed[0])
    return times


@dataclass(frozen=True, eq=False)
class ExplicitGenerator:
    """U(lambda) = exp(-i lambda A t) for a fixed Hermitian generator A."""

    generator: Hermitian
    t: float

    def __post_init__(self):
        object.__setattr__(self, "generator", as_hermitian(self.generator, "generator"))
        object.__setattr__(self, "t", _check_time(self.t))


@dataclass(frozen=True, eq=False)
class HamiltonianFamily:
    """U(lambda) = exp(-i H(lambda) t) with a lambda-independent dH/dlambda."""

    hamiltonian: Callable[[float], np.ndarray | Hermitian]
    dh_dlambda: Hermitian
    lam: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "dh_dlambda", as_hermitian(self.dh_dlambda, "dH/dlambda"))
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


def _finite(h: Hermitian) -> Hermitian:
    """h, once every stored entry is proved finite. A generator is
    Hermitian by construction, but t A and the spectral kernel overflow
    for a large enough t."""
    for part in h.parts:
        _require_finite(part)
    return h


def _kernel_entries(delta: np.ndarray, t) -> np.ndarray:
    """(exp(i d t) - 1)/(i d) entry by entry, with the removable
    singularity at d = 0, at one time t or at a (T, 1, 1) array of times.

    For |d*t| below the cutoff the two-term series t*(1 + i d t/2) is used;
    its truncation error is O(t * (d t)^2) ~ 1e-18 * t at the switchover.
    """
    x = delta * t
    small = np.abs(x) < KERNEL_SERIES_CUTOFF
    kernel = np.exp(1j * x)  # updated in place, so a stack of times holds fewer complex temporaries
    kernel -= 1.0
    kernel /= 1j * np.where(small, 1.0, delta)
    if small.any():
        kernel[small] = np.broadcast_to(t, x.shape)[small] * (1.0 + 0.5j * x[small])
    return kernel


def _phase_kernel(delta: np.ndarray, t) -> np.ndarray:
    """_kernel_entries of an antisymmetric n x n array of level differences
    E_m - E_n, with its bits, evaluated on one triangle only.

    The kernel at -d is the conjugate of the kernel at d, with +0 for a
    zero imaginary part, as the formula gives it wherever its products do
    not underflow. So only the upper triangle and the diagonal are
    evaluated, in one (n + 1, g) array (h = n // 2, g = n - h): its first
    g + 1 rows hold the top-left quarter on and above their diagonal and,
    below it, the bottom-right quarter transposed and shifted down a row;
    its last h rows hold the top-right h x g quarter. The lower triangle
    is filled with the conjugates.
    """
    n = delta.shape[-1]
    h, g = n // 2, n - n // 2
    upper = np.tri(g, dtype=bool).T
    packed = np.empty((n + 1, g))
    packed[:g] = delta[:g, :g]
    np.copyto(packed[1 : g + 1], delta[h:, h:].T, where=upper.T)
    packed[g + 1 :] = delta[:h, h:]
    kernel = _kernel_entries(packed, t)
    mirror = np.conjugate(kernel)
    mirror.imag += 0.0  # -0 to +0
    out = np.empty(kernel.shape[:-2] + (n, n), dtype=complex)
    out[..., :h, h:] = kernel[..., g + 1 :, :]
    out[..., h:, :h] = mirror[..., g + 1 :, :].mT
    out[..., :h, :h] = mirror[..., :h, :h].mT
    np.copyto(out[..., :h, :h], kernel[..., :h, :h], where=upper[:h, :h])
    out[..., h:, h:] = mirror[..., 1 : g + 1, :]
    np.copyto(out[..., h:, h:], kernel[..., 1 : g + 1, :].mT, where=upper)
    return out


@dataclass(frozen=True, eq=False)
class EncodingSpectrum:
    """The time-independent half of the spectral-kernel generator: the
    eigendecomposition of H(lambda), V = W^dagger dH/dlambda W and the
    level differences E_m - E_n. When H(lambda) is in blocks (one block
    when it is dense) and dH/dlambda is diagonal or in the same blocks, V
    is an exact zero between the blocks, and v_eig and delta are tuples
    holding one array per block, over that block's levels. diagonal says
    that H(lambda) and dH/dlambda are both diagonal, so every h is."""

    decomposition: SpectralDecomposition
    v_eig: np.ndarray | tuple[np.ndarray, ...]
    delta: np.ndarray | tuple[np.ndarray, ...]
    diagonal: bool = False


def encoding_spectrum(scheme: HamiltonianFamily) -> EncodingSpectrum:
    """Diagonalize H(lambda) once; _integral_matrices then serves every time.

    Both basis changes go through the decomposition, so a diagonal
    dH/dlambda (J_z for lmg) scales instead of multiplying, and an
    H(lambda) in blocks changes basis block by block."""
    dec = eigendecompose(scheme.hamiltonian(scheme.lam), "encoding Hamiltonian")
    v = scheme.dh_dlambda
    if dec.source.shape != v.shape:
        raise ValueError(f"dimension mismatch: H {dec.source.shape}, dH/dlambda {v.shape}")
    diagonal = False
    if dec.conserves(v):
        v_eig = tuple(dec.to_block_eigenbases(v))
        levels = [dec.eigenvalues[block.positions] for block in dec.blocks]
        delta = tuple(e[:, None] - e[None, :] for e in levels)
    else:
        v_eig = dec.to_eigenbasis(v)
        diagonal = dec.order is not None and v_eig.form == "diagonal"
        v_eig = v_eig.matrix
        delta = dec.eigenvalues[:, None] - dec.eigenvalues[None, :]
    return EncodingSpectrum(
        decomposition=replace(dec, source=None),  # the basis only, not H(lambda) itself
        v_eig=v_eig,
        delta=delta,
        diagonal=diagonal,
    )


def _integral_matrices(spectrum: EncodingSpectrum, t: np.ndarray) -> Hermitian:
    """h_mn = V_mn * k(E_m - E_n, t) in the eigenbasis of H(lambda), rotated
    back and symmetrized, Hermitian by construction; over the pairs
    within each block only, block by block, when V is split into blocks
    (see EncodingSpectrum), and then kept in those blocks, else as one
    block. A (T, n, n) stack for T times given as a (T, 1, 1) array, with
    the bits of one matrix per time."""
    dec = spectrum.decomposition
    if isinstance(spectrum.v_eig, tuple):
        parts = [v * _phase_kernel(delta, t) for v, delta in zip(spectrum.v_eig, spectrum.delta)]
        raw = dec.from_block_eigenbases(parts)
    else:
        raw = (dec.from_eigenbasis(spectrum.v_eig * _phase_kernel(spectrum.delta, t)),)
    if logger.isEnabledFor(logging.DEBUG):
        residue = 0.5 * max(np.max(hermiticity_defect(x)) for x in raw)
        if residue > 0.0:
            logger.debug("generator_stack: symmetrized residue %.3e", residue)
    return _blocks(*map(_symmetrize, raw))


def generator_fd(scheme: NumericUnitary) -> Hermitian:
    """Second-order central-difference generator i U^dagger dU/dlambda.

    The anti-Hermitian residue before symmetrization is O(step^2) and is
    logged at DEBUG; halving the step shrinks the disagreement with the spectral
    route by about a factor of four. The symmetrized array goes through
    the gate (as_hermitian), which scans it and detects its form.
    """
    step = scheme.fd_step
    u0 = require_unitary(scheme.unitary(scheme.lam), "U(lambda)")
    up = require_unitary(scheme.unitary(scheme.lam + step), "U(lambda + step)")
    um = require_unitary(scheme.unitary(scheme.lam - step), "U(lambda - step)")
    raw = u0.conj().T @ (up - um)
    raw *= 1j
    raw /= 2.0 * step
    if logger.isEnabledFor(logging.DEBUG):
        residue = 0.5 * hermiticity_defect(raw)
        logger.debug("generator_fd: anti-Hermitian residue %.3e at step %.1e", residue, step)
    return as_hermitian(_symmetrize(raw), "generator")


def transformed_generator(scheme: EncodingScheme) -> Hermitian:
    """h at the scheme's time t: member 0 of generator_stack's one-member
    stack [t], or central differences for a black-box unitary."""
    if isinstance(scheme, (ExplicitGenerator, HamiltonianFamily)):
        return generator_stack(scheme)([scheme.t]).member(0)
    if isinstance(scheme, NumericUnitary):
        return generator_fd(scheme)
    raise TypeError(f"unknown encoding scheme type: {type(scheme).__name__}")


def generator_stack(scheme: ExplicitGenerator | HamiltonianFamily) -> Callable[[np.ndarray], Hermitian]:
    """h at each of T evolution times as one (T, n, n) stack record; the
    t-independent work (the eigendecomposition of H(lambda)) is done once
    and scheme.t is ignored. An explicit stack is t A for each t, in A's
    form, a spectral-kernel stack one broadcast kernel and one broadcast
    rotation; either is diagonal when all of it is (as when every time
    is 0, where h vanishes). Each is Hermitian by construction, and
    proved finite."""
    if isinstance(scheme, ExplicitGenerator):
        a, spectrum, diagonal = scheme.generator, None, False
    elif isinstance(scheme, HamiltonianFamily):
        a, spectrum = None, encoding_spectrum(scheme)
        diagonal = spectrum.diagonal
    else:
        raise TypeError(f"no time family for encoding scheme type: {type(scheme).__name__}")

    def stack(times) -> Hermitian:
        times = _check_times(times)
        if spectrum is None:
            lead = (slice(None),) + (None,) * (1 if a.form == "diagonal" else 2)
            h = replace(a, parts=tuple(times[lead] * p for p in a.parts))
        else:
            h = _integral_matrices(spectrum, times[:, None, None])
        if h.form != "diagonal" and (diagonal or (times == 0.0).all()):
            h = _diagonal(h.diagonal())
        return _finite(h)

    return stack
