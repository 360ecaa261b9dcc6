"""Exact spin-J angular momentum matrices in the ascending J_z eigenbasis.

J is carried as the integer 2J so half-integer spins stay exact through
config parsing. Basis order is M = -J..J ascending, which puts the largest
thermal weight of exp(-beta J_z) at index 0 for beta > 0.
"""

from __future__ import annotations

import numpy as np

from . import operators
from .operators import Hermitian, _blocks, _diagonal, _symmetric_tridiagonal, _symmetrize

# Largest accepted 2J. A dense complex matrix at dimension 2001 takes 64 MB;
# the oat and lmg models keep their operators as half-size parity blocks,
# so one compute point at 2J = 2000 peaks at about 123 MB (oat, 60 MB at
# t = 0) and 258 MB (lmg) of ru_maxrss, and the linear model, whose J_x and
# J_y are dense arrays, at 276 MB (153 MB along z), with one BLAS thread.
# Anything larger is refused before a single array is allocated.
MAX_TWICE_J = 2000


def check_twice_j(twice_j) -> int:
    if isinstance(twice_j, bool) or not isinstance(twice_j, (int, np.integer)) or twice_j < 1:
        raise ValueError(f"twice_j must be a positive integer, got {twice_j!r}")
    if twice_j > MAX_TWICE_J:
        raise ValueError(f"twice_j must be at most {MAX_TWICE_J}, got {twice_j!r}")
    return int(twice_j)


def spin_value(twice_j) -> float:
    """J as a float; half-integers are exact in binary."""
    return check_twice_j(twice_j) / 2.0


def spin_dim(twice_j) -> int:
    return check_twice_j(twice_j) + 1


def m_values(twice_j) -> np.ndarray:
    """Magnetic quantum numbers -J..J, ascending."""
    j = spin_value(twice_j)
    return np.arange(twice_j + 1, dtype=float) - j


def _ladder(m: np.ndarray) -> np.ndarray:
    """sqrt(J(J+1) - M(M+1)) for M = -J..J-1, from the ascending M values."""
    j = -m[0]
    return np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))


def spin_operators(twice_j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_x, J_y, J_z) as complex matrices, the dense arrays of
    spin_operator_forms.

    J_z is diagonal with entries M; the ladder elements are
    sqrt(J(J+1) - M(M+1)), so J_x and J_y come out exactly Hermitian.
    """
    return tuple(record.matrix for record in spin_operator_forms(twice_j))


def spin_operator_forms(twice_j) -> tuple[Hermitian, Hermitian, Hermitian]:
    """(J_x, J_y, J_z) as operator records: J_z diagonal, J_x and J_y one
    block each, flagged tridiagonal above operators.DENSE_MAX_DIM (they
    flip the parity of J + M, so they never split into parity blocks).

    J_x and J_y are filled in from their bands, the half ladder elements
    h, with the bits of 0.5 (J_+ + J_-) and -0.5j (J_+ - J_-): J_x is
    real, and J_y holds -i h below its diagonal, i h above, and the
    signed zero complex(0.0, -0.0) that product leaves everywhere else.
    """
    m = m_values(twice_j)
    half = 0.5 * _ladder(m)
    jx = _symmetric_tridiagonal(np.zeros(m.size), half).astype(np.complex128)
    jy = np.full(jx.shape, complex(0.0, -0.0))
    k = np.arange(m.size - 1)
    jy.imag[k + 1, k], jy.imag[k, k + 1] = -half, half
    flag = [m.size > operators.DENSE_MAX_DIM]
    return _blocks(jx, tridiagonal=flag), _blocks(jy, tridiagonal=flag), _diagonal(m)


def banded_jz_jx_squared(twice_j) -> tuple[Hermitian, Hermitian]:
    """(J_z, J_x^2) as operator records, filled in from their bands
    without forming J_x or any product: J_z diagonal, J_x^2 as its two
    real tridiagonal parity blocks (it couples M to M +- 2 only).

    With h the off-diagonal of J_x (half the ladder elements), J_x^2 has
    the diagonal h[k-1]^2 + h[k]^2 and the offsets +-2 h[k] h[k+1], each
    entry formed in the order the dense product J_x @ J_x forms it. A
    BLAS product may fuse the diagonal's addition with its second
    multiplication, so the two agree within one rounding per entry (a
    measured 1.8e-16 of max |entry| up to 2J = 2000), not bit for bit.
    """
    m = m_values(twice_j)
    h = 0.5 * _ladder(m)
    square = h * h
    diagonal = np.concatenate(([0.0], square)) + np.concatenate((square, [0.0]))
    off = h[:-1] * h[1:]  # between k and k + 2
    halves = [_symmetric_tridiagonal(diagonal[start::2], off[start::2]) for start in (0, 1)]
    return _diagonal(m), _blocks(*halves, tridiagonal=(True, True))


def oat_commutator(twice_j) -> np.ndarray:
    """J_x J_y + J_y J_x, the traceless operator whose spectral width
    controls the one-axis-twisting bound (it is i[J_z, J_x^2] up to sign
    and the evolution time)."""
    jx, jy, _ = spin_operators(twice_j)
    return _symmetrize(jx @ jy + jy @ jx)


def rotated_oat_operator(twice_j) -> np.ndarray:
    """J_x^2 - J_y^2; unitarily equivalent to oat_commutator, so isospectral."""
    jx, jy, _ = spin_operators(twice_j)
    return _symmetrize(jx @ jx - jy @ jy)
