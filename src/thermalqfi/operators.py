"""Dense Hermitian operator algebra with explicit accuracy contracts.

Operators are plain complex128 numpy arrays; the functions here validate
their preconditions instead of wrapping every array in a class. The
tolerances are module constants so the contracts stay visible at the call
sites that enforce them. All operations are pure and thread-safe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

HERMITICITY_RTOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-10
UNITARITY_TOL = 1e-10
EXP_ARG_LIMIT = 700.0


class NotHermitianError(ValueError):
    """Input matrix violates the Hermiticity tolerance."""


class EigensolverError(RuntimeError):
    """The dense symmetric eigensolver failed its accuracy contract."""


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def hermiticity_defect(a) -> float:
    """Largest entrywise deviation from self-adjointness, max |A - A^dagger|."""
    m = np.asarray(a)
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(a)
    tol = HERMITICITY_RTOL * max(1.0, float(np.abs(m).max()))
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NotHermitianError(
            f"{what} is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return m


def require_unitary(u, what: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(u)
    defect = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
    if defect > UNITARITY_TOL:
        raise ValueError(f"{what} is not unitary: max |U U^dagger - I| = {defect:.3e}")
    return m


def _diagonal_of(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square matrix whose off-diagonal entries are all
    exact zeros (of either sign), else None.

    The off-diagonal entries of an n x n array, flattened, are the n - 1
    runs of n entries between consecutive diagonal ones, so the scan is
    a view of a C-contiguous matrix rather than a masked copy.
    """
    n = m.shape[0]
    if n > 1 and (m[1, 0] != 0 or m[0, 1] != 0):
        return None
    if m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any():
        return None
    return np.diagonal(m)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending real eigenvalues and orthonormal eigenvector columns.

    Certified at construction: max |V^dagger V - I| <= 1e-10 and
    max |V diag(E) V^dagger - A| <= 1e-10 * max(1, max|A|). order is set
    when the source matrix was diagonal: the eigenvectors are then the
    unit vectors e_order[k], and basis changes reindex instead of
    multiplying. source is the validated matrix that was decomposed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_dim: int
    order: np.ndarray | None = None
    source: np.ndarray | None = field(default=None, repr=False)

    def to_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        """V^dagger op V; for a diagonal source, op reindexed by order
        (op itself when order is the identity), which equals the product
        up to the sign of exact zeros."""
        if self.order is None:
            v = self.eigenvectors
            return v.conj().T @ op @ v
        if np.array_equal(self.order, np.arange(self.source_dim)):
            return op
        return op[np.ix_(self.order, self.order)]


def eigendecompose(a, what: str = "matrix") -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix, eigenvalues ascending.

    Deterministic for bit-identical input. Among degenerate eigenvalues the
    eigenvector gauge is arbitrary; downstream code must only use
    basis-independent quantities. A diagonal matrix skips the eigensolver:
    its eigenvalues are the stably sorted real diagonal and its
    eigenvectors the matching unit vectors, which is bit for bit what
    eigh returns for a nondegenerate diagonal (the identity for J_z).
    """
    m = require_hermitian(a, what)
    dim = m.shape[0]
    d = _diagonal_of(m)
    if d is None:
        order = None
        try:
            evals, evecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"eigensolver failed on a {dim}x{dim} {what}: {exc} "
                f"(hermiticity defect {hermiticity_defect(m):.3e})"
            ) from exc
        ortho = float(np.max(np.abs(evecs.conj().T @ evecs - np.eye(dim))))
        recon = float(np.max(np.abs((evecs * evals) @ evecs.conj().T - m)))
        scale = max(1.0, float(np.max(np.abs(m))))
    else:
        order = np.argsort(d.real, kind="stable")
        evals = d.real[order]
        evecs = np.zeros((dim, dim), dtype=np.complex128)
        evecs[order, np.arange(dim)] = 1.0
        ortho = 0.0
        recon = float(np.max(np.abs(d[order] - evals)))
        scale = max(1.0, float(np.max(np.abs(d))))
    if ortho > ORTHONORMALITY_TOL or recon > RECONSTRUCTION_RTOL * scale:
        raise EigensolverError(
            f"eigendecomposition of {what} misses its residual contract: "
            f"orthonormality {ortho:.3e}, reconstruction {recon:.3e} (scale {scale:.3e})"
        )
    return SpectralDecomposition(evals, evecs, dim, order, m)


def _eigvalsh(m: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed on a {m.shape[0]}x{m.shape[0]} {what}: {exc}"
        ) from exc


def matrix_exp_scaled(a, scale) -> np.ndarray:
    """exp(scale * A) for Hermitian A, evaluated through its eigenbasis.

    scale = -1j*t yields the evolution unitary; negative real scale yields
    unnormalized Boltzmann weights. Large positive real exponents are
    refused because they overflow; thermal weights should go through
    thermal.gibbs_state, which works relative to the ground energy.
    """
    dec = eigendecompose(a)
    exponents = complex(scale) * dec.eigenvalues
    peak = float(np.max(exponents.real))
    if peak > EXP_ARG_LIMIT:
        raise OverflowError(
            f"exp argument reaches {peak:.1f} and would overflow; evaluate "
            "Boltzmann factors in the log domain (see thermal.gibbs_state)"
        )
    weights = np.exp(exponents)
    return (dec.eigenvectors * weights) @ dec.eigenvectors.conj().T


def commutator_i(a, b, *, validated: bool = False) -> np.ndarray:
    """i[A, B] = i(AB - BA), Hermitian for Hermitian inputs.

    Floating-point products drift off the Hermitian manifold at the 1e-15
    scale; the result is symmetrized and the discarded anti-Hermitian
    residue logged (measured only when DEBUG logging is on) so the drift
    cannot poison downstream tolerance checks.
    A diagonal A scales the rows and columns of B instead of multiplying,
    with the same IEEE operations per nonzero entry as the zero-padded
    products; only the sign of an exact zero may differ, as it does
    between BLAS kernels.
    validated=True skips the Hermiticity scans of A and B, for callers
    that have already validated both.
    """
    if validated:
        ma, mb = a, b
    else:
        ma = require_hermitian(a, "commutator argument A")
        mb = require_hermitian(b, "commutator argument B")
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch in commutator: {ma.shape} vs {mb.shape}")
    d = _diagonal_of(ma)
    if d is None:
        x = 1j * (ma @ mb - mb @ ma)
    else:
        x = 1j * (d[:, None] * mb - mb * d[None, :])
    if logger.isEnabledFor(logging.DEBUG):
        residue = 0.5 * hermiticity_defect(x)
        if residue > 0.0:
            logger.debug("commutator_i: symmetrized away anti-Hermitian residue %.3e", residue)
    return 0.5 * (x + x.conj().T)


def seminorm(a, *, validated: bool = False) -> float:
    """Spectral width E_max - E_min of a Hermitian matrix.

    Nonnegative; zero exactly when A is a multiple of the identity (within
    eigensolver tolerance). Invariant under unitary conjugation and under
    shifts A -> A + c*I. A diagonal A is read off its real diagonal.
    validated=True skips the Hermiticity scan, for a caller that has
    already validated A (an output of commutator_i is exactly Hermitian).
    """
    m = a if validated else require_hermitian(a, "seminorm argument")
    d = _diagonal_of(m)
    if d is not None:
        return float(d.real.max() - d.real.min())
    evals = _eigvalsh(m, "seminorm argument")
    return float(evals[-1] - evals[0])


def variance(a, rho) -> float:
    """Var[A] = Tr[rho A^2] - Tr[rho A]^2 for a unit-trace density operator.

    Tiny negative results in [-1e-12, 0) are rounding residue and clamp to
    zero; anything more negative indicates an invalid input and raises.
    """
    ma = require_hermitian(a, "observable")
    mr = require_hermitian(rho, "density operator")
    if ma.shape != mr.shape:
        raise ValueError(f"dimension mismatch: observable {ma.shape}, state {mr.shape}")
    trace = complex(np.trace(mr)).real
    if abs(trace - 1.0) > 1e-12:
        raise ValueError(f"density operator trace {trace!r} is not 1 within 1e-12")
    lo = float(_eigvalsh(mr, "density operator")[0])
    if lo < -1e-10:
        raise ValueError(f"density operator is not positive semidefinite (min eigenvalue {lo:.3e})")
    ra = mr @ ma
    first = complex(np.trace(ra)).real
    second = complex(np.trace(ra @ ma)).real
    value = second - first * first
    if value < 0.0:
        if value >= -1e-12:
            return 0.0
        raise ArithmeticError(f"variance {value:.6e} is negative beyond rounding tolerance")
    return value
