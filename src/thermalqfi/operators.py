"""Dense Hermitian operator algebra with explicit accuracy contracts.

Operators are plain complex128 numpy arrays; the functions here validate
their preconditions instead of wrapping every array in a class. The
tolerances are module constants so the contracts stay visible at the call
sites that enforce them. All operations are pure and thread-safe.
Diagonal matrices, and matrices above DENSE_MAX_DIM that split into
parity blocks, skip the dense eigensolver under the same contracts.
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
# Largest dimension that always takes the dense eigensolver. Parity blocks
# round differently from the dense solve, so every matrix the figures
# (dim 11) and the verify battery (up to dim 81) decompose stays dense and
# their outputs keep their bytes; only larger matrices split.
DENSE_MAX_DIM = 81


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


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    """x itself, or its real part when its imaginary part is exactly zero."""
    return x.real if np.iscomplexobj(x) and not x.imag.any() else x


def _parity_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The even-index and odd-index diagonal blocks of a matrix above
    DENSE_MAX_DIM whose entries between an even and an odd index are all
    exact zeros, else None.

    In the ascending J_z basis index k carries J + M = k, so these are the
    two parity sectors that J_z, J_x^2, H(lambda) = J_x^2 + lambda J_z and
    their commutators conserve. A block whose imaginary part is exactly
    zero comes back real, to be solved in real arithmetic.
    """
    if m.shape[0] <= DENSE_MAX_DIM or m[0::2, 1::2].any() or m[1::2, 0::2].any():
        return None
    return _real_if_exact(m[0::2, 0::2]), _real_if_exact(m[1::2, 1::2])


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ x @ right, where a 1-D x is the diagonal of a matrix and
    scales the columns of left instead of multiplying. With real outer
    factors a complex x is taken as two real products."""
    if not (np.iscomplexobj(left) or np.iscomplexobj(right)):
        x = _real_if_exact(x)
        if np.iscomplexobj(x):
            return _sandwich(left, x.real, right) + 1j * _sandwich(left, x.imag, right)
    return (left * x if x.ndim == 1 else left @ x) @ right


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """One parity sector of a split decomposition: the source indices
    start, start + 2, ..., the positions of its eigenvalues in the
    ascending spectrum, and its eigenvectors (real for a real block)."""

    start: int
    positions: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending real eigenvalues and orthonormal eigenvector columns.

    Certified at construction: max |V^dagger V - I| <= 1e-10 and
    max |V diag(E) V^dagger - A| <= 1e-10 * max(1, max|A|). order is set
    when the source matrix was diagonal: the eigenvectors are then the
    unit vectors e_order[k], and basis changes reindex instead of
    multiplying. blocks is set when the source split into parity blocks
    (see _parity_blocks): basis changes then run block by block.
    source is the validated matrix that was decomposed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_dim: int
    order: np.ndarray | None = None
    source: np.ndarray | None = field(default=None, repr=False)
    blocks: tuple[ParityBlock, ...] | None = field(default=None, repr=False)

    def to_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        """V^dagger op V; for a diagonal source, op reindexed by order
        (op itself when order is the identity), which equals the product
        up to the sign of exact zeros. A diagonal op scales the rows of
        V^dagger instead of multiplying."""
        if self.blocks is not None:
            d = _diagonal_of(op)
            out = np.zeros_like(op, dtype=np.complex128)
            for a in self.blocks:
                for b in self.blocks:
                    if d is not None:
                        x = d[a.start::2] if a is b else None
                    else:
                        x = op[a.start::2, b.start::2]
                        x = x if a is b or x.any() else None
                    if x is not None:
                        out[np.ix_(a.positions, b.positions)] = _sandwich(a.vectors.conj().T, x, b.vectors)
            return out
        if self.order is None:
            v = self.eigenvectors
            d = _diagonal_of(op)
            return _sandwich(v.conj().T, op if d is None else d, v)
        if np.array_equal(self.order, np.arange(self.source_dim)):
            return op
        return op[np.ix_(self.order, self.order)]

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V x V^dagger, the inverse of to_eigenbasis."""
        if self.blocks is not None:
            out = np.zeros_like(x, dtype=np.complex128)
            for a in self.blocks:
                for b in self.blocks:
                    xab = x[np.ix_(a.positions, b.positions)]
                    if a is b or xab.any():
                        out[a.start::2, b.start::2] = _sandwich(a.vectors, xab, b.vectors.conj().T)
            return out
        if self.order is None:
            v = self.eigenvectors
            return v @ x @ v.conj().T
        if np.array_equal(self.order, np.arange(self.source_dim)):
            return x
        out = np.empty_like(x)
        out[np.ix_(self.order, self.order)] = x
        return out


def _eigh(m: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed on a {m.shape[0]}x{m.shape[0]} {what}: {exc} "
            f"(hermiticity defect {hermiticity_defect(m):.3e})"
        ) from exc


def _residuals(evals: np.ndarray, evecs: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """Orthonormality and reconstruction residuals of an eigenpair set."""
    ortho = float(np.max(np.abs(evecs.conj().T @ evecs - np.eye(m.shape[0]))))
    recon = float(np.max(np.abs((evecs * evals) @ evecs.conj().T - m)))
    return ortho, recon


def _blockwise_eigh(halves: tuple[np.ndarray, np.ndarray], what: str):
    """Eigenpairs of a matrix from its two parity blocks: the merged
    ascending eigenvalues, the full eigenvector matrix, the ParityBlocks
    and the largest orthonormality and reconstruction residuals."""
    parts = [_eigh(half, what) for half in halves]
    residuals = [_residuals(e, v, half) for (e, v), half in zip(parts, halves)]
    merged = np.concatenate([e for e, _ in parts])
    ascending = np.argsort(merged, kind="stable")
    dim = merged.size
    positions = np.empty(dim, dtype=np.intp)
    positions[ascending] = np.arange(dim)
    split = parts[0][0].size
    blocks = (
        ParityBlock(0, positions[:split], parts[0][1]),
        ParityBlock(1, positions[split:], parts[1][1]),
    )
    evecs = np.zeros((dim, dim), dtype=np.complex128)
    for block in blocks:
        evecs[block.start::2, block.positions] = block.vectors
    ortho = max(r[0] for r in residuals)
    recon = max(r[1] for r in residuals)
    return merged[ascending], evecs, blocks, ortho, recon


def eigendecompose(a, what: str = "matrix") -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix, eigenvalues ascending.

    Deterministic for bit-identical input. Among degenerate eigenvalues the
    eigenvector gauge is arbitrary; downstream code must only use
    basis-independent quantities. A diagonal matrix skips the eigensolver:
    its eigenvalues are the stably sorted real diagonal and its
    eigenvectors the matching unit vectors, which is bit for bit what
    eigh returns for a nondegenerate diagonal (the identity for J_z).
    Above DENSE_MAX_DIM a matrix that splits into parity blocks is solved
    block by block, in real arithmetic where a block is real; the
    residuals are certified per block, which is the same contract since
    the cross blocks are exact zeros on both sides.
    """
    m = require_hermitian(a, what)
    dim = m.shape[0]
    d = _diagonal_of(m)
    scale = max(1.0, float(np.max(np.abs(m if d is None else d))))
    halves = None if d is not None else _parity_blocks(m)
    order = blocks = None
    if d is not None:
        order = np.argsort(d.real, kind="stable")
        evals = d.real[order]
        evecs = np.zeros((dim, dim), dtype=np.complex128)
        evecs[order, np.arange(dim)] = 1.0
        ortho = 0.0
        recon = float(np.max(np.abs(d[order] - evals)))
    elif halves is not None:
        evals, evecs, blocks, ortho, recon = _blockwise_eigh(halves, what)
    else:
        evals, evecs = _eigh(m, what)
        ortho, recon = _residuals(evals, evecs, m)
    if ortho > ORTHONORMALITY_TOL or recon > RECONSTRUCTION_RTOL * scale:
        raise EigensolverError(
            f"eigendecomposition of {what} misses its residual contract: "
            f"orthonormality {ortho:.3e}, reconstruction {recon:.3e} (scale {scale:.3e})"
        )
    return SpectralDecomposition(evals, evecs, dim, order, m, blocks)


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
    shifts A -> A + c*I. A diagonal A is read off its real diagonal, and
    one that splits into parity blocks is solved block by block.
    validated=True skips the Hermiticity scan, for a caller that has
    already validated A (an output of commutator_i is exactly Hermitian).
    """
    m = a if validated else require_hermitian(a, "seminorm argument")
    d = _diagonal_of(m)
    if d is not None:
        return float(d.real.max() - d.real.min())
    blocks = _parity_blocks(m)
    if blocks is not None:
        spectra = [_eigvalsh(block, "seminorm argument") for block in blocks]
        return float(max(e[-1] for e in spectra) - min(e[0] for e in spectra))
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
