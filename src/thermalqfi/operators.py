"""Dense Hermitian operator algebra with explicit accuracy contracts.

Operators are plain complex128 numpy arrays; the functions here validate
their preconditions instead of wrapping every array in a class. The
tolerances are module constants so the contracts stay visible at the call
sites that enforce them. All operations are pure and thread-safe.
Diagonal matrices, and matrices above DENSE_MAX_DIM that split into
parity blocks, skip the dense eigensolver under the same contracts.
certified_eigh and stacked_seminorms solve a (k, n, n) stack in one
LAPACK call, with the bits of per-matrix dense calls. They validate
nothing: the caller guarantees that every member is one that the
single-matrix functions would solve densely, and only a LAPACK error or
a missed residual certificate raises EigensolverError.
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


def hermiticity_defect(a):
    """Largest entrywise deviation from self-adjointness, max |A - A^dagger|;
    one per matrix of a (..., n, n) stack."""
    m = np.asarray(a)
    return np.abs(m - m.conj().mT).max(axis=(-2, -1))


def _exactly_hermitian(m: np.ndarray) -> bool:
    """Whether every matrix of a (..., n, n) array equals its conjugate
    transpose entry for entry (+0 and -0 equal, NaN equal to nothing).
    Rows are compared a block at a time against one reused buffer of at
    most 16384 entries, so no full-size temporary is made."""
    n = m.shape[-1]
    rows = max(1, 16384 * n // max(m.size, 1))
    buffer = np.empty(m.shape[:-2] + (min(rows, n), n), dtype=m.dtype)
    for start in range(0, n, rows):
        block = buffer[..., : min(rows, n - start), :]
        np.conjugate(m[..., start : start + rows].mT, out=block)
        if not np.array_equal(m[..., start : start + rows, :], block):
            return False
    return True


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """m itself if each of its matrices is Hermitian within
    HERMITICITY_RTOL * max(1, max|entry|) of that matrix; else
    NotHermitianError for the first matrix that is not. An exactly
    Hermitian m has defect 0 and passes whatever the tolerance, so the
    tolerance and the defect are computed only when the one exact
    comparison fails."""
    if _exactly_hermitian(m):
        return m
    tol = HERMITICITY_RTOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    defect = hermiticity_defect(m)
    failed = np.flatnonzero(defect > tol)
    if failed.size:
        i = failed[0]
        raise NotHermitianError(
            f"{what} is not Hermitian: defect {defect.flat[i]:.3e} exceeds tolerance {tol.flat[i]:.3e}"
        )
    return m


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    return _hermitian(as_complex_matrix(a), what)


def require_hermitian_stack(stack, what: str = "matrix") -> np.ndarray:
    """require_hermitian of every matrix of a (k, n, n) stack in one scan,
    with its finiteness check, its per-matrix tolerance and its message
    for the first matrix that fails."""
    m = np.asarray(stack, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] == 0:
        raise ValueError(f"expected a stack of nonempty square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return _hermitian(m, what)


def require_unitary(u, what: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(u)
    defect = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
    if defect > UNITARITY_TOL:
        raise ValueError(f"{what} is not unitary: max |U U^dagger - I| = {defect:.3e}")
    return m


def _symmetrize(x: np.ndarray) -> np.ndarray:
    """x overwritten by 0.5 (x + x^dagger), for each matrix of a complex
    (..., n, n) array, with the bits of that out-of-place formula: the
    same additions and the same complex products by 0.5, made with one
    conjugate buffer."""
    x += x.conj().mT
    x *= 0.5
    return x


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of each matrix of a (..., n, n) array, as
    (..., n - 1, n). Flattened, they are the n - 1 runs of n entries
    between consecutive diagonal ones, so this is a view of a
    C-contiguous array rather than a masked copy."""
    lead, n = m.shape[:-2], m.shape[-1]
    return m.reshape(*lead, n * n)[..., 1:].reshape(*lead, n - 1, n + 1)[..., :n]


def _diagonal_of(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square matrix whose off-diagonal entries are all
    exact zeros (of either sign), else None."""
    n = m.shape[0]
    if n > 1 and (m[1, 0] != 0 or m[0, 1] != 0):
        return None
    if _off_diagonal(m).any():
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


def _real_tridiagonal(block: np.ndarray) -> np.ndarray:
    """An isospectral real matrix for a complex Hermitian block that is
    tridiagonal, else the block itself.

    The diagonal phase similarity that makes each subdiagonal entry e_k
    real and positive (Golub & Van Loan, Matrix Computations, 8.4) maps
    the block to the real symmetric tridiagonal matrix with diagonal
    Re(d_k) and off-diagonals |e_k|. It is read from the lower triangle,
    the one eigvalsh reads, and solved in real arithmetic.
    """
    if not np.iscomplexobj(block):
        return block
    diagonal, lower = np.diagonal(block), np.diagonal(block, -1)
    bands = np.count_nonzero(diagonal) + np.count_nonzero(lower) + np.count_nonzero(np.diagonal(block, 1))
    if np.count_nonzero(block) != bands:
        return block
    off = np.abs(lower)
    return np.diag(diagonal.real) + np.diag(off, -1) + np.diag(off, 1)


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

    A stacked decomposition holds the eigenpairs of a (k, n, n) stack from
    certified_eigh, every array with a leading axis of k. The basis
    changes take a (k, n, n) stack of operators, against one
    decomposition or a stack of k, with the bits of per-matrix calls on
    each member; only a 2-D operator is tested for a diagonal, so a
    diagonal member of a stack is multiplied like any other, not scaled.
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
        d = _diagonal_of(op) if op.ndim == 2 and self.order is None else None
        if self.blocks is not None:
            out = np.zeros_like(op, dtype=np.complex128)
            for a in self.blocks:
                for b in self.blocks:
                    if d is not None:
                        x = d[a.start::2] if a is b else None
                    else:
                        x = op[..., a.start::2, b.start::2]
                        x = x if a is b or x.any() else None
                    if x is not None:
                        out[..., a.positions[:, None], b.positions] = _sandwich(a.vectors.conj().T, x, b.vectors)
            return out
        if self.order is None:
            v = self.eigenvectors
            return _sandwich(v.conj().mT, op if d is None else d, v)
        if np.array_equal(self.order, np.arange(self.source_dim)):
            return op
        return op[..., self.order[:, None], self.order]

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V x V^dagger, the inverse of to_eigenbasis."""
        if self.blocks is not None:
            out = np.zeros_like(x, dtype=np.complex128)
            for a in self.blocks:
                for b in self.blocks:
                    xab = x[..., a.positions[:, None], b.positions]
                    if a is b or xab.any():
                        out[..., a.start::2, b.start::2] = _sandwich(a.vectors, xab, b.vectors.conj().T)
            return out
        if self.order is None:
            v = self.eigenvectors
            return v @ x @ v.conj().mT
        if np.array_equal(self.order, np.arange(self.source_dim)):
            return x
        out = np.empty_like(x)
        out[..., self.order[:, None], self.order] = x
        return out

    def from_block_eigenbases(self, parts) -> np.ndarray:
        """from_eigenbasis of an x that is an exact zero across parity,
        given as one part per block, x over that block's positions (or a
        stack of them); the bits of from_eigenbasis on the assembled x."""
        out = np.zeros(parts[0].shape[:-2] + (self.source_dim, self.source_dim), dtype=np.complex128)
        for block, x in zip(self.blocks, parts):
            out[..., block.start::2, block.start::2] = _sandwich(block.vectors, x, block.vectors.conj().T)
        return out


def _shape(m: np.ndarray) -> str:
    return "x".join(map(str, m.shape))


def _eigh(m: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a matrix or of a (k, n, n) stack; a LAPACK error raises
    EigensolverError with the largest Hermiticity defect."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed on a {_shape(m)} {what}: {exc} "
            f"(hermiticity defect {np.max(hermiticity_defect(m)):.3e})"
        ) from exc


def _residuals(evals: np.ndarray, evecs: np.ndarray, m: np.ndarray):
    """Orthonormality and reconstruction residuals of an eigenpair set; one
    pair per matrix of a (..., n, n) stack."""
    ortho = np.abs(evecs.conj().mT @ evecs - np.eye(m.shape[-1])).max(axis=(-2, -1))
    recon = np.abs((evecs * evals[..., None, :]) @ evecs.conj().mT - m).max(axis=(-2, -1))
    return ortho, recon


def _certify(ortho, recon, scale, what: str) -> None:
    """Raise EigensolverError unless the residuals meet the
    eigendecomposition contract: 1e-10 orthonormality, and reconstruction
    1e-10 relative to scale. Residuals of a stack, one per matrix, name
    the first matrix that misses it."""
    missed = np.flatnonzero((ortho > ORTHONORMALITY_TOL) | (recon > RECONSTRUCTION_RTOL * scale))
    if missed.size == 0:
        return
    where = ""
    if np.ndim(ortho):
        i = missed[0]
        ortho, recon, scale, where = ortho[i], recon[i], scale[i], f" at matrix {i}"
    raise EigensolverError(
        f"eigendecomposition of {what} misses its residual contract{where}: "
        f"orthonormality {ortho:.3e}, reconstruction {recon:.3e} (scale {scale:.3e})"
    )


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
    _certify(ortho, recon, scale, what)
    return SpectralDecomposition(evals, evecs, dim, order, m, blocks)


def certified_eigh(stack: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues and eigenvectors of each matrix of a (k, n, n)
    stack, from one stacked eigh, which gives the bits of per-matrix
    calls, under eigendecompose's residual certificate."""
    evals, evecs = _eigh(stack, what)
    _certify(*_residuals(evals, evecs, stack), np.maximum(1.0, np.abs(stack).max(axis=(-2, -1))), what)
    return evals, evecs


def stacked_seminorms(stack: np.ndarray, what: str) -> list[float]:
    """seminorm of each matrix of a validated (k, n, n) stack, with its
    bits: a diagonal member is read off its diagonal and the others share
    one stacked eigvalsh, which gives the bits of per-matrix calls. Above
    DENSE_MAX_DIM, where a sweep's chunk of times holds one generator,
    each member takes seminorm's own path."""
    if stack.shape[-1] > DENSE_MAX_DIM:
        return [seminorm(m, validated=True) for m in stack]
    widths = np.empty(len(stack))
    diagonal = ~_off_diagonal(stack).any(axis=(-2, -1))
    if diagonal.any():
        d = np.diagonal(stack[diagonal], axis1=-2, axis2=-1).real
        widths[diagonal] = d.max(axis=-1) - d.min(axis=-1)
    if not diagonal.all():
        evals = _eigvalsh(stack[~diagonal] if diagonal.any() else stack, what)
        widths[~diagonal] = evals[:, -1] - evals[:, 0]
    return widths.tolist()


def _eigvalsh(m: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed on a {_shape(m)} {what}: {exc}"
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
    that have already validated both; a validated (k, n, n) stack of B,
    against one A or a stack of k, then gives the k commutators.
    """
    if validated:
        ma, mb = a, b
    else:
        ma = require_hermitian(a, "commutator argument A")
        mb = require_hermitian(b, "commutator argument B")
    if ma.shape[-2:] != mb.shape[-2:]:
        raise ValueError(f"dimension mismatch in commutator: {ma.shape} vs {mb.shape}")
    d = _diagonal_of(ma) if ma.ndim == 2 else None
    if d is None:
        x = ma @ mb
        x -= mb @ ma
    else:
        x = d[:, None] * mb
        x -= mb * d[None, :]
    # 1j * x, in place unless x is real, since a real array cannot hold it
    x = np.multiply(x, 1j, out=x if np.iscomplexobj(x) else None)
    if logger.isEnabledFor(logging.DEBUG):
        residue = 0.5 * np.max(hermiticity_defect(x))
        if residue > 0.0:
            logger.debug("commutator_i: symmetrized away anti-Hermitian residue %.3e", residue)
    return _symmetrize(x)


def seminorm(a, *, validated: bool = False) -> float:
    """Spectral width E_max - E_min of a Hermitian matrix.

    Nonnegative; zero exactly when A is a multiple of the identity (within
    eigensolver tolerance). Invariant under unitary conjugation and under
    shifts A -> A + c*I. A diagonal A is read off its real diagonal. Above
    DENSE_MAX_DIM, one that splits into parity blocks is solved block by
    block, and a complex tridiagonal block, or a whole matrix that does
    not split (the linear model's J_x, J_y and C), in real arithmetic
    (_real_tridiagonal).
    validated=True skips the Hermiticity scan, for a caller that has
    already validated A (an output of commutator_i is exactly Hermitian).
    """
    m = a if validated else require_hermitian(a, "seminorm argument")
    d = _diagonal_of(m)
    if d is not None:
        return float(d.real.max() - d.real.min())
    blocks = _parity_blocks(m)
    if blocks is None and m.shape[0] > DENSE_MAX_DIM:
        blocks = (m,)
    if blocks is not None:
        spectra = [_eigvalsh(_real_tridiagonal(block), "seminorm argument") for block in blocks]
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
