"""Hermitian operator algebra with explicit accuracy contracts.

An operator is a Hermitian record that holds a matrix, or a stack of
them, in one of two forms: diagonal, or k interleaved diagonal blocks,
where k = 1 is the dense matrix and k = 2 the parity sectors. A record
is its form and parts; its dense array is built only when asked for.
The spin and band builders, the generators, the block basis changes
and commutator_i make records; a plain array is scanned and its form
detected once, by as_hermitian, the one gate for arrays. Everything
downstream reads the form instead of scanning for it, so a parity
operator above DENSE_MAX_DIM stays as two half blocks end to end. The
public functions take an array or a record and return records. The
tolerances are module constants so the contracts stay visible at the
call sites that enforce them. All operations are pure and thread-safe.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field, replace

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
# their outputs keep their bits; only larger matrices split.
DENSE_MAX_DIM = 81


class NotHermitianError(ValueError):
    """Input matrix violates the Hermiticity tolerance."""


class EigensolverError(RuntimeError):
    """The dense symmetric eigensolver failed its accuracy contract."""


def _require_finite(m: np.ndarray) -> None:
    """ValueError unless every entry of m is finite. One sum proves it: a
    NaN or an infinity poisons the sum, and only a sum that is not finite
    (which finite entries also give when they overflow) takes the
    entrywise check."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = m.sum()
    if not np.isfinite(total) and not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    _require_finite(m)
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


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    """x itself, or its real part when its imaginary part is exactly zero."""
    return x.real if np.iscomplexobj(x) and not x.imag.any() else x


def _is_tridiagonal(block: np.ndarray) -> bool:
    """Whether every nonzero entry of a square matrix lies on its three
    central bands."""
    bands = sum(np.count_nonzero(np.diagonal(block, k)) for k in (-1, 0, 1))
    return np.count_nonzero(block) == bands


def _symmetric_tridiagonal(diagonal: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The real symmetric tridiagonal matrix with the bands diagonal,
    (..., n), and off, (..., n - 1), or the stack of them."""
    k = np.arange(diagonal.shape[-1])
    out = np.zeros(diagonal.shape + k.shape)
    out[..., k, k] = diagonal
    out[..., k[1:], k[:-1]] = out[..., k[:-1], k[1:]] = off
    return out


def _interleave(*parts: np.ndarray) -> np.ndarray:
    """The new (..., n) array whose entries s, s + k, s + 2k, ... are those
    of part s, for k parts."""
    if len(parts) == 1:
        return parts[0].copy()
    k = len(parts)
    size = sum(part.shape[-1] for part in parts)
    out = np.empty(parts[0].shape[:-1] + (size,), dtype=np.result_type(*parts))
    for start, part in enumerate(parts):
        out[..., start::k] = part
    return out


@dataclass(frozen=True, eq=False)
class Hermitian:
    """A Hermitian matrix, or a stack of them along leading axes, held in
    the form that names how it is stored (dim is the matrix size n):

    - "diagonal": parts = (d,), the diagonal, (..., n);
    - "blocks": parts = (b_0, ..., b_(k-1)), the blocks over the indices
      s, s + k, s + 2k, ... of each s < k, every entry between two blocks
      an exact zero, and tridiagonal[s] whether block s is Hermitian
      tridiagonal. One block is the dense matrix. Two are the parity
      sectors: in the ascending J_z basis index i carries J + M = i, whose
      parity J_z, J_x^2, H(lambda) = J_x^2 + lambda J_z and their
      commutators conserve.

    A record is diagonal, split or flagged only where detection on its
    dense array (operator_form) would find it so, and a stack only where
    all of it is. A single matrix is the one-member stack member(None).
    A record keeps no dense array beside its parts: matrix builds one
    when asked for, and one block is its own dense array.
    """

    form: str
    parts: tuple[np.ndarray, ...]
    dim: int
    tridiagonal: tuple[bool, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        lead = self.parts[0].shape[: -1 if self.form == "diagonal" else -2]
        return lead + (self.dim, self.dim)

    @property
    def stacked(self) -> bool:
        """Whether the record holds a stack rather than one matrix."""
        return len(self.shape) > 2

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense complex array (one block is stored as it)."""
        if self.form == "blocks" and len(self.parts) == 1:
            return self.parts[0]
        out = np.zeros(self.shape, dtype=np.complex128)
        if self.form == "diagonal":
            out.reshape(self.shape[:-2] + (-1,))[..., :: self.dim + 1] = self.parts[0]
            return out
        for start, block in enumerate(self.parts):
            out[..., start :: len(self.parts), start :: len(self.parts)] = block
        return out

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, (..., n)."""
        if self.form == "diagonal":
            return self.parts[0]
        return _interleave(*(np.diagonal(b, axis1=-2, axis2=-1) for b in self.parts))

    def member(self, i: int | None) -> Hermitian:
        """Member i of a stack, or for i = None the one-member stack of a
        single matrix."""
        return replace(self, parts=tuple(p[i] for p in self.parts))

    def __mul__(self, c) -> Hermitian:
        """c A for a real scalar c."""
        return replace(self, parts=tuple(c * p for p in self.parts))

    __rmul__ = __mul__

    def __add__(self, other: Hermitian) -> Hermitian:
        """A + D of a single matrix A and a diagonal D, in A's form."""
        d = other.diagonal()
        if self.form == "diagonal":
            return _diagonal(self.parts[0] + d)
        parts = []
        for start, block in enumerate(self.parts):
            out = block.astype(np.result_type(block, d))
            i = np.arange(out.shape[-1])
            out[i, i] += d[start :: len(self.parts)]
            parts.append(out)
        return _blocks(*parts, tridiagonal=self.tridiagonal)


def _diagonal(d: np.ndarray) -> Hermitian:
    return Hermitian("diagonal", (d,), d.shape[-1])


def _blocks(*parts: np.ndarray, tridiagonal=None) -> Hermitian:
    """The record of k blocks (one: a dense matrix), unflagged by default."""
    flags = (False,) * len(parts) if tridiagonal is None else tuple(tridiagonal)
    return Hermitian("blocks", parts, sum(part.shape[-1] for part in parts), flags)


def operator_form(m: np.ndarray) -> Hermitian:
    """The record of a Hermitian complex matrix, in the form detection
    finds on it: diagonal when every off-diagonal entry is an exact zero
    (of either sign); above DENSE_MAX_DIM, two parity blocks when every
    entry between an even and an odd index is one, else one block,
    flagged tridiagonal when every nonzero entry lies on the three
    central bands; else one unflagged block. The gate's detection, and
    the reference for every form a builder or a product names. One block
    is m itself; the other forms are read off m."""
    n = m.shape[0]
    if n == 1 or (m[1, 0] == 0 and m[0, 1] == 0 and not _off_diagonal(m).any()):
        return _diagonal(np.diagonal(m))
    if n > DENSE_MAX_DIM and not (m[0::2, 1::2].any() or m[1::2, 0::2].any()):
        halves = [_real_if_exact(m[start::2, start::2]) for start in (0, 1)]
        return _blocks(*halves, tridiagonal=[_is_tridiagonal(b) for b in halves])
    return _blocks(m, tridiagonal=[n > DENSE_MAX_DIM and _is_tridiagonal(m)])


def as_hermitian(a, what: str = "matrix") -> Hermitian:
    """The one gate for an array: a record passes as it is; an array is
    scanned once (require_hermitian) and its form detected once
    (operator_form)."""
    if isinstance(a, Hermitian):
        return a
    return operator_form(require_hermitian(a, what))


def concatenate(records) -> Hermitian:
    """The stacks of records, one after another, as one stack: in their
    common layout (form, block count and tridiagonal flags), or else as
    one unflagged block."""
    records = list(records)
    if len(records) == 1:
        return records[0]
    if len({(r.form, len(r.parts), r.tridiagonal) for r in records}) == 1:
        return replace(records[0], parts=tuple(np.concatenate(p) for p in zip(*(r.parts for r in records))))
    return _blocks(np.concatenate([r.matrix for r in records]))


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """left @ x @ right, where a diagonal x holds the diagonal of each
    matrix, (..., n), and scales the columns of left instead of
    multiplying. With real outer factors a complex x is two real products."""
    if np.iscomplexobj(x) and not (np.iscomplexobj(left) or np.iscomplexobj(right)):
        return _sandwich(left, x.real, right, diagonal) + 1j * _sandwich(left, x.imag, right, diagonal)
    return (left * x[..., None, :] if diagonal else left @ x) @ right


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """One of k blocks of a decomposition: the source indices start,
    start + k, ..., the positions of its eigenvalues in the ascending
    spectrum, and its eigenvectors (real for a real block; a (k, n, n)
    stack for the one block of a stacked decomposition)."""

    start: int
    positions: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending real eigenvalues and orthonormal eigenvectors.

    Certified at construction: max |V^dagger V - I| <= 1e-10 and
    max |V diag(E) V^dagger - A| <= 1e-10 * max(1, max|A|). order is set
    when the source was diagonal: the eigenvectors are then the unit
    vectors e_order[k], and basis changes reindex instead of multiplying.
    Otherwise blocks holds one ParityBlock per block of the source, and
    basis changes run block by block. The full eigenvector matrix is made
    only when asked for (eigenvectors). source is the record that was
    decomposed.

    A stacked decomposition, of a (k, n, n) one-block stack record, has
    eigenvalues and vectors with a leading axis of k. The basis changes
    take a stack of operators, against one decomposition or a stack of k,
    with the bits of per-matrix calls on each member.
    """

    eigenvalues: np.ndarray
    source_dim: int
    order: np.ndarray | None = None
    source: Hermitian | None = field(default=None, repr=False)
    blocks: tuple[ParityBlock, ...] | None = field(default=None, repr=False)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        if self.blocks is not None and len(self.blocks) == 1:
            return self.blocks[0].vectors
        out = np.zeros((self.source_dim, self.source_dim), dtype=np.complex128)
        if self.order is not None:
            out[self.order, np.arange(self.source_dim)] = 1.0
        for block in self.blocks or ():
            out[block.start :: len(self.blocks), block.positions] = block.vectors
        return out

    def conserves(self, op: Hermitian) -> bool:
        """Whether op is diagonal or in the blocks of a block decomposition."""
        return self.blocks is not None and (op.form == "diagonal" or len(op.parts) == len(self.blocks))

    def to_eigenbasis(self, op) -> Hermitian:
        """V^dagger op V. The form of op decides the work: for a diagonal
        source, op reindexed by order (op itself when order is the
        identity), which equals the product up to the sign of exact
        zeros; otherwise an op the blocks conserve takes only the products
        within each block (a diagonal op scales the rows of V_b^dagger),
        and any other op the products of every pair of blocks. An array
        goes through the gate."""
        h = as_hermitian(op, "operator")
        if self.order is not None:
            if np.array_equal(self.order, np.arange(self.source_dim)):
                return h
            if h.form == "diagonal":
                return replace(h, parts=(h.parts[0][..., self.order],))
            return _blocks(h.matrix[..., self.order[:, None], self.order])
        if self.conserves(h):
            pieces = zip(self.blocks, self.blocks, self.to_block_eigenbases(h))
        else:
            k, m, pairs = len(self.blocks), h.matrix, itertools.product(self.blocks, repeat=2)
            pieces = ((a, b, _sandwich(a.vectors.conj().mT, m[..., a.start::k, b.start::k], b.vectors)) for a, b in pairs)
        if len(self.blocks) == 1:  # one block at every position in order: its product is the matrix
            return _blocks(next(pieces)[2])
        out = np.zeros(h.shape, dtype=np.complex128)
        for a, b, x in pieces:
            out[..., a.positions[:, None], b.positions] = x
        return _blocks(out)

    def to_block_eigenbases(self, op: Hermitian) -> list[np.ndarray]:
        """V_b^dagger op_b V_b for each block b of the decomposition, of an
        op (or a stack) that is diagonal or in the same blocks. A diagonal
        op scales the rows of V_b^dagger instead of multiplying: within
        eps * max|d| of the product, since BLAS then multiplies in another
        operand layout."""
        if op.form == "diagonal":
            d, k = op.parts[0], len(self.blocks)
            return [_sandwich(b.vectors.conj().mT, d[..., b.start :: k], b.vectors, True) for b in self.blocks]
        return [_sandwich(b.vectors.conj().mT, x, b.vectors) for b, x in zip(self.blocks, op.parts)]

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V x V^dagger, the inverse of to_eigenbasis, for an array x; a
        pair of blocks between which x is an exact zero is skipped."""
        if self.order is not None:
            if np.array_equal(self.order, np.arange(self.source_dim)):
                return x
            out = np.empty_like(x)
            out[..., self.order[:, None], self.order] = x
            return out
        k = len(self.blocks)
        out = np.zeros_like(x, dtype=np.complex128)
        for a, b in itertools.product(self.blocks, repeat=2):
            xab = x[..., a.positions[:, None], b.positions]
            if a is b or xab.any():
                out[..., a.start :: k, b.start :: k] = _sandwich(a.vectors, xab, b.vectors.conj().mT)
        return out

    def from_block_eigenbases(self, parts) -> tuple[np.ndarray, ...]:
        """The blocks V_b x_b V_b^dagger of from_eigenbasis of an x that is
        an exact zero between blocks, given as one part per block, x over
        that block's positions (or a stack of them)."""
        return tuple(_sandwich(block.vectors, x, block.vectors.conj().mT) for block, x in zip(self.blocks, parts))


def _solve(solver, m, what: str):
    """solver(m), for np.linalg.eigh or eigvalsh of a matrix or a (k, n, n)
    stack, or for _real_diagonal of a diagonal record; a LAPACK error or a
    non-finite eigenvalue raises EigensolverError with the largest
    Hermiticity defect, before any arithmetic on the spectrum can warn."""
    try:
        out = solver(m)
        if not np.isfinite(out[0] if isinstance(out, tuple) else out).all():
            raise np.linalg.LinAlgError("non-finite eigenvalue")
        return out
    except np.linalg.LinAlgError as exc:
        m = m.matrix if isinstance(m, Hermitian) else m
        with np.errstate(invalid="ignore"):  # inf - inf, where m holds infinities
            defect = np.max(hermiticity_defect(m))
        shape = "x".join(map(str, m.shape))
        message = f"eigensolver failed on a {shape} {what}: {exc} (hermiticity defect {defect:.3e})"
        raise EigensolverError(message) from exc


def _real_diagonal(h: Hermitian) -> np.ndarray:
    """The unsorted eigenvalues of a diagonal record: its real diagonal."""
    return h.parts[0].real


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
    the first matrix that misses it; a NaN residual misses."""
    met = (ortho <= ORTHONORMALITY_TOL) & (recon <= RECONSTRUCTION_RTOL * scale)
    missed = np.flatnonzero(np.logical_not(met))
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


def _blockwise_eigh(parts: tuple[np.ndarray, ...], what: str):
    """Eigenpairs of a matrix, or of a one-block stack, from its blocks:
    the ascending eigenvalues, the ParityBlocks and the largest
    orthonormality and reconstruction residuals (one per stack member).
    One block's eigenvalues are eigh's, already ascending, at every
    position in order; those of several blocks are merged."""
    if len(parts) == 1:
        evals, vectors = _solve(np.linalg.eigh, parts[0], what)
        block = ParityBlock(0, np.arange(evals.shape[-1]), vectors)
        return evals, (block,), *_residuals(evals, vectors, parts[0])
    solved = [_solve(np.linalg.eigh, part, what) for part in parts]
    ortho, recon = (max(r) for r in zip(*(_residuals(e, v, part) for (e, v), part in zip(solved, parts))))
    merged = np.concatenate([e for e, _ in solved])
    ascending = np.argsort(merged, kind="stable")
    positions = np.empty(merged.size, dtype=np.intp)
    positions[ascending] = np.arange(merged.size)
    stops = np.cumsum([e.size for e, _ in solved]).tolist()
    blocks = tuple(
        ParityBlock(start, positions[stop - e.size : stop], v) for start, ((e, v), stop) in enumerate(zip(solved, stops))
    )
    return merged[ascending], blocks, ortho, recon


def eigendecompose(a, what: str = "matrix") -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix, eigenvalues ascending.

    Deterministic for bit-identical input. Among degenerate eigenvalues the
    eigenvector gauge is arbitrary; downstream code must only use
    basis-independent quantities. A diagonal matrix skips the eigensolver:
    its eigenvalues are the stably sorted real diagonal and its
    eigenvectors the matching unit vectors, which is bit for bit what
    eigh returns for a nondegenerate diagonal (the identity for J_z), and
    a non-finite diagonal raises EigensolverError as eigh's output does.
    A matrix in blocks is solved block by block, in real arithmetic where
    a block is real; the residuals are certified per block, which is the
    same contract since the entries between blocks are exact zeros on
    both sides. A one-block (k, n, n) stack record takes one stacked
    eigh, with the bits and the certificate of per-matrix calls; any
    other stack raises ValueError.
    """
    h = as_hermitian(a, what)
    if h.stacked and (h.form == "diagonal" or len(h.parts) > 1):
        layout = "diagonal" if h.form == "diagonal" else f"in {len(h.parts)} blocks"
        raise ValueError(f"eigendecompose takes a stack only as one block; this {what} stack is {layout}")
    order = blocks = None
    if h.form == "diagonal":
        d, real = h.parts[0], _solve(_real_diagonal, h, what)
        scale = max(1.0, float(np.max(np.abs(d))))
        order = np.argsort(real, kind="stable")
        evals = real[order]
        ortho = 0.0
        recon = float(np.max(np.abs(d[order] - evals)))
    else:
        scale = functools.reduce(np.maximum, (np.abs(b).max(axis=(-2, -1)) for b in h.parts), 1.0)
        evals, blocks, ortho, recon = _blockwise_eigh(h.parts, what)
    _certify(ortho, recon, scale, what)
    return SpectralDecomposition(evals, h.dim, order, h, blocks)


def matrix_exp_scaled(a, scale) -> np.ndarray:
    """exp(scale * A) for Hermitian A, evaluated through its eigenbasis.

    A may be given as its SpectralDecomposition, which is then used as it
    is, so one decomposition serves several scales. scale = -1j*t yields
    the evolution unitary; negative real scale yields unnormalized
    Boltzmann weights. Large positive real exponents are refused because
    they overflow; thermal weights should go through thermal.gibbs_state,
    which works relative to the ground energy.
    """
    dec = a if isinstance(a, SpectralDecomposition) else eigendecompose(a)
    exponents = complex(scale) * dec.eigenvalues
    peak = float(np.max(exponents.real))
    if peak > EXP_ARG_LIMIT:
        raise OverflowError(
            f"exp argument reaches {peak:.1f} and would overflow; evaluate "
            "Boltzmann factors in the log domain (see thermal.gibbs_state)"
        )
    weights = np.exp(exponents)
    return (dec.eigenvectors * weights) @ dec.eigenvectors.conj().T


def _times_i_symmetrize(x: np.ndarray) -> np.ndarray:
    """0.5 (i x + (i x)^dagger), in place where x is complex."""
    x = np.multiply(x, 1j, out=x if np.iscomplexobj(x) else None)
    if logger.isEnabledFor(logging.DEBUG):
        residue = 0.5 * np.max(hermiticity_defect(x))
        if residue > 0.0:
            logger.debug("commutator_i: symmetrized away anti-Hermitian residue %.3e", residue)
    return _symmetrize(x)


def _scaled_commutator(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d_i b_ij - b_ij d_j: [diag(d), B] with the same IEEE operations per
    nonzero entry as the zero-padded products."""
    x = d[:, None] * b
    x -= b * d[None, :]
    return x


def commutator_i(a, b):
    """i[A, B] = i(AB - BA), Hermitian for Hermitian inputs.

    Floating-point products drift off the Hermitian manifold at the 1e-15
    scale; the result is symmetrized and the discarded anti-Hermitian
    residue logged (measured only when DEBUG logging is on) so the drift
    cannot poison downstream tolerance checks. An array argument goes
    through the gate (as_hermitian); B may be a (k, n, n) stack record,
    against one A or a stack of k.

    The forms decide the work and the form of the result. A diagonal A
    scales the rows and columns of B instead of multiplying, with the
    same IEEE operations per nonzero entry as the zero-padded products
    (only the sign of an exact zero may differ, as it does between BLAS
    kernels), and keeps B's form: [diagonal, blocks] is blocks, block by
    block, with B's tridiagonal flags. [diagonal, diagonal] is diagonal,
    read off B's dense array scaled so. [blocks, blocks] in the same
    number of blocks is blocks, one product per block. Anything else is
    a product of the dense arrays, one block.
    """
    ha = as_hermitian(a, "commutator argument A")
    hb = as_hermitian(b, "commutator argument B")
    if ha.shape[-2:] != hb.shape[-2:]:
        raise ValueError(f"dimension mismatch in commutator: {ha.shape} vs {hb.shape}")
    if ha.form == "diagonal" and not ha.stacked:
        d = ha.parts[0]
        if hb.form == "blocks":
            k = len(hb.parts)
            parts = [_times_i_symmetrize(_scaled_commutator(d[s::k], p)) for s, p in enumerate(hb.parts)]
            return _blocks(*parts, tridiagonal=hb.tridiagonal)
        x = _times_i_symmetrize(_scaled_commutator(d, hb.matrix))
        return _diagonal(np.diagonal(x, axis1=-2, axis2=-1).copy())
    if ha.form == hb.form == "blocks" and len(ha.parts) == len(hb.parts):
        pairs = zip(ha.parts, hb.parts)
    else:
        pairs = [(ha.matrix, hb.matrix)]
    parts = []
    for p, q in pairs:
        x = p @ q
        x -= q @ p
        parts.append(_times_i_symmetrize(x))
    return _blocks(*parts)


def _widths(h: Hermitian, what: str) -> np.ndarray:
    """E_max - E_min of each matrix of a record of any shape, as an array
    of its leading shape (0-d for one matrix). The form decides the
    solve: a diagonal record is read off its real diagonals, and blocks
    are solved block by block. Each block takes one eigvalsh over the
    whole stack, which gives the bits of per-matrix calls.

    A complex block flagged tridiagonal (the linear model's J_x, J_y and
    C above DENSE_MAX_DIM) is solved in real arithmetic: the diagonal
    phase similarity that makes each subdiagonal entry e_k real and
    positive (Golub & Van Loan, Matrix Computations, 8.4) maps it to the
    real symmetric tridiagonal matrix with diagonal Re(d_k) and
    off-diagonals |e_k|, read from the lower triangle, the one eigvalsh
    reads."""
    if h.form == "diagonal":
        d = _solve(_real_diagonal, h, what)
        return d.max(axis=-1) - d.min(axis=-1)
    spectra = []
    for part, banded in zip(h.parts, h.tridiagonal):
        if banded and np.iscomplexobj(part):
            k = np.arange(part.shape[-1])
            part = _symmetric_tridiagonal(part[..., k, k].real, np.abs(part[..., k[1:], k[:-1]]))
        spectra.append(_solve(np.linalg.eigvalsh, part, what))
    top, bottom = zip(*((e[..., -1], e[..., 0]) for e in spectra))
    return functools.reduce(np.maximum, top) - functools.reduce(np.minimum, bottom)


def seminorm(a) -> float:
    """Spectral width E_max - E_min of a Hermitian matrix: the one-matrix
    case of _widths.

    Nonnegative; zero exactly when A is a multiple of the identity (within
    eigensolver tolerance). Invariant under unitary conjugation and under
    shifts A -> A + c*I. An array goes through the gate.
    """
    return float(_widths(as_hermitian(a, "seminorm argument"), "seminorm argument"))


def variance(a, rho) -> float:
    """Var[A] = Tr[rho A^2] - Tr[rho A]^2 for a unit-trace density operator.

    Tiny negative results in [-1e-12, 0) are rounding residue and clamp to
    zero; anything more negative indicates an invalid input and raises.
    """
    ma = as_hermitian(a, "observable").matrix
    mr = as_hermitian(rho, "density operator").matrix
    if ma.shape != mr.shape:
        raise ValueError(f"dimension mismatch: observable {ma.shape}, state {mr.shape}")
    trace = complex(np.trace(mr)).real
    if abs(trace - 1.0) > 1e-12:
        raise ValueError(f"density operator trace {trace!r} is not 1 within 1e-12")
    lo = float(_solve(np.linalg.eigvalsh, mr, "density operator")[0])
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
