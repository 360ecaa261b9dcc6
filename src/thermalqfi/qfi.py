"""Dynamic quantum Fisher information through three independent routes.

The general route sums probe-eigenstate variances against coherence pairs;
the thermal route rewrites everything through the commutator with the
probe Hamiltonian and a tanhc weight; the SLD route weights coherences by
the classical distinguishability of the probe spectrum. Agreement of the
three at 1e-8 relative on full-rank thermal probes is the package's
central correctness property, certified in QfiReport.

Every beta-dependent sum lives in one evaluator, route_sums. It takes
the probabilities of k probes as a (k, n) array and a SpectralPlan,
which holds the beta-independent matrix elements of h and C over the one
off-diagonal support they share (the entries their form can hold, read
from the form, or the entries of a scanned dense block nonzero in either
operator), every array with a leading axis of m
generators, each serving k / m consecutive rows (the betas of each time
of a chunk of sweep times, one row per scenario of a stack, or every row
for the one generator of a single point). Each sum is one (rows,
support) term array per chunk of rows, and every row's sum has the bits
of math.fsum of that row's terms (_fsum_rows): a long row is summed
exactly in buckets of its terms' binary exponents (_exact_sum), a large
array of short rows together in long double under a certified error
bound (_long_sums), and the rest by one fsum per row. fsum is correctly
rounded, so a row's result depends only on its own terms, not on k, on
the chunks, on the order of the terms or on exact zeros among them. The
public route functions, qfi_report and the bound chain are its k = 1
case.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .operators import (
    Hermitian,
    SpectralDecomposition,
    _interleave,
    _off_diagonal,
    _widths,
    as_hermitian,
    commutator_i,
)
from .thermal import GibbsState

# probe support truncation: pairs whose combined weight falls below this
# (two excited levels of an effectively pure probe, each at the
# probability floor) are outside the support sum
SUPPORT_TOL = 1e-14
NEGATIVE_CLAMP = 1e-10
# Rows of at least this many terms are summed by _exact_sum instead of
# math.fsum: 1,024 normally spread terms take about 40 us either way, and
# 80,000 terms spanning 1,000 binary orders (an lmg row at 2J = 400)
# 15 ms in fsum against 1.1 ms.
EXACT_SUM_MIN_TERMS = 1024
# the 26 low mantissa bits that _exact_sum splits off each term
_LOW_BITS = (1 << 26) - 1
# bucket integers per int64 in _exact_sum's merge: 2^54 (2^9 - 1) < 2^63
_FOLD = 9
_FOLD_WEIGHTS = 1 << np.arange(_FOLD, dtype=np.int64)
# Shorter rows are summed together in long double (_long_sums) when their
# array holds at least this many terms: the pass costs about 35 us fixed,
# and overtakes one fsum per row between 1,100 and 2,100 entries for rows
# of 11 to 110 terms.
LONG_SUM_MIN_ENTRIES = 2048
_LONG = np.finfo(np.longdouble)
# long double must carry more bits and a wider exponent range than double
# (x87 extended, IEEE quad; not where it is double, nor double-double)
LONG_SUMS = _LONG.nmant > np.finfo(float).nmant and _LONG.maxexp > np.finfo(float).maxexp
# route_sums sums at least this many terms per chunk, so that small
# inputs still give _long_sums arrays worth summing together
CHUNK_FLOOR_ENTRIES = 2**13


def tanhc(x):
    """Cardinal hyperbolic tangent tanh(x)/x; even, range (0, 1], tanhc(0) = 1.

    Below |x| = 1e-5 the series 1 - x^2/3 + 2x^4/15 takes over (next term
    is O(x^6), far below double precision there). Accepts scalars or
    arrays.
    """
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-5
    safe = np.where(small, 1.0, arr)
    out = np.asarray(np.tanh(safe) / safe)
    tiny = arr[small]  # the series runs on these entries alone
    out[small] = 1.0 - tiny * tiny / 3.0 + 2.0 * tiny**4 / 15.0
    if out.ndim == 0:
        return float(out)
    return out


def _clamped(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ArithmeticError(f"{what} = {value} is not finite")
    if value >= 0.0:
        return value
    if value >= -NEGATIVE_CLAMP:
        return 0.0
    raise ArithmeticError(f"{what} = {value:.6e} is negative beyond the clamp window")


def _diagonal(a: np.ndarray) -> np.ndarray:
    return np.diagonal(a, axis1=-2, axis2=-1)


@functools.lru_cache(maxsize=2)
def _form_pairs(sizes: tuple[int, ...], banded: tuple[bool, ...]):
    """Row and column indices of the off-diagonal entries that a form can
    hold, read-only and shared by every plan of that layout, and where
    each part's entries end: every one of an m x m part, row by row as
    _off_diagonal reads them, or the upper then the lower band where
    banded says the part is tridiagonal. Part s of k sits at the indices
    s + k * (its own indices) of the full matrix."""
    counts = [2 * (m - 1) if band else m * (m - 1) for m, band in zip(sizes, banded)]
    stops = tuple(np.cumsum(counts).tolist())
    rows, cols = np.empty((2, stops[-1]), dtype=np.intp)
    for start, (m, band, stop, count) in enumerate(zip(sizes, banded, stops, counts)):
        r, c = rows[stop - count : stop], cols[stop - count : stop]
        if band:
            r[: m - 1] = c[m - 1 :] = np.arange(m - 1)
            r[m - 1 :] = c[: m - 1] = np.arange(1, m)
        else:
            k = np.arange(m - 1)
            r.reshape(m, m - 1)[...] = np.arange(m)[:, None]
            np.greater_equal(k, np.arange(m)[:, None], out=c.reshape(m, m - 1))
            c.reshape(m, m - 1)[...] += k  # row i skips column i
        for index in (r, c):
            index *= len(sizes)
            index += start
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols, stops


def _pair_values(abs2, support, banded) -> np.ndarray:
    """|x_ij|^2 at the pairs of a support from _squares, given the squares
    of each part of a form: gathered at the scanned pairs of one block
    (no stops), or read without a scan at the indices of _form_pairs."""
    rows, cols, stops = support
    if stops is None:
        return abs2[0][..., rows, cols]
    values = np.empty(abs2[0].shape[:-2] + rows.shape)
    for part, band, begin, stop in zip(abs2, banded, [0, *stops], stops):
        m, v = part.shape[-1], values[..., begin:stop]
        if band:
            v[..., : m - 1] = np.diagonal(part, 1, -2, -1)
            v[..., m - 1 :] = np.diagonal(part, -1, -2, -1)
        else:
            v.reshape(v.shape[:-1] + (m - 1, m))[...] = _off_diagonal(part)
    return values


def _squares(ht: Hermitian, ct: Hermitian):
    """The off-diagonal support that h and C = i[H, h] share in the probe
    eigenbasis, and what the plan keeps of their squares, one matrix or a
    stack, over the full index range: (rows, cols, |h_ij|^2 and |C_ij|^2
    at those pairs, the row sums of |h_ij|^2, the diagonal |C_ii|^2).

    h and C come in one layout (form, block count and tridiagonal flags):
    C_ij = i (E_i - E_j) h_ij lives on h's off-diagonal pairs. Blocks give
    their pairs from the form (_form_pairs), and nothing outside the form
    is read, so parity blocks stay two half-size arrays. One block not
    flagged tridiagonal (every matrix up to DENSE_MAX_DIM, where dense
    storage hides sparsity) is scanned once, for the entries nonzero in h
    or C in any member. An entry outside one operator's own support is an
    exact zero among its values, which adds nothing to a correctly
    rounded sum. h's squares go before C's are formed. A row of one of
    several blocks is summed with the exact zeros between its entries put
    back, so the sums keep the bits of the dense rows."""
    if ht.form == "diagonal":
        no_pairs, no_values = np.empty(0, np.intp), np.empty(ht.shape[:-2] + (0,))
        return no_pairs, no_pairs, no_values, np.abs(ht.parts[0]) ** 2, no_values, np.abs(ct.parts[0]) ** 2
    k = len(ht.parts)
    if ht.tridiagonal == (False,):
        mask = (ht.parts[0] != 0.0) | (ct.parts[0] != 0.0)
        if mask.ndim == 3:
            mask = mask.any(axis=0)
        np.fill_diagonal(mask, False)
        support = (*np.nonzero(mask), None)
    else:
        support = _form_pairs(tuple(a.shape[-1] for a in ht.parts), ht.tridiagonal)
    h2 = [np.abs(part) ** 2 for part in ht.parts]
    sums = []
    for start, row in enumerate(h2):
        if k > 1:  # the exact zeros between the block's entries put back
            row = np.zeros(row.shape[:-1] + (ht.dim,))
            row[..., start::k] = h2[start]
        sums.append(row.sum(axis=-1))
    h_values = _pair_values(h2, support, ht.tridiagonal)
    del h2
    c2 = [np.abs(part) ** 2 for part in ct.parts]
    c_values = _pair_values(c2, support, ht.tridiagonal)
    return *support[:2], h_values, _interleave(*sums), c_values, _interleave(*map(_diagonal, c2))


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum of a 1-D float array, bit for bit.

    From EXACT_SUM_MIN_TERMS terms on, the terms are summed exactly in
    buckets of their biased binary exponent b (Demmel & Hida, SIAM J. Sci.
    Comput. 25, 1214, 2003), where x = M 2^(b - 1075) with an integer
    mantissa |M| < 2^53 (a subnormal, b = 0, counts in units of 2^-1075,
    so its |M| < 2^53 too). Each term is split by its bits into its high
    part, with the 26 low mantissa bits cleared, and the exact low
    remainder. Fewer than 2^26 terms per bucket keep every partial sum of
    either part an exactly representable multiple of its unit, so the
    bucket totals are the integers W_b and L_b of
    sum x = sum_b (W_b 2^26 + L_b) 2^(b - 1075), an integer N times
    2^-1075. N is merged in integer arithmetic and divided once: CPython's
    int true division is correctly rounded, as fsum is. A short row, an
    exponent at which a bucket could overflow (which every inf and NaN
    has), or a row whose exact sum is zero, whose sign fsum decides, is
    left to math.fsum.
    """
    if x.size < EXACT_SUM_MIN_TERMS or x.size >= 2**26:
        return math.fsum(x.tolist())
    bits = x.view(np.int64)
    biased = bits >> 52
    biased &= 0x7FF
    top = int(biased.max())
    if top - 1022 + x.size.bit_length() > 1023:
        return math.fsum(x.tolist())
    high = (bits & ~_LOW_BITS).view(np.float64)
    units = np.arange(top + 1) - 1075
    whole = np.ldexp(np.bincount(biased, weights=high), -26 - units).astype(np.int64)
    low = np.ldexp(np.bincount(biased, weights=x - high), -units).astype(np.int64)
    # N = sum_k c_k 2^k with c_k = W_(k-26) + L_k, |c_k| < 2^54; _FOLD
    # consecutive c_k fold exactly into one int64 before Python ints take over
    totals = np.zeros(top + 27 + (-(top + 27) % _FOLD), dtype=np.int64)
    totals[26 : top + 27] = whole
    totals[: top + 1] += low
    folded = (totals.reshape(-1, _FOLD) @ _FOLD_WEIGHTS).tolist()
    n = sum(map(int.__lshift__, folded, range(0, _FOLD * len(folded), _FOLD)))
    return n / (1 << 1075) if n else math.fsum(x.tolist())


def _long_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a (k, m) term array summed in long double and rounded
    to double, and whether that double is certified to be fsum's.

    In any order of its m - 1 additions, a row's long-double sum s is off
    from the exact sum S by at most gamma_(m-1) sum|x|, with
    gamma_j = j u / (1 - j u) and u half of long double's eps (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4).
    err = (m + 1) u sum|x|, with sum|x| summed in double (off by at most
    a factor 1 + 2^-42 for m < 1024), covers that bound and the rounding
    of err and of the gaps below. d = double(s) is certified where
    [s - err, s + err] lies strictly between the midpoints from d to its
    two neighbours, which long double holds exactly: S then rounds to d,
    fsum's correctly rounded result. A zero d, whose sign fsum decides,
    and a row with sum|x| of 2^1023 or more (every non-finite row, and
    every row whose fsum could overflow on the way) are never certified.
    """
    with np.errstate(all="ignore"):  # non-finite rows are left to fsum
        s = terms.sum(axis=1, dtype=np.longdouble)
        total = np.abs(terms).sum(axis=1)
        d = s.astype(float)
        below, above = (np.nextafter(d, to).astype(np.longdouble) for to in (-np.inf, np.inf))
        err = total * ((terms.shape[1] + 1) * _LONG.eps / 2)
        certified = (total < 2.0**1023) & (d != 0.0)
        certified &= s - (d + below) / 2 > err
        certified &= (d + above) / 2 - s > err
    return d, certified


def _fsum_rows(terms: np.ndarray, kept: np.ndarray | None = None) -> list[float]:
    """math.fsum of each row of a (k, m) term array, bit for bit, by one of
    three paths chosen by the array's shape.

    A row of EXACT_SUM_MIN_TERMS terms or more goes through _exact_sum,
    cut first to its kept terms where a mask kept marks the only terms
    that can be nonzero. Shorter rows of an array of at least
    LONG_SUM_MIN_ENTRIES terms are summed together by _long_sums, where
    LONG_SUMS holds, and a row it does not certify goes through fsum on
    its own. Every other row is one math.fsum.
    """
    k, m = terms.shape
    if m >= EXACT_SUM_MIN_TERMS:
        return [_exact_sum(row) for row in (terms if kept is None else map(np.compress, kept, terms))]
    if not LONG_SUMS or k * m < LONG_SUM_MIN_ENTRIES:
        return [math.fsum(row) for row in terms.tolist()]
    sums, certified = _long_sums(terms)
    sums = sums.tolist()
    for r in np.flatnonzero(~certified).tolist():
        sums[r] = math.fsum(terms[r].tolist())
    return sums


def _generator_sums(p, pi, var_i, cols, h_values):
    """The convexity sum sum_i 4 p_i Var[h]_i and the general and SLD
    routes for each row of p (k, n); pi holds p at the rows of the
    support, and p_j is gathered here, at its columns.

    A pair whose weight p_i + p_j falls below SUPPORT_TOL is dropped
    before anything is divided by that weight: its terms are exact zeros,
    which add nothing to a row's sum.
    """
    convexity = _fsum_rows(4.0 * p * var_i)
    pj = p.take(cols, axis=1)
    pair_sum = pi + pj
    kept = pair_sum >= SUPPORT_TOL
    pair_sum = np.where(kept, pair_sum, 1.0)  # a dropped pair is never divided by its weight
    general = _fsum_rows(np.where(kept, 8.0 * (pi * pj) / pair_sum * h_values, 0.0), kept)
    sld = _fsum_rows(np.where(kept, 2.0 * (pi - pj) ** 2 / pair_sum * h_values, 0.0), kept)
    f_general = [_clamped(first - second, "general-route QFI") for first, second in zip(convexity, general)]
    return convexity, f_general, [_clamped(value, "SLD-route QFI") for value in sld]


def _commutator_sums(p, pi, betas, cdiag, cdiag_abs2, c_values, delta):
    """Var[C] and the thermal route for each row of p (k, n) at its beta;
    pi holds p, and delta the probe level differences, at the pairs of
    the support."""
    betas = np.asarray(betas, dtype=float)
    mean = _fsum_rows(p * cdiag)
    second_moment = _fsum_rows(np.concatenate((p * cdiag_abs2, pi * c_values), axis=1))
    weight = 1.0 - tanhc(0.5 * betas[:, None] * delta) ** 2
    weighted = _fsum_rows(pi * weight * c_values)
    var_c = [moment - m * m for moment, m in zip(second_moment, mean)]
    f_thermal = [
        _clamped(beta * beta * (var - second), "thermal-route QFI")
        for beta, var, second in zip(betas.tolist(), var_c, weighted)
    ]
    return var_c, f_thermal


class RouteSums(NamedTuple):
    """What route_sums returns: one float per row in each field."""

    f_general: list[float]
    f_thermal: list[float]
    f_sld: list[float]
    commutator_variance: list[float]
    convexity: list[float]


def _row_arrays(plan: SpectralPlan, start: int, stop: int, per: int) -> tuple:
    """var_i, h_values, cdiag, cdiag_abs2, c_values and c_delta for rows
    start..stop of a plan whose generators each serve per consecutive
    rows: one generator's arrays when the rows share it, else one row of
    each array per row."""
    first, last = start // per, (stop - 1) // per
    served = first if first == last else np.arange(start, stop) // per
    arrays = (a[served] for a in (plan.var_i, plan.h_values, plan.cdiag, plan.cdiag_abs2, plan.c_values))
    return (*arrays, plan.c_delta if plan.c_delta.ndim == 1 else plan.c_delta[served])


def chunk_size(count: int, limit: int) -> int:
    """ceil(count / c) for the fewest chunks c = ceil(count / limit): the
    size of about equal chunks, none larger than limit (limit for none)."""
    return -(-count // -(-count // limit)) if count else limit


def route_sums(plan: SpectralPlan, p: np.ndarray, betas) -> RouteSums:
    """The three routes, Var[C] and the convexity sum of k probes at once.

    p holds the probe probabilities, one row (k, n) per probe, and betas
    their k inverse temperatures. The plan's arrays carry a leading axis
    of m generators, the first serving the first k / m rows, the next
    the next k / m, and so on (one row each for a stack of scenarios,
    every row for a single generator). Row r has the bits of the k = 1
    call on row r against its own generator.

    Every sum runs over the one support that h and C share: a chunk
    gathers p once at its rows, for the general, SLD and thermal sums
    and Var[C] alike, and once at its columns, inside the general and
    SLD sums. The rows are summed in chunks of about equal size (chunk_size), none
    holding more terms in a (rows, support) array than the larger of the
    arrays handed in (the plan's generators and p together) and
    CHUNK_FLOOR_ENTRIES. A temporary then grows with the inputs, never with
    k x support, which for a nearly dense generator is n/2 times larger, and
    the floor, about 130 KB of long-double temporaries, gives _fsum_rows
    arrays large enough to sum together (fig3b's 100 betas are two chunks,
    not ten). A stack's (k, n, n) generators have more entries than k rows
    of its support, so a stack of scenarios is one chunk.
    """
    support = max(len(plan.rows), 1)
    entries = max(math.prod(plan.generator.shape) + p.size, CHUNK_FLOOR_ENTRIES)
    step = chunk_size(len(p), max(1, entries // support))
    per = len(p) // len(plan.var_i)
    sums = RouteSums([], [], [], [], [])
    for start in range(0, len(p), step):
        stop = min(start + step, len(p))
        rows = slice(start, stop)
        var_i, h_values, cdiag, cdiag_abs2, c_values, c_delta = _row_arrays(plan, start, stop, per)
        pi = p[rows].take(plan.rows, axis=1)  # the one gather at the rows, read by every sum
        convexity, f_general, f_sld = _generator_sums(p[rows], pi, var_i, plan.cols, h_values)
        var_c, f_thermal = _commutator_sums(p[rows], pi, betas[rows], cdiag, cdiag_abs2, c_values, c_delta)
        for field, chunk in zip(sums, (f_general, f_thermal, f_sld, var_c, convexity)):
            field.extend(chunk)
    return sums


def probe_sums(plan: SpectralPlan, rho0: GibbsState) -> RouteSums:
    """route_sums for the one probe rho0 (k = 1)."""
    return route_sums(plan, rho0.probabilities[None], (rho0.beta,))


def _require_gibbs(rho0, route: str) -> None:
    if not isinstance(rho0, GibbsState):
        raise TypeError(f"{route} requires a GibbsState probe, got {type(rho0).__name__}")


def qfi_general(rho0: GibbsState, h) -> float:
    """Mixed-state dynamic QFI from the probe spectrum.

    F = sum_i 4 p_i Var[h]_i - sum_{i != j} 8 p_i p_j / (p_i + p_j) |h_ij|^2
    in the probe eigenbasis. A uniform spectrum cancels the two sums
    exactly; an effectively pure probe reduces to 4 Var[h] in its ground
    state. The k = 1 case of route_sums.
    """
    _require_gibbs(rho0, "qfi_general")
    return probe_sums(spectral_plan(rho0.decomposition, h), rho0).f_general[0]


def qfi_sld(rho0: GibbsState, h) -> float:
    """SLD-route QFI: F = sum_{i,j} 2 (p_i - p_j)^2 / (p_i + p_j) |h_ij|^2.
    The k = 1 case of route_sums."""
    _require_gibbs(rho0, "qfi_sld")
    return probe_sums(spectral_plan(rho0.decomposition, h), rho0).f_sld[0]


def qfi_thermal(rho0: GibbsState, h) -> float:
    """Thermal-commutator route.

    F = beta^2 Var[C] - beta^2 sum_{i != j} p_i (1 - tanhc^2(beta D_ij / 2)) |C_ij|^2
    with C = i[H, h] and D_ij the energy differences of the probe
    Hamiltonian. Both orientations of each pair contribute with their own
    weight; degenerate pairs drop out exactly since tanhc(0) = 1. The
    k = 1 case of route_sums.
    """
    _require_gibbs(rho0, "qfi_thermal")
    return probe_sums(spectral_plan(rho0.decomposition, h), rho0).f_thermal[0]


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Everything the routes and bounds need that does not depend on beta.

    Built once per (probe Hamiltonian, generator) from h and C = i[H, h]
    in the probe eigenbasis, which share one off-diagonal support
    (_squares): its row and column indices (rows, cols), the off-diagonal
    |h_ij|^2 and |C_ij|^2 at those pairs (h_values, c_values), the probe
    level differences there (c_delta), Var_i[h], C_ii, |C_ii|^2 and
    ||C||. Each temperature is then a handful of weighted sums over that
    support; the exact zeros left out, or kept, add nothing to a
    correctly rounded fsum. generator is the record the plan was built
    from; bound_report reuses a report's plan only for that same record
    and the same probe.

    A plan is built from a stack of m generators (stacked_plan: the times
    of a sweep chunk, a stack of scenarios, or the one-member stack of a
    single generator). It holds the union of their supports, every array
    with a leading axis of m, and noncommutativity holds one width per
    generator. Each generator serves k / m consecutive rows of route_sums
    and bound_rows.
    """

    generator: Hermitian
    rows: np.ndarray
    cols: np.ndarray
    h_values: np.ndarray
    var_i: np.ndarray
    c_values: np.ndarray
    c_delta: np.ndarray
    cdiag: np.ndarray
    cdiag_abs2: np.ndarray
    noncommutativity: np.ndarray


def _relative_spread(*values: float) -> float:
    """Largest pairwise difference of the values (such as the three
    routes) over the largest magnitude, so a small F cannot hide a
    disagreement; 0 when all are 0."""
    scale = max(map(abs, values))
    if scale == 0.0:
        return 0.0
    return max(abs(a - b) for a, b in itertools.combinations(values, 2)) / scale


def spectral_plan(decomposition: SpectralDecomposition, h) -> SpectralPlan:
    """Build the beta-independent plan for the probe Hamiltonian H, read as
    the source of its eigendecomposition, and generator h.

    A generator record is taken as it is; only an array h is scanned,
    once, by the gate (as_hermitian). H is the record that was
    decomposed, and C = i[H, h] is exactly Hermitian in floating
    point, since commutator_i returns 0.5 (X + X^dagger), in the form
    that the forms of H and h give it. The plan is stacked_plan of the
    one-member stack of h, with h kept as its generator.
    """
    hm = as_hermitian(h, "generator")
    dim = decomposition.source_dim
    if hm.shape[0] != dim:
        raise ValueError(f"dimension mismatch: generator dim {hm.shape[0]}, probe dim {dim}")
    return replace(stacked_plan(decomposition, hm.member(None)), generator=hm)


def stacked_plan(decomposition: SpectralDecomposition, generators: Hermitian) -> SpectralPlan:
    """The plan of an (m, n, n) stack record of generators, with the bits
    of spectral_plan for each: one commutator, one basis change of each
    stack and one _widths call, over the one support that the generators
    and their commutators share (an entry outside an operator's own
    support is an exact zero in its row, which adds nothing to a
    correctly rounded fsum).
    The decomposition is one probe's, shared by every generator (the
    times of a sweep), or a stacked one built by eigendecompose, one
    probe per generator (a stack of scenarios). spectral_plan passes a
    one-member stack through here. Every step reads the records' forms:
    above DENSE_MAX_DIM an oat or lmg generator, its commutator and their
    squares stay two half-size parity blocks."""
    comm = commutator_i(decomposition.source, generators)
    ht, ct = decomposition.to_eigenbasis(generators), decomposition.to_eigenbasis(comm)
    rows, cols, h_values, h_sums, c_values, cdiag_abs2 = _squares(ht, ct)
    energies = decomposition.eigenvalues
    return SpectralPlan(
        generator=generators,
        rows=rows,
        cols=cols,
        h_values=h_values,
        var_i=h_sums - np.real(ht.diagonal()) ** 2,
        c_values=c_values,
        c_delta=energies[..., rows] - energies[..., cols],
        cdiag=np.real(ct.diagonal()).copy(),
        cdiag_abs2=cdiag_abs2,
        noncommutativity=_widths(comm, "commutator stack"),
    )


@dataclass(frozen=True)
class QfiReport:
    """The three route values and their agreement certificate.

    max_pairwise_rel_diff is the largest pairwise route difference over
    the largest |F| (see _relative_spread). plan is the SpectralPlan the
    values came from, probe the state they were evaluated at and sums the
    k = 1 route_sums they were read from, kept so bound_report can reuse
    the plan, Var[C] and the convexity sum for the same probe and
    generator.
    """

    f_general: float
    f_thermal: float
    f_sld: float
    max_pairwise_rel_diff: float
    pure_state_flag: bool
    plan: SpectralPlan | None = field(default=None, repr=False, compare=False)
    probe: GibbsState | None = field(default=None, repr=False, compare=False)
    sums: RouteSums | None = field(default=None, repr=False, compare=False)


def qfi_report(rho0: GibbsState, h) -> QfiReport:
    _require_gibbs(rho0, "qfi_report")
    plan = spectral_plan(rho0.decomposition, h)
    sums = probe_sums(plan, rho0)
    f_general, f_thermal, f_sld = sums.f_general[0], sums.f_thermal[0], sums.f_sld[0]
    return QfiReport(
        f_general=f_general,
        f_thermal=f_thermal,
        f_sld=f_sld,
        max_pairwise_rel_diff=_relative_spread(f_general, f_thermal, f_sld),
        pure_state_flag=rho0.effectively_pure,
        plan=plan,
        probe=rho0,
        sums=sums,
    )
