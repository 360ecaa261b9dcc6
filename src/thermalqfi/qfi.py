"""Dynamic quantum Fisher information through three independent routes.

The general route sums probe-eigenstate variances against coherence pairs;
the thermal route rewrites everything through the commutator with the
probe Hamiltonian and a tanhc weight; the SLD route weights coherences by
the classical distinguishability of the probe spectrum. Agreement of the
three at 1e-8 relative on full-rank thermal probes is the package's
central correctness property, certified in QfiReport.

Every beta-dependent sum lives in one evaluator, route_sums. It takes the
probabilities of k probes as a (k, n) array and a SpectralPlan, which
holds the beta-independent matrix elements over their nonzero support:
either one plan shared by every row (the betas of one sweep time) or a
plan whose arrays carry a leading axis of k (a stack of scenarios). Each
sum is one pass over a (rows, support) term array per chunk of rows, and
one math.fsum per row; a chunk's terms hold no more entries than the
plan's generator and the probabilities together. fsum is correctly rounded, so a row's result depends
only on its own terms, not on k, on the chunks or on the order of the
terms. The public route functions, qfi_report and the bound chain are
its k = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .encoding import as_operator
from .operators import SpectralDecomposition, commutator_i, require_hermitian, seminorm
from .thermal import GibbsState

# probe support truncation for non-thermal probes: pairs whose combined
# weight falls below this are outside the support sum
SUPPORT_TOL = 1e-14
NEGATIVE_CLAMP = 1e-10


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
    if value >= 0.0:
        return value
    if value >= -NEGATIVE_CLAMP:
        return 0.0
    raise ArithmeticError(f"{what} = {value:.6e} is negative beyond the clamp window")


def _probe_parts(probe, h):
    p = np.asarray(probe.probabilities, dtype=float)
    v = np.asarray(probe.eigenvectors)
    hm = require_hermitian(as_operator(h), "generator")
    if hm.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: generator dim {hm.shape[0]}, probe dim {v.shape[0]}")
    if np.any(p < 0.0):
        raise ValueError("negative probe probability")
    return p, v, hm


class Support(NamedTuple):
    """The nonzero off-diagonal entries of a real n x n array: their row
    and column indices and their values. Over a stack of arrays it is the
    union of their supports, values holds one row per array, and an entry
    outside an array's own support is an exact zero in its row."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _support(abs2: np.ndarray) -> Support:
    mask = abs2 != 0.0
    if mask.ndim == 3:
        mask = mask.any(axis=0)
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return Support(rows, cols, abs2[..., rows, cols])


def _diagonal(a: np.ndarray) -> np.ndarray:
    return np.diagonal(a, axis1=-2, axis2=-1)


def _generator_elements(ht):
    """The support of |h_ij|^2 and the eigenstate variances Var_i[h] from
    h in the probe eigenbasis, one matrix or a stack."""
    habs2 = np.abs(ht) ** 2
    var_i = habs2.sum(axis=-1) - np.real(_diagonal(ht)) ** 2
    return _support(habs2), var_i


def _commutator_elements(ct, energies):
    """The support of |C_ij|^2, the diagonal C_ii, the diagonal |C_ii|^2
    and the probe level differences at the entries of the support, from C
    in the probe eigenbasis, one matrix or a stack."""
    cabs2 = np.abs(ct) ** 2
    pairs = _support(cabs2)
    delta = energies[..., pairs.rows] - energies[..., pairs.cols]
    return pairs, np.real(_diagonal(ct)).copy(), _diagonal(cabs2).copy(), delta


def _fsum_rows(terms: np.ndarray) -> list[float]:
    """One math.fsum per row of a (k, m) term array."""
    return [math.fsum(row.tolist()) for row in terms]


def _generator_sums(p, var_i, h: Support):
    """The convexity sum sum_i 4 p_i Var[h]_i and the general and SLD
    routes for each row of p (k, n).

    A pair whose weight p_i + p_j falls below SUPPORT_TOL is dropped from
    its row before anything is divided by that weight, and its terms stay
    out of the row's fsum.
    """
    convexity = _fsum_rows(4.0 * p * var_i)
    pi, pj = p.take(h.rows, axis=1), p.take(h.cols, axis=1)
    pair_sum = pi + pj
    mask = pair_sum >= SUPPORT_TOL
    kept = mask.sum(axis=1).tolist()
    pair_sum = np.where(mask, pair_sum, 1.0)  # a dropped pair is never divided by its weight
    general_terms = (8.0 * (pi * pj) / pair_sum * h.values)[mask]
    sld_terms = (2.0 * (pi - pj) ** 2 / pair_sum * h.values)[mask]
    f_general, f_sld = [], []
    start = 0
    for first, count in zip(convexity, kept):
        stop = start + count
        f_general.append(_clamped(first - math.fsum(general_terms[start:stop].tolist()), "general-route QFI"))
        f_sld.append(_clamped(math.fsum(sld_terms[start:stop].tolist()), "SLD-route QFI"))
        start = stop
    return convexity, f_general, f_sld


def _commutator_sums(p, betas, cdiag, cdiag_abs2, c: Support, delta):
    """Var[C] and the thermal route for each row of p (k, n) at its beta;
    delta holds the probe level differences at the entries of c."""
    betas = np.asarray(betas, dtype=float)
    p_pairs = p.take(c.rows, axis=1)
    mean = _fsum_rows(p * cdiag)
    second_moment = _fsum_rows(np.concatenate((p * cdiag_abs2, p_pairs * c.values), axis=1))
    weight = 1.0 - tanhc(0.5 * betas[:, None] * delta) ** 2
    weighted = _fsum_rows(p_pairs * weight * c.values)
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


def route_sums(plan: SpectralPlan, p: np.ndarray, betas) -> RouteSums:
    """The three routes, Var[C] and the convexity sum of k probes at once.

    p holds the probe probabilities, one row (k, n) per probe, and betas
    their k inverse temperatures. The plan's arrays either belong to one
    generator and serve every row, or carry a leading axis of k, one
    scenario per row. Row r has the bits of the k = 1 call on row r.

    The rows are summed in chunks small enough that no (rows, support)
    term array holds more entries than the arrays handed in, the plan's
    generator and p, together: a temporary grows with the k x n
    probabilities the caller holds, never with k x support, which for a
    nearly dense generator is n/2 times larger. A stack's (k, n, n)
    generators have more entries than k rows of its support, so a stack
    is one chunk.
    """
    support = max(len(plan.h_pairs.rows), len(plan.c_pairs.rows), 1)
    step = max(1, (plan.generator.size + p.size) // support)
    sums = RouteSums([], [], [], [], [])
    for start in range(0, len(p), step):
        rows = slice(start, start + step)
        convexity, f_general, f_sld = _generator_sums(p[rows], plan.var_i, plan.h_pairs)
        var_c, f_thermal = _commutator_sums(
            p[rows], betas[rows], plan.cdiag, plan.cdiag_abs2, plan.c_pairs, plan.c_delta
        )
        for field, chunk in zip(sums, (f_general, f_thermal, f_sld, var_c, convexity)):
            field.extend(chunk)
    return sums


def probe_sums(plan: SpectralPlan, rho0: GibbsState) -> RouteSums:
    """route_sums for the one probe rho0 (k = 1)."""
    return route_sums(plan, rho0.probabilities[None], (rho0.beta,))


def qfi_general(probe, h) -> float:
    """Mixed-state dynamic QFI from the probe spectrum.

    F = sum_i 4 p_i Var[h]_i - sum_{i != j} 8 p_i p_j / (p_i + p_j) |h_ij|^2
    in the probe eigenbasis. A uniform spectrum cancels the two sums
    exactly; a pure probe reduces to 4 Var[h] on its support.
    """
    p, v, hm = _probe_parts(probe, h)
    pairs, var_i = _generator_elements(v.conj().T @ hm @ v)
    return _generator_sums(p[None], var_i, pairs)[1][0]


def qfi_sld(probe, h) -> float:
    """SLD-route QFI: F = sum_{i,j} 2 (p_i - p_j)^2 / (p_i + p_j) |h_ij|^2."""
    p, v, hm = _probe_parts(probe, h)
    pairs, var_i = _generator_elements(v.conj().T @ hm @ v)
    return _generator_sums(p[None], var_i, pairs)[2][0]


def _require_gibbs(rho0) -> None:
    if not isinstance(rho0, GibbsState):
        raise TypeError("the thermal route requires a GibbsState probe")


def qfi_thermal(rho0: GibbsState, h) -> float:
    """Thermal-commutator route, defined only for genuine Gibbs probes.

    F = beta^2 Var[C] - beta^2 sum_{i != j} p_i (1 - tanhc^2(beta D_ij / 2)) |C_ij|^2
    with C = i[H, h] and D_ij the energy differences of the probe
    Hamiltonian. Both orientations of each pair contribute with their own
    weight; degenerate pairs drop out exactly since tanhc(0) = 1.
    """
    _require_gibbs(rho0)
    hm = require_hermitian(as_operator(h), "generator")
    if hm.shape[0] != rho0.dim:
        raise ValueError(f"dimension mismatch: generator dim {hm.shape[0]}, probe dim {rho0.dim}")
    comm = commutator_i(rho0.hamiltonian, hm)
    v = rho0.eigenvectors
    pairs, cdiag, cdiag_abs2, delta = _commutator_elements(v.conj().T @ comm @ v, rho0.eigenvalues)
    return _commutator_sums(rho0.probabilities[None], (rho0.beta,), cdiag, cdiag_abs2, pairs, delta)[1][0]


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Everything the routes and bounds need that does not depend on beta.

    Built once per (probe Hamiltonian, generator) from h and C = i[H, h]
    in the probe eigenbasis: the nonzero off-diagonal |h_ij|^2 and
    |C_ij|^2 with their indices (h_pairs, c_pairs), the probe level
    differences at the entries of c_pairs (c_delta), Var_i[h], C_ii,
    |C_ii|^2 and ||C||. Each temperature is then a handful of weighted
    sums over that support; the exact zeros left out would add nothing
    to a correctly rounded fsum. generator is the matrix the plan was
    built from; bound_report reuses a report's plan only for that same
    matrix.

    The plan of a stack of k scenarios holds the union of their supports
    and the k generators, every array with a leading axis of k. Either
    way each array broadcasts against the k rows of route_sums and
    bound_rows: noncommutativity is a 0-d array for one generator and
    holds k widths for a stack.
    """

    generator: np.ndarray
    h_pairs: Support
    var_i: np.ndarray
    c_pairs: Support
    c_delta: np.ndarray
    cdiag: np.ndarray
    cdiag_abs2: np.ndarray
    noncommutativity: np.ndarray


def _relative_spread(f_general: float, f_thermal: float, f_sld: float) -> float:
    """Largest pairwise difference of the three routes over the largest
    |F|, so a small F cannot hide a disagreement; 0 when all three are 0."""
    scale = max(abs(f_general), abs(f_thermal), abs(f_sld))
    if scale == 0.0:
        return 0.0
    spread = max(abs(f_general - f_thermal), abs(f_general - f_sld), abs(f_thermal - f_sld))
    return spread / scale


def spectral_plan(decomposition: SpectralDecomposition, h) -> SpectralPlan:
    """Build the beta-independent plan for the probe Hamiltonian H, read as
    the source of its eigendecomposition, and generator h.

    Only h is scanned for Hermiticity: H was validated when it was
    decomposed, and C = i[H, h] is exactly Hermitian in floating point,
    since commutator_i returns 0.5 (X + X^dagger).
    """
    hm = require_hermitian(as_operator(h), "generator")
    dim = decomposition.source_dim
    if hm.shape[0] != dim:
        raise ValueError(f"dimension mismatch: generator dim {hm.shape[0]}, probe dim {dim}")
    comm = commutator_i(decomposition.source, hm, validated=True)
    return plan_from_eigenbasis(
        decomposition.eigenvalues,
        hm,
        decomposition.to_eigenbasis(hm),
        decomposition.to_eigenbasis(comm),
        seminorm(comm, validated=True),
    )


def plan_from_eigenbasis(
    energies: np.ndarray,
    hm: np.ndarray,
    h_eig: np.ndarray,
    c_eig: np.ndarray,
    noncommutativity,
) -> SpectralPlan:
    """The plan from the probe energies, the validated generator hm, hm and
    C = i[H, hm] in the probe eigenbasis (h_eig, c_eig) and ||C||.
    spectral_plan forms these for one generator and its decomposition; a
    caller holding a (k, n, n) stack of scenarios passes the stacks, with
    (k, n) energies and k widths."""
    h_pairs, var_i = _generator_elements(h_eig)
    c_pairs, cdiag, cdiag_abs2, c_delta = _commutator_elements(c_eig, energies)
    return SpectralPlan(
        generator=hm,
        h_pairs=h_pairs,
        var_i=var_i,
        c_pairs=c_pairs,
        c_delta=c_delta,
        cdiag=cdiag,
        cdiag_abs2=cdiag_abs2,
        noncommutativity=np.asarray(noncommutativity, dtype=float),
    )


@dataclass(frozen=True)
class QfiReport:
    """The three route values and their agreement certificate.

    max_pairwise_rel_diff is the largest pairwise route difference over
    the largest |F| (see _relative_spread). plan is the SpectralPlan the
    values came from, probe the state they were evaluated at and sums the
    k = 1 route_sums they were read from, kept so bound_report can reuse
    Var[C] and the convexity sum for the same probe and generator.
    """

    f_general: float
    f_thermal: float
    f_sld: float
    max_pairwise_rel_diff: float
    pure_state_flag: bool
    plan: SpectralPlan | None = field(default=None, repr=False, compare=False)
    probe: GibbsState | None = field(default=None, repr=False, compare=False)
    sums: RouteSums | None = field(default=None, repr=False, compare=False)


def report_from_sums(plan: SpectralPlan, rho0: GibbsState, sums: RouteSums) -> QfiReport:
    """The QfiReport of sums = probe_sums(plan, rho0)."""
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


def qfi_report(rho0: GibbsState, h) -> QfiReport:
    _require_gibbs(rho0)
    plan = spectral_plan(rho0.decomposition, h)
    return report_from_sums(plan, rho0, probe_sums(plan, rho0))
