"""Universal upper bounds on the thermal dynamic QFI and their ordering.

The chain, for a Gibbs probe with Hamiltonian H, generator h and
C = i[H, h]:

    F <= beta^2 Var[C]        <= beta^2 ||C||^2 / 4  <= beta^2 t^2 ||H||^2 ||dH/dlambda||^2 / 4
    F <= sum_i 4 p_i Var[h]_i <= 4 Var[C] / gap^2    <= ||C||^2 / gap^2

where the seminorm ||.|| is the spectral width and gap is the minimum
nonzero level spacing of H. BoundReport evaluates every member and
certifies the ordering within a 1e-9 relative slack, widened on the
pairs that judge F by the rounding error F carries (SLD_ROUNDING).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .encoding import (
    ExplicitGenerator,
    HamiltonianFamily,
    NumericUnitary,
    transformed_generator,
)
from .operators import (
    SpectralDecomposition,
    _blocks,
    _widths,
    as_hermitian,
    commutator_i,
    eigendecompose,
    seminorm,
)
from .qfi import (
    QfiReport,
    RouteSums,
    SpectralPlan,
    probe_sums,
    route_sums,
    spectral_plan,
    stacked_plan,
)
from .thermal import GibbsState, boltzmann_weights

ORDERING_RTOL = 1e-9
GAP_DEGENERACY_RTOL = 1e-9
# The SLD route's absolute rounding error, in units of
# sqrt(f_sld * convexity sum). Each Boltzmann weight carries a relative
# error delta of a few eps, which p_i - p_j keeps while the difference
# itself shrinks like beta times the level spacing at high temperature.
# Over the pairs, by Cauchy-Schwarz, f_sld is then off by at most
# 2 delta sqrt(f_sld * convexity sum), about eps / (beta * spacing)
# relative: 1e-7 at beta = 1e-9, beyond ORDERING_RTOL. This covers
# delta = 4 eps; an exact (mpmath) sum over the same matrix elements puts
# the error below 0.6 eps sqrt(f_sld * convexity sum) for beta in
# [1e-9, 0.3] on the oat, lmg and linear models. At larger beta the
# rounding of the exponents dominates instead, about 1e-13 relative at
# oat 2J = 40, beta = 1, which ORDERING_RTOL covers.
SLD_ROUNDING = 8.0 * np.finfo(float).eps


class UnsupportedEncodingError(TypeError):
    """The requested bound needs data this encoding variant does not carry."""


def _thermal_variance(rho0: GibbsState, op: np.ndarray) -> float:
    """Var[op] against the Gibbs probe, evaluated in the probe eigenbasis."""
    v = rho0.eigenvectors
    p = rho0.probabilities
    ot = v.conj().T @ op.matrix @ v
    mean = math.fsum((p * np.real(np.diag(ot))).tolist())
    second = math.fsum((p[:, None] * np.abs(ot) ** 2).ravel().tolist())
    return second - mean * mean


def _convexity_sum(rho0: GibbsState, hm: np.ndarray) -> float:
    """sum_i 4 p_i Var[h]_i over the probe eigenstates."""
    v = rho0.eigenvectors
    p = rho0.probabilities
    ht = v.conj().T @ hm.matrix @ v
    var_i = (np.abs(ht) ** 2).sum(axis=1) - np.real(np.diag(ht)) ** 2
    return math.fsum((4.0 * p * var_i).tolist())


def _probe_commutator(rho0: GibbsState, h):
    return commutator_i(rho0.decomposition.source, as_hermitian(h, "generator"))


def noncommutativity(hamiltonian, h) -> float:
    """c = ||i[H, h]||; zero exactly when the encoding commutes with H."""
    return seminorm(commutator_i(hamiltonian, as_hermitian(h, "generator")))


def variance_bound(rho0: GibbsState, h) -> float:
    """beta^2 Var[i[H, h]] against the probe; the tightest universal bound."""
    return rho0.beta**2 * _thermal_variance(rho0, _probe_commutator(rho0, h))


def seminorm_bound(rho0: GibbsState, h) -> float:
    """beta^2 ||i[H, h]||^2 / 4; dominates the variance bound."""
    return rho0.beta**2 * seminorm(_probe_commutator(rho0, h)) ** 2 / 4.0


def product_bound(hamiltonian, dh_dlambda, beta: float, t: float) -> float:
    """beta^2 t^2 ||H||^2 ||dH/dlambda||^2 / 4, the fully factorized ceiling."""
    return _product(beta, t, seminorm(hamiltonian), seminorm(dh_dlambda))


def _product(beta, t, h_width: float, dh_width: float) -> float:
    return float(beta) ** 2 * float(t) ** 2 * h_width**2 * dh_width**2 / 4.0


def scheme_product_bound(rho0: GibbsState, scheme) -> float:
    """Product bound for an encoding scheme; the probe Hamiltonian supplies ||H||."""
    derivative = _derivative(scheme)
    if derivative is None:
        raise UnsupportedEncodingError(
            "numeric-unitary encodings expose no dH/dlambda; the product bound is undefined"
        )
    return product_bound(rho0.decomposition.source, derivative, rho0.beta, scheme.t)


def minimum_gap(eigenvalues, threshold) -> np.ndarray:
    """Smallest pairwise level spacing exceeding the degeneracy threshold.

    eigenvalues is one spectrum (n,) or a stack of spectra (..., n), and
    threshold broadcasts against the stack's leading axes. Returns an
    array of that leading shape, 0-d for one spectrum.

    Each spectrum is sorted, so fl(e_j - e_i) = |fl(e_i - e_j)| for j > i
    and, rounding being monotone, it grows with j: the smallest spacing
    above the threshold from e_i is to the first such j. All levels step
    their j up together until every spacing exceeds the threshold, so a
    step costs one pass over the levels and no (..., n, n) array is made;
    the steps number the largest run of levels within the threshold.
    """
    e = np.sort(np.asarray(eigenvalues, dtype=float), axis=-1)
    threshold = np.asarray(threshold, dtype=float)[..., None]
    n = e.shape[-1]
    padded = np.concatenate((e, np.full(e.shape, np.nan)), axis=-1)  # NaN past the top: never above
    spacing = padded[..., 1 : n + 1] - e
    within = spacing <= threshold
    step = 1
    while within.any():
        step += 1
        spacing = np.where(within, padded[..., step : step + n] - e, spacing)
        within &= spacing <= threshold
    above = np.where(spacing > threshold, spacing, np.inf)
    # a negative threshold admits each level as its own neighbour, at spacing 0
    smallest = np.where(threshold < 0, 0.0, above).min(axis=-1)
    if np.any(np.isinf(smallest)):
        raise ValueError("spectrum is fully degenerate; no nonzero gap exists")
    return smallest


class GapBounds(NamedTuple):
    convexity_bound: float
    gap_variance_bound: float
    gap_seminorm_bound: float
    min_gap: float


def gap_bounds(rho0: GibbsState, h) -> GapBounds:
    """The low-temperature chain: convexity sum, 4 Var[C]/gap^2, ||C||^2/gap^2.

    The gap treats spacings below 1e-9 * ||H|| as degenerate; a fully
    degenerate probe Hamiltonian has no usable gap and raises.
    """
    hm = as_hermitian(h, "generator")
    comm = commutator_i(rho0.decomposition.source, hm)
    gap = float(minimum_gap(rho0.eigenvalues, GAP_DEGENERACY_RTOL * seminorm(rho0.decomposition.source)))
    return GapBounds(
        convexity_bound=_convexity_sum(rho0, hm),
        gap_variance_bound=4.0 * _thermal_variance(rho0, comm) / gap**2,
        gap_seminorm_bound=seminorm(comm) ** 2 / gap**2,
        min_gap=gap,
    )


@dataclass
class BoundReport:
    """The QFI next to every bound, with the ordering certificate.

    f is the SLD-route QFI, which sums only nonnegative terms and so keeps
    its digits at high temperature, where the general route loses about
    eps/beta^2; the ordering is judged on it. A plain record, mutable
    and unhashable: nothing hashes or mutates one.
    """

    f: float
    variance_bound: float
    seminorm_bound: float
    product_bound: float | None
    convexity_bound: float
    gap_variance_bound: float
    gap_seminorm_bound: float
    min_gap: float
    noncommutativity: float
    ordering_ok: bool


# bound_rows' result: one list per BoundReport field, one entry per row
BoundColumns = namedtuple("BoundColumns", [f.name for f in fields(BoundReport)])


# the certified orderings x <= y as (x, y) rows of a chain: 0 f, 1 variance,
# 2 seminorm, 3 convexity, 4 gap-variance, 5 gap-seminorm and, for an
# encoding with a product bound, 6 product bound; keyed by the chain length
_PAIRS = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (3, 4), (4, 5)]
_ORDERINGS = {6: np.array(_PAIRS).T, 7: np.array(_PAIRS + [(0, 6), (2, 6)]).T}


def _ordering_ok(chain) -> list[bool]:
    """The ordering certificate of k points, judged at once on the (6, k)
    or (7, k) array of their chain values: each x <= y within a relative
    slack of ORDERING_RTOL * |y|, and where x is f also within f's
    rounding error SLD_ROUNDING * sqrt(f * convexity sum)."""
    values = np.array(chain, dtype=float)
    pairs = _ORDERINGS[len(values)]
    x, y = values[pairs]
    f, convexity = values[0], values[3]
    f_error = SLD_ROUNDING * np.sqrt(np.abs(f)) * np.sqrt(np.abs(convexity))
    slack = ORDERING_RTOL * np.abs(y) + np.outer(pairs[0] == 0, f_error)
    return np.all(x <= y + slack, axis=0).tolist()


class BoundScales(NamedTuple):
    """The beta- and t-independent scalars of the bound chain: ||H||, the
    minimum gap of the probe Hamiltonian H, and ||dH/dlambda|| (None for
    encodings that expose no derivative). Each broadcasts against the
    rows of bound_rows: one value for a sweep, one per scenario for a
    stack."""

    h_width: ArrayLike
    min_gap: ArrayLike
    dh_width: ArrayLike | None


def _derivative(scheme) -> np.ndarray | None:
    if isinstance(scheme, ExplicitGenerator):
        return scheme.generator
    if isinstance(scheme, HamiltonianFamily):
        return scheme.dh_dlambda
    if isinstance(scheme, NumericUnitary):
        return None
    raise TypeError(f"unknown encoding scheme type: {type(scheme).__name__}")


def probe_scales(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||H|| and the minimum gap of one ascending probe spectrum (n,), or
    of each of a (k, n) stack, as 0-d or (k,) arrays.

    ||H|| is the width E_max - E_min of the spectrum the decomposition
    already holds. For a diagonal probe it is bit for bit seminorm(H); for
    a dense one, eigh's extreme eigenvalues may differ from eigvalsh's in
    their last bits. The gap treats spacings below 1e-9 * ||H|| as
    degenerate.
    """
    h_width = energies[..., -1] - energies[..., 0]
    return h_width, minimum_gap(energies, GAP_DEGENERACY_RTOL * h_width)


def derivative_width(scheme) -> float | None:
    """||dH/dlambda|| of an encoding, None where it exposes no derivative.
    Nothing is scanned: dH/dlambda is the record the scheme took in."""
    derivative = _derivative(scheme)
    return None if derivative is None else seminorm(derivative)


def bound_scales(decomposition: SpectralDecomposition, scheme) -> BoundScales:
    """The scales of the probe Hamiltonian H, read off its
    eigendecomposition (probe_scales), and of the encoding."""
    h_width, min_gap = probe_scales(decomposition.eigenvalues)
    return BoundScales(float(h_width), float(min_gap), derivative_width(scheme))


def _per_row(value, k: int) -> list:
    """One entry per row from a value shared by k rows, or from one value
    per group of k / size consecutive rows."""
    return np.repeat(value, k // np.size(value)).tolist()


def bound_rows(plan: SpectralPlan, sums: RouteSums, betas, times, scales: BoundScales, f=None) -> BoundColumns:
    """The BoundReport fields of each row of sums = route_sums(plan, p,
    betas), as columns, with every ordering certificate judged at once on
    arrays. Row r's report is BoundReport(*(column[r] for column in ...)).

    times (the evolution times of the product bound), plan.noncommutativity
    and each field of scales hold one value for every row, one per row,
    or one per generator of a stacked plan, repeated over the rows that
    generator serves (_per_row). The chain is then formed in Python
    floats, row by row, so each row has the bits of a single point. f,
    the QFI the chain is judged on, defaults to the rows' SLD route.
    Without a product bound its column is None in every row.
    """
    k = len(betas)
    f = sums.f_sld if f is None else f
    var_c, convexity = sums.commutator_variance, sums.convexity
    widths, times, h_widths, gaps = (_per_row(value, k) for value in (plan.noncommutativity, times, *scales[:2]))
    dh_widths = None if scales.dh_width is None else _per_row(scales.dh_width, k)
    v_bound = [beta**2 * var for beta, var in zip(betas, var_c)]
    s_bound = [beta**2 * width**2 / 4.0 for beta, width in zip(betas, widths)]
    p_bound = None
    if dh_widths is not None:
        p_bound = [_product(*row) for row in zip(betas, times, h_widths, dh_widths)]
    gap_var = [4.0 * var / gap**2 for var, gap in zip(var_c, gaps)]
    gap_semi = [width**2 / gap**2 for width, gap in zip(widths, gaps)]
    chain = [f, v_bound, s_bound, convexity, gap_var, gap_semi]
    ordering_ok = _ordering_ok(chain if p_bound is None else [*chain, p_bound])
    return BoundColumns(
        f, v_bound, s_bound, p_bound or [None] * k, convexity, gap_var, gap_semi, gaps, widths, ordering_ok
    )


def bound_report(rho0: GibbsState, scheme, h=None, qfi_result: QfiReport | None = None) -> BoundReport:
    """Evaluate every bound for a probe plus encoding and certify the chain:
    the k = 1 case of route_sums and bound_rows.

    The product bound is left out (None) for encodings that do not expose
    a Hamiltonian derivative. Bounds are reported even when vacuous; the
    certificate only checks the one-sided orderings. A qfi_result that
    qfi_report made for this very probe and generator lends its plan and
    sums, so neither the commutator nor Var[C] is formed twice; any
    qfi_result lends its f_sld as the QFI the chain is judged on.
    """
    if h is None:
        h = transformed_generator(scheme)
    if (
        qfi_result is not None
        and qfi_result.probe is rho0
        and qfi_result.plan.generator is as_hermitian(h, "generator")
    ):
        plan, sums = qfi_result.plan, qfi_result.sums
    else:
        plan = spectral_plan(rho0.decomposition, h)
        sums = probe_sums(plan, rho0)
    scales = bound_scales(rho0.decomposition, scheme)
    f = None if qfi_result is None else (qfi_result.f_sld,)
    # a NumericUnitary carries no t, and has no product bound to use one
    columns = bound_rows(plan, sums, (rho0.beta,), getattr(scheme, "t", None), scales, f=f)
    return BoundReport(*(column[0] for column in columns))


def stacked_bound_reports(hamiltonians, generators, betas, times) -> list[BoundReport]:
    """The BoundReport of each scenario (H, A, beta, t) of a (k, n, n)
    stack, given as arrays of H, A, beta and t, each equal by repr to
    bound_report(gibbs_state(H, beta), ExplicitGenerator(A, t)).

    Precondition: every scenario takes the single-point one-block path
    throughout. H and A are exactly Hermitian and finite, H, t A and
    C = i[H, t A] each have a nonzero off-diagonal entry,
    n <= DENSE_MAX_DIM, and t is finite and positive. Nothing here
    checks it: each stack is taken as one block. A LAPACK error or
    a missed residual certificate of the stacked eigendecompose raises
    EigensolverError, and boltzmann_weights checks each beta as on the
    single-point path. One stacked eigendecompose (which also gives
    ||H||) and one _widths call each for ||A|| and ||C|| give the bits
    of per-matrix calls; stacked_plan, one route_sums and one bound_rows
    give the bits of bound_report.
    """
    scaled = _blocks(times[:, None, None] * generators)  # h = t A, as generator_stack forms it
    decomposition = eigendecompose(_blocks(hamiltonians), "Hamiltonian stack")
    evals = decomposition.eigenvalues
    plan = stacked_plan(decomposition, scaled)
    weights = boltzmann_weights(evals, betas.tolist())
    scales = BoundScales(*probe_scales(evals), _widths(_blocks(generators), "generator stack"))
    sums = route_sums(plan, weights.probabilities, weights.betas)
    return list(map(BoundReport, *bound_rows(plan, sums, weights.betas, times, scales)))
