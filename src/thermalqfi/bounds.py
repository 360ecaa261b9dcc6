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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .encoding import (
    ExplicitGenerator,
    HamiltonianFamily,
    NumericUnitary,
    as_operator,
    transformed_generator,
)
from .operators import (
    SpectralDecomposition,
    certified_eigh,
    commutator_i,
    require_hermitian,
    seminorm,
    stacked_seminorms,
)
from .qfi import (
    QfiReport,
    RouteSums,
    SpectralPlan,
    plan_from_eigenbasis,
    probe_sums,
    report_from_sums,
    route_sums,
    spectral_plan,
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
    ot = v.conj().T @ op @ v
    mean = math.fsum((p * np.real(np.diag(ot))).tolist())
    second = math.fsum((p[:, None] * np.abs(ot) ** 2).ravel().tolist())
    return second - mean * mean


def _convexity_sum(rho0: GibbsState, hm: np.ndarray) -> float:
    """sum_i 4 p_i Var[h]_i over the probe eigenstates."""
    v = rho0.eigenvectors
    p = rho0.probabilities
    ht = v.conj().T @ hm @ v
    var_i = (np.abs(ht) ** 2).sum(axis=1) - np.real(np.diag(ht)) ** 2
    return math.fsum((4.0 * p * var_i).tolist())


def _probe_commutator(rho0: GibbsState, h) -> np.ndarray:
    return commutator_i(rho0.hamiltonian, require_hermitian(as_operator(h), "generator"))


def noncommutativity(hamiltonian, h) -> float:
    """c = ||i[H, h]||; zero exactly when the encoding commutes with H."""
    return seminorm(commutator_i(hamiltonian, as_operator(h)))


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
    return product_bound(rho0.hamiltonian, derivative, rho0.beta, scheme.t)


def minimum_gap(eigenvalues, threshold) -> np.ndarray:
    """Smallest pairwise level spacing exceeding the degeneracy threshold.

    eigenvalues is one spectrum (n,) or a stack of spectra (..., n), and
    threshold broadcasts against the stack's leading axes. Returns an
    array of that leading shape, 0-d for one spectrum.
    """
    e = np.asarray(eigenvalues, dtype=float)
    gaps = np.abs(e[..., :, None] - e[..., None, :])
    above = np.where(gaps > np.asarray(threshold, dtype=float)[..., None, None], gaps, np.inf)
    smallest = above.min(axis=(-2, -1))
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
    hm = require_hermitian(as_operator(h), "generator")
    comm = commutator_i(rho0.hamiltonian, hm)
    gap = float(minimum_gap(rho0.eigenvalues, GAP_DEGENERACY_RTOL * seminorm(rho0.hamiltonian)))
    return GapBounds(
        convexity_bound=_convexity_sum(rho0, hm),
        gap_variance_bound=4.0 * _thermal_variance(rho0, comm) / gap**2,
        gap_seminorm_bound=seminorm(comm) ** 2 / gap**2,
        min_gap=gap,
    )


@dataclass(frozen=True)
class BoundReport:
    """The QFI next to every bound, with the ordering certificate.

    f is the SLD-route QFI, which sums only nonnegative terms and so keeps
    its digits at high temperature, where the general route loses about
    eps/beta^2; the ordering is judged on it.
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


def bound_scales(decomposition: SpectralDecomposition, scheme) -> BoundScales:
    """The scales for the probe Hamiltonian H, read as the source of its
    eigendecomposition.

    The gap treats spacings below 1e-9 * ||H|| as degenerate. H, and a
    derivative that is H itself (J_z as the lmg dH/dlambda), were
    validated when H was decomposed and are not scanned again.
    """
    derivative = _derivative(scheme)
    h_width = seminorm(decomposition.source, validated=True)
    return BoundScales(
        h_width=h_width,
        min_gap=float(_probe_gap(decomposition.eigenvalues, h_width)),
        dh_width=None if derivative is None else seminorm(derivative, validated=derivative is decomposition.source),
    )


def _probe_gap(energies: np.ndarray, h_width) -> np.ndarray:
    """The minimum gap of one probe spectrum, or of each of a (k, n) stack
    against its own one of k widths."""
    return minimum_gap(energies, GAP_DEGENERACY_RTOL * np.asarray(h_width))


def bound_rows(
    plan: SpectralPlan, sums: RouteSums, betas, times, scales: BoundScales, f=None
) -> list[BoundReport]:
    """The BoundReport of each row of sums = route_sums(plan, p, betas),
    with every ordering certificate judged at once on arrays.

    times (the evolution times of the product bound), plan.noncommutativity
    and each field of scales broadcast against the k rows, as numpy
    broadcasts them (np.full). The chain is then formed in Python floats, row by
    row, so each row has the bits of a single point. f, the QFI the chain
    is judged on, defaults to the rows' SLD route.
    """
    k = len(betas)
    f = sums.f_sld if f is None else f
    var_c, convexity = sums.commutator_variance, sums.convexity
    widths, times, h_widths, gaps = (
        np.full(k, value).tolist() for value in (plan.noncommutativity, times, *scales[:2])
    )
    dh_widths = None if scales.dh_width is None else np.full(k, scales.dh_width).tolist()
    v_bound = [beta**2 * var for beta, var in zip(betas, var_c)]
    s_bound = [beta**2 * width**2 / 4.0 for beta, width in zip(betas, widths)]
    p_bound = None
    if dh_widths is not None:
        p_bound = [_product(*row) for row in zip(betas, times, h_widths, dh_widths)]
    gap_var = [4.0 * var / gap**2 for var, gap in zip(var_c, gaps)]
    gap_semi = [width**2 / gap**2 for width, gap in zip(widths, gaps)]
    chain = [f, v_bound, s_bound, convexity, gap_var, gap_semi]
    ordering_ok = _ordering_ok(chain if p_bound is None else [*chain, p_bound])
    return [
        BoundReport(*row)
        for row in zip(
            f, v_bound, s_bound, p_bound or [None] * k, convexity, gap_var, gap_semi, gaps, widths, ordering_ok
        )
    ]


def evaluate_point(
    plan: SpectralPlan,
    rho0: GibbsState,
    scales: BoundScales,
    t: float | None,
    qfi_result: QfiReport | None = None,
) -> tuple[QfiReport, BoundReport]:
    """The three QFI routes and every bound at one temperature, from a plan:
    the k = 1 case of route_sums and bound_rows.

    t is the evolution time of the product bound. A qfi_result that
    qfi_report made from this very plan and probe lends its sums, so
    Var[C] and the convexity sum are not summed again; any qfi_result
    lends its f_sld as the QFI the chain is judged on.
    """
    if qfi_result is not None and qfi_result.plan is plan and qfi_result.probe is rho0:
        sums = qfi_result.sums
    else:
        sums = probe_sums(plan, rho0)
    if qfi_result is None:
        qfi_result = report_from_sums(plan, rho0, sums)
    (bounds,) = bound_rows(plan, sums, (rho0.beta,), t, scales, f=(qfi_result.f_sld,))
    return qfi_result, bounds


def bound_report(rho0: GibbsState, scheme, h=None, qfi_result: QfiReport | None = None) -> BoundReport:
    """Evaluate every bound for a probe plus encoding and certify the chain.

    The product bound is left out (None) for encodings that do not expose
    a Hamiltonian derivative. Bounds are reported even when vacuous; the
    certificate only checks the one-sided orderings. A qfi_result from
    qfi_report on rho0's decomposition and h lends its plan, so the
    commutator and the basis changes are not formed twice.
    """
    if h is None:
        h = transformed_generator(scheme)
    lender = getattr(qfi_result, "probe", None)
    if (
        lender is not None
        and lender.decomposition is rho0.decomposition
        and qfi_result.plan.generator is as_operator(h)
    ):
        plan = qfi_result.plan
    else:
        plan = spectral_plan(rho0.decomposition, h)
    scales = bound_scales(rho0.decomposition, scheme)
    # a NumericUnitary carries no t, and has no product bound to use one
    return evaluate_point(plan, rho0, scales, getattr(scheme, "t", None), qfi_result)[1]


def stacked_bound_reports(hamiltonians, generators, betas, times) -> list[BoundReport]:
    """The BoundReport of each scenario (H, A, beta, t) of a (k, n, n)
    stack, given as arrays of H, A, beta and t, each equal by repr to
    bound_report(gibbs_state(H, beta), ExplicitGenerator(A, t)).

    Precondition: every scenario takes the single-point dense branch
    throughout. H and A are exactly Hermitian and finite, H and
    C = i[H, t A] each have a nonzero off-diagonal entry,
    n <= DENSE_MAX_DIM, and t is finite and nonnegative. Nothing here
    checks it; a LAPACK error or a missed residual certificate of the
    stacked eigh raises EigensolverError, and boltzmann_weights checks
    each beta as on the single-point path. One stacked eigh, commutator
    and eigvalsh per seminorm give the bits of per-matrix calls; one
    stacked plan over the union of the scenarios' supports, one
    route_sums and one bound_rows give the bits of bound_report.
    """
    scaled = times[:, None, None] * generators  # h = t A, as generator_explicit forms it
    a_width = stacked_seminorms(generators, "generator stack")
    evals, evecs = certified_eigh(hamiltonians, "Hamiltonian stack")
    comm = commutator_i(hamiltonians, scaled, validated=True)
    c_width = stacked_seminorms(comm, "commutator stack")
    h_width = stacked_seminorms(hamiltonians, "Hamiltonian stack")
    h_eig = evecs.conj().mT @ scaled @ evecs
    c_eig = evecs.conj().mT @ comm @ evecs
    plan = plan_from_eigenbasis(evals, scaled, h_eig, c_eig, c_width)
    weights = boltzmann_weights(evals, betas.tolist())
    scales = BoundScales(h_width, _probe_gap(evals, h_width), a_width)
    sums = route_sums(plan, weights.probabilities, weights.betas)
    return bound_rows(plan, sums, weights.betas, times, scales)
