"""Universal upper bounds on the thermal dynamic QFI and their ordering.

The chain, for a Gibbs probe with Hamiltonian H, generator h and
C = i[H, h]:

    F <= beta^2 Var[C]        <= beta^2 ||C||^2 / 4  <= beta^2 t^2 ||H||^2 ||dH/dlambda||^2 / 4
    F <= sum_i 4 p_i Var[h]_i <= 4 Var[C] / gap^2    <= ||C||^2 / gap^2

where the seminorm ||.|| is the spectral width and gap is the minimum
nonzero level spacing of H. BoundReport evaluates every member and
certifies the ordering within a 1e-9 relative slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
from .qfi import QfiReport, SpectralPlan, plan_from_eigenbasis, spectral_plan
from .thermal import GibbsState, gibbs_from_spectrum

ORDERING_RTOL = 1e-9
GAP_DEGENERACY_RTOL = 1e-9


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


def minimum_gap(eigenvalues, threshold: float) -> float:
    """Smallest pairwise level spacing exceeding the degeneracy threshold."""
    e = np.asarray(eigenvalues, dtype=float)
    gaps = np.abs(e[:, None] - e[None, :])
    above = gaps[gaps > threshold]
    if above.size == 0:
        raise ValueError("spectrum is fully degenerate; no nonzero gap exists")
    return float(above.min())


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
    gap = minimum_gap(rho0.eigenvalues, GAP_DEGENERACY_RTOL * seminorm(rho0.hamiltonian))
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


def _below(x: float, y: float) -> bool:
    return x <= y + ORDERING_RTOL * max(1.0, abs(y))


class BoundScales(NamedTuple):
    """The beta- and t-independent scalars of the bound chain: ||H||, the
    minimum gap of the probe Hamiltonian H, and ||dH/dlambda|| (None for
    encodings that expose no derivative)."""

    h_width: float
    min_gap: float
    dh_width: float | None


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
        min_gap=_probe_gap(decomposition, h_width),
        dh_width=None if derivative is None else seminorm(derivative, validated=derivative is decomposition.source),
    )


def _probe_gap(decomposition: SpectralDecomposition, h_width: float) -> float:
    return minimum_gap(decomposition.eigenvalues, GAP_DEGENERACY_RTOL * h_width)


def evaluate_point(
    plan: SpectralPlan,
    rho0: GibbsState,
    scales: BoundScales,
    t: float | None,
    qfi_result: QfiReport | None = None,
) -> tuple[QfiReport, BoundReport]:
    """The three QFI routes and every bound at one temperature, from a plan.

    The shared per-point step of bound_report and run_sweep: only the
    probe probabilities and beta enter here, everything else comes
    precomputed from the plan and the scales. t is the evolution time of
    the product bound. A qfi_result that plan.qfi_report made for this
    very probe also lends its Var[C].
    """
    p = rho0.probabilities
    if qfi_result is not None and qfi_result.plan is plan and qfi_result.probe is rho0:
        var_c = qfi_result.commutator_variance
    else:
        var_c = plan.commutator_variance(p)
    if qfi_result is None:
        qfi_result = plan.qfi_report(rho0, var_c)
    beta = rho0.beta
    width = plan.noncommutativity
    v_bound = beta**2 * var_c
    s_bound = beta**2 * width**2 / 4.0
    p_bound = None if scales.dh_width is None else _product(beta, t, scales.h_width, scales.dh_width)
    gap = scales.min_gap
    convexity = plan.convexity_sum(p)
    gap_var = 4.0 * var_c / gap**2
    gap_semi = width**2 / gap**2
    f = qfi_result.f_sld
    ordering_ok = (
        _below(f, v_bound)
        and _below(f, s_bound)
        and (p_bound is None or _below(f, p_bound))
        and _below(f, convexity)
        and _below(f, gap_var)
        and _below(f, gap_semi)
        and _below(v_bound, s_bound)
        and (p_bound is None or _below(s_bound, p_bound))
        and _below(convexity, gap_var)
        and _below(gap_var, gap_semi)
    )
    return qfi_result, BoundReport(
        f=f,
        variance_bound=v_bound,
        seminorm_bound=s_bound,
        product_bound=p_bound,
        convexity_bound=convexity,
        gap_variance_bound=gap_var,
        gap_seminorm_bound=gap_semi,
        min_gap=gap,
        noncommutativity=width,
        ordering_ok=ordering_ok,
    )


def bound_report(rho0: GibbsState, scheme, h=None, qfi_result: QfiReport | None = None) -> BoundReport:
    """Evaluate every bound for a probe plus encoding and certify the chain.

    The product bound is left out (None) for encodings that do not expose
    a Hamiltonian derivative. Bounds are reported even when vacuous; the
    certificate only checks the one-sided orderings. A qfi_result from
    qfi_report(rho0, h) lends its plan, so the commutator and the basis
    changes are not formed twice.
    """
    if h is None:
        h = transformed_generator(scheme)
    plan = getattr(qfi_result, "plan", None)
    if plan is None or plan.decomposition is not rho0.decomposition or plan.generator is not as_operator(h):
        plan = spectral_plan(rho0.decomposition, h)
    scales = bound_scales(rho0.decomposition, scheme)
    # a NumericUnitary carries no t, and has no product bound to use one
    return evaluate_point(plan, rho0, scales, getattr(scheme, "t", None), qfi_result)[1]


def stacked_bound_reports(hamiltonians, generators, betas, times):
    """The BoundReport of each scenario (H, A, beta, t) of a (k, n, n)
    stack, given as arrays of H, A, beta and t, each equal by repr to
    bound_report(gibbs_state(H, beta), ExplicitGenerator(A, t)).

    Precondition: every scenario takes the single-point dense branch
    throughout. H and A are exactly Hermitian and finite, H and
    C = i[H, t A] each have a nonzero off-diagonal entry,
    n <= DENSE_MAX_DIM, and t is finite and nonnegative. Nothing here
    checks it; a LAPACK error or a missed residual certificate of the
    stacked eigh raises EigensolverError, and gibbs_from_spectrum checks
    each beta as on the single-point path. One stacked eigh, commutator
    and eigvalsh per seminorm give the bits of per-matrix calls, and each
    report comes from the same plan constructor, gap threshold and
    evaluate_point as bound_report.
    """
    scaled = times[:, None, None] * generators  # h = t A, as generator_explicit forms it
    a_width = stacked_seminorms(generators, "generator stack")
    evals, evecs = certified_eigh(hamiltonians, "Hamiltonian stack")
    comm = commutator_i(hamiltonians, scaled, validated=True)
    c_width = stacked_seminorms(comm, "commutator stack")
    h_width = stacked_seminorms(hamiltonians, "Hamiltonian stack")
    h_eig = evecs.conj().mT @ scaled @ evecs
    c_eig = evecs.conj().mT @ comm @ evecs
    for i, (beta, t) in enumerate(zip(betas.tolist(), times.tolist())):
        decomposition = SpectralDecomposition(evals[i], evecs[i], hamiltonians.shape[-1], source=hamiltonians[i])
        rho0 = gibbs_from_spectrum(decomposition, beta)
        plan = plan_from_eigenbasis(decomposition, scaled[i], h_eig[i], c_eig[i], c_width[i])
        scales = BoundScales(h_width[i], _probe_gap(decomposition, h_width[i]), a_width[i])
        yield evaluate_point(plan, rho0, scales, t)[1]
