"""Dynamic quantum Fisher information through three independent routes.

The general route sums probe-eigenstate variances against coherence pairs;
the thermal route rewrites everything through the commutator with the
probe Hamiltonian and a tanhc weight; the SLD route weights coherences by
the classical distinguishability of the probe spectrum. Agreement of the
three at 1e-8 relative on full-rank thermal probes is the package's
central correctness property, certified in QfiReport.

Sums are accumulated with math.fsum, so results are deterministic to the
last bit regardless of evaluation order. Each route's beta-dependent sum
lives in one private function, shared by the public route functions and
by SpectralPlan, which holds the beta-independent matrix elements so that
a temperature sweep evaluates each beta as a few weighted sums over their
nonzero support.
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
    out = np.where(small, 1.0 - arr * arr / 3.0 + 2.0 * arr**4 / 15.0, np.tanh(safe) / safe)
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
    and column indices and their values."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _support(abs2: np.ndarray) -> Support:
    mask = abs2 != 0.0
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return Support(rows, cols, abs2[rows, cols])


def _generator_elements(ht):
    """The support of |h_ij|^2 and the eigenstate variances Var_i[h] from
    h in the probe eigenbasis."""
    habs2 = np.abs(ht) ** 2
    var_i = habs2.sum(axis=1) - np.real(np.diag(ht)) ** 2
    return _support(habs2), var_i


def _commutator_elements(ct):
    """The support of |C_ij|^2, the diagonal C_ii and the diagonal
    |C_ii|^2 from C in the probe eigenbasis."""
    cabs2 = np.abs(ct) ** 2
    return _support(cabs2), np.real(np.diag(ct)), np.diag(cabs2).copy()


def _eigenstate_sum(p, var_i) -> float:
    """sum_i 4 p_i Var[h]_i, the convexity bound and the general route's first term."""
    return math.fsum((4.0 * p * var_i).tolist())


def _variance_sum(p, cdiag, cdiag_abs2, c: Support) -> float:
    """Var[C] against the probe from the matrix elements of C in its eigenbasis."""
    mean = math.fsum((p * cdiag).tolist())
    second_moment = math.fsum((p * cdiag_abs2).tolist() + (p[c.rows] * c.values).tolist())
    return second_moment - mean * mean


def _general_sum(p, var_i, h: Support) -> float:
    first = _eigenstate_sum(p, var_i)
    pi, pj = p[h.rows], p[h.cols]
    pair_sum = pi + pj
    mask = pair_sum >= SUPPORT_TOL
    second = math.fsum((8.0 * (pi * pj)[mask] / pair_sum[mask] * h.values[mask]).tolist())
    return _clamped(first - second, "general-route QFI")


def _sld_sum(p, h: Support) -> float:
    pi, pj = p[h.rows], p[h.cols]
    pair_sum = pi + pj
    mask = pair_sum >= SUPPORT_TOL
    terms = 2.0 * ((pi - pj) ** 2)[mask] / pair_sum[mask] * h.values[mask]
    return _clamped(math.fsum(terms.tolist()), "SLD-route QFI")


def _thermal_sum(beta, p, c: Support, delta, var_c) -> float:
    """delta holds the probe level differences at the entries of c."""
    weight = 1.0 - tanhc(0.5 * beta * delta) ** 2
    second = math.fsum((p[c.rows] * weight * c.values).tolist())
    return _clamped(beta * beta * (var_c - second), "thermal-route QFI")


def qfi_general(probe, h) -> float:
    """Mixed-state dynamic QFI from the probe spectrum.

    F = sum_i 4 p_i Var[h]_i - sum_{i != j} 8 p_i p_j / (p_i + p_j) |h_ij|^2
    in the probe eigenbasis. A uniform spectrum cancels the two sums
    exactly; a pure probe reduces to 4 Var[h] on its support.
    """
    p, v, hm = _probe_parts(probe, h)
    pairs, var_i = _generator_elements(v.conj().T @ hm @ v)
    return _general_sum(p, var_i, pairs)


def qfi_sld(probe, h) -> float:
    """SLD-route QFI: F = sum_{i,j} 2 (p_i - p_j)^2 / (p_i + p_j) |h_ij|^2."""
    p, v, hm = _probe_parts(probe, h)
    pairs, _ = _generator_elements(v.conj().T @ hm @ v)
    return _sld_sum(p, pairs)


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
    pairs, cdiag, cdiag_abs2 = _commutator_elements(v.conj().T @ comm @ v)
    p = rho0.probabilities
    energies = rho0.eigenvalues
    delta = energies[pairs.rows] - energies[pairs.cols]
    return _thermal_sum(rho0.beta, p, pairs, delta, _variance_sum(p, cdiag, cdiag_abs2, pairs))


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
    """

    decomposition: SpectralDecomposition
    generator: np.ndarray
    h_pairs: Support
    var_i: np.ndarray
    c_pairs: Support
    c_delta: np.ndarray
    cdiag: np.ndarray
    cdiag_abs2: np.ndarray
    noncommutativity: float

    def commutator_variance(self, p) -> float:
        return _variance_sum(p, self.cdiag, self.cdiag_abs2, self.c_pairs)

    def convexity_sum(self, p) -> float:
        return _eigenstate_sum(p, self.var_i)

    def qfi_report(self, rho0: GibbsState, var_c: float | None = None) -> QfiReport:
        """The three routes at the probe's temperature; var_c may be passed
        in when the caller already holds commutator_variance(p)."""
        p = rho0.probabilities
        if var_c is None:
            var_c = self.commutator_variance(p)
        f_general = _general_sum(p, self.var_i, self.h_pairs)
        f_thermal = _thermal_sum(rho0.beta, p, self.c_pairs, self.c_delta, var_c)
        f_sld = _sld_sum(p, self.h_pairs)
        return QfiReport(
            f_general=f_general,
            f_thermal=f_thermal,
            f_sld=f_sld,
            max_pairwise_rel_diff=_relative_spread(f_general, f_thermal, f_sld),
            pure_state_flag=rho0.effectively_pure,
            plan=self,
            probe=rho0,
            commutator_variance=var_c,
        )


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
        decomposition,
        hm,
        decomposition.to_eigenbasis(hm),
        decomposition.to_eigenbasis(comm),
        seminorm(comm, validated=True),
    )


def plan_from_eigenbasis(
    decomposition: SpectralDecomposition, hm: np.ndarray, h_eig: np.ndarray, c_eig: np.ndarray, noncommutativity: float
) -> SpectralPlan:
    """The plan from the validated generator hm, hm and C = i[H, hm] in the
    probe eigenbasis (h_eig, c_eig) and ||C||: spectral_plan forms these
    for one generator, a caller holding them for a stack of scenarios
    passes one slice of each."""
    h_pairs, var_i = _generator_elements(h_eig)
    c_pairs, cdiag, cdiag_abs2 = _commutator_elements(c_eig)
    energies = decomposition.eigenvalues
    return SpectralPlan(
        decomposition=decomposition,
        generator=hm,
        h_pairs=h_pairs,
        var_i=var_i,
        c_pairs=c_pairs,
        c_delta=energies[c_pairs.rows] - energies[c_pairs.cols],
        cdiag=cdiag,
        cdiag_abs2=cdiag_abs2,
        noncommutativity=noncommutativity,
    )


@dataclass(frozen=True)
class QfiReport:
    """The three route values and their agreement certificate.

    max_pairwise_rel_diff is the largest pairwise route difference over
    the largest |F| (see _relative_spread). plan is the SpectralPlan the
    values came from, probe the state they were evaluated at and
    commutator_variance the Var[C] summed on the way, kept so bound_report
    can reuse both for the same probe and generator.
    """

    f_general: float
    f_thermal: float
    f_sld: float
    max_pairwise_rel_diff: float
    pure_state_flag: bool
    plan: SpectralPlan | None = field(default=None, repr=False, compare=False)
    probe: GibbsState | None = field(default=None, repr=False, compare=False)
    commutator_variance: float | None = field(default=None, repr=False, compare=False)


def qfi_report(rho0: GibbsState, h) -> QfiReport:
    _require_gibbs(rho0)
    return spectral_plan(rho0.decomposition, h).qfi_report(rho0)
