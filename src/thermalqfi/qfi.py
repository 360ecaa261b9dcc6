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
a temperature sweep evaluates each beta as a few O(n^2) weighted sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _generator_elements(ht):
    """|h_ij|^2 and the eigenstate variances Var_i[h] from h in the probe eigenbasis."""
    habs2 = np.abs(ht) ** 2
    var_i = habs2.sum(axis=1) - np.real(np.diag(ht)) ** 2
    return habs2, var_i


def _commutator_elements(ct):
    """|C_ij|^2 and the diagonal C_ii from C in the probe eigenbasis."""
    return np.abs(ct) ** 2, np.real(np.diag(ct))


def _eigenstate_sum(p, var_i) -> float:
    """sum_i 4 p_i Var[h]_i, the convexity bound and the general route's first term."""
    return math.fsum((4.0 * p * var_i).tolist())


def _variance_sum(p, cdiag, cabs2) -> float:
    """Var[C] against the probe from the matrix elements of C in its eigenbasis."""
    mean = math.fsum((p * cdiag).tolist())
    second_moment = math.fsum((p[:, None] * cabs2).ravel().tolist())
    return second_moment - mean * mean


def _general_sum(p, var_i, habs2) -> float:
    first = _eigenstate_sum(p, var_i)
    pair_sum = p[:, None] + p[None, :]
    mask = pair_sum >= SUPPORT_TOL
    np.fill_diagonal(mask, False)
    coeff = np.zeros_like(pair_sum)
    coeff[mask] = 8.0 * (p[:, None] * p[None, :])[mask] / pair_sum[mask]
    second = math.fsum((coeff * habs2)[mask].tolist())
    return _clamped(first - second, "general-route QFI")


def _sld_sum(p, habs2) -> float:
    pair_sum = p[:, None] + p[None, :]
    diff2 = (p[:, None] - p[None, :]) ** 2
    mask = pair_sum >= SUPPORT_TOL
    terms = np.zeros_like(pair_sum)
    terms[mask] = 2.0 * diff2[mask] / pair_sum[mask] * habs2[mask]
    return _clamped(math.fsum(terms[mask].tolist()), "SLD-route QFI")


def _thermal_sum(beta, p, delta, cabs2, var_c) -> float:
    weight = 1.0 - tanhc(0.5 * beta * delta) ** 2
    terms = p[:, None] * weight * cabs2
    np.fill_diagonal(terms, 0.0)
    second = math.fsum(terms.ravel().tolist())
    return _clamped(beta * beta * (var_c - second), "thermal-route QFI")


def qfi_general(probe, h) -> float:
    """Mixed-state dynamic QFI from the probe spectrum.

    F = sum_i 4 p_i Var[h]_i - sum_{i != j} 8 p_i p_j / (p_i + p_j) |h_ij|^2
    in the probe eigenbasis. A uniform spectrum cancels the two sums
    exactly; a pure probe reduces to 4 Var[h] on its support.
    """
    p, v, hm = _probe_parts(probe, h)
    habs2, var_i = _generator_elements(v.conj().T @ hm @ v)
    return _general_sum(p, var_i, habs2)


def qfi_sld(probe, h) -> float:
    """SLD-route QFI: F = sum_{i,j} 2 (p_i - p_j)^2 / (p_i + p_j) |h_ij|^2."""
    p, v, hm = _probe_parts(probe, h)
    habs2, _ = _generator_elements(v.conj().T @ hm @ v)
    return _sld_sum(p, habs2)


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
    cabs2, cdiag = _commutator_elements(v.conj().T @ comm @ v)
    p = rho0.probabilities
    energies = rho0.eigenvalues
    delta = energies[:, None] - energies[None, :]
    return _thermal_sum(rho0.beta, p, delta, cabs2, _variance_sum(p, cdiag, cabs2))


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Everything the routes and bounds need that does not depend on beta.

    Built once per (probe Hamiltonian, generator): the real |h_ij|^2,
    Var_i[h], |C_ij|^2 and C_ii of h and C = i[H, h] in the probe
    eigenbasis, the probe level differences and ||C||. Each temperature is
    then a handful of O(n^2) weighted sums. generator is the matrix the
    plan was built from; bound_report reuses a report's plan only for
    that same matrix.
    """

    decomposition: SpectralDecomposition
    generator: np.ndarray
    delta: np.ndarray
    habs2: np.ndarray
    var_i: np.ndarray
    cabs2: np.ndarray
    cdiag: np.ndarray
    noncommutativity: float

    def commutator_variance(self, p) -> float:
        return _variance_sum(p, self.cdiag, self.cabs2)

    def convexity_sum(self, p) -> float:
        return _eigenstate_sum(p, self.var_i)

    def qfi_report(self, rho0: GibbsState, var_c: float | None = None) -> QfiReport:
        """The three routes at the probe's temperature; var_c may be passed
        in when the caller already holds commutator_variance(p)."""
        p = rho0.probabilities
        if var_c is None:
            var_c = self.commutator_variance(p)
        f_general = _general_sum(p, self.var_i, self.habs2)
        f_thermal = _thermal_sum(rho0.beta, p, self.delta, self.cabs2, var_c)
        f_sld = _sld_sum(p, self.habs2)
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


def spectral_plan(hamiltonian, decomposition: SpectralDecomposition, h) -> SpectralPlan:
    """Build the beta-independent plan for probe Hamiltonian H (with its
    eigendecomposition) and generator h. The complex intermediates (the
    commutator and both basis changes) are dropped once reduced.

    Each matrix is scanned for Hermiticity at most once: h here, H only
    when it is not the matrix the decomposition was built (and validated)
    from, and C not at all, since commutator_i returns 0.5 (X + X^dagger),
    which is exactly Hermitian in floating point.
    """
    hm = require_hermitian(as_operator(h), "generator")
    dim = decomposition.source_dim
    if hm.shape[0] != dim:
        raise ValueError(f"dimension mismatch: generator dim {hm.shape[0]}, probe dim {dim}")
    if hamiltonian is not decomposition.source:
        hamiltonian = require_hermitian(hamiltonian, "commutator argument A")
    habs2, var_i = _generator_elements(decomposition.to_eigenbasis(hm))
    comm = commutator_i(hamiltonian, hm, validated=True)
    cabs2, cdiag = _commutator_elements(decomposition.to_eigenbasis(comm))
    energies = decomposition.eigenvalues
    return SpectralPlan(
        decomposition=decomposition,
        generator=hm,
        delta=energies[:, None] - energies[None, :],
        habs2=habs2,
        var_i=var_i,
        cabs2=cabs2,
        cdiag=cdiag,
        noncommutativity=seminorm(comm, validated=True),
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
    return spectral_plan(rho0.hamiltonian, rho0.decomposition, h).qfi_report(rho0)
