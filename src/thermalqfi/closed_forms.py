"""Closed-form reference values for the linear and one-axis-twisting models.

These are the analytic halves of the dual-route checks: each function must
match the dense-matrix pipeline at 1e-8 relative on the standard grids,
and the test suite enforces exactly that. Hyperbolic products with
arguments of order beta*J are evaluated through log-sinh differences, so
the expressions stay finite far beyond the naive overflow point.

Each variance bound and the twisting QFI keeps that evaluation while
every intermediate of it is a normal float, where its error stays far
inside the 1e-8 contract (at most 3e-13 relative, measured up to
beta = 1400), so those values keep their bits. Past that point (beta
above 355 for every 2J up to the cap) it switches to bounded factors
(sech b, tanh b, 1 - exp(-2x)), finite at every beta, whose one
subtraction cancels by a factor of at most 10.
"""

from __future__ import annotations

import math
import sys

from .spin import spin_value

_LOG2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)
# where the original oat variance form leaves the normal range:
# csch^4(b/2) ~ 16 exp(-2b) falls below the smallest normal float
_OAT_VARIANCE_SWITCH = 0.5 * (math.log(16.0) - math.log(sys.float_info.min))
# relative margin that keeps each switch-over clear of the rounding of
# the exact overflow point
_SWITCH_MARGIN = 1.0 - 1e-12


def coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def _sech(x: float) -> float:
    # x >= 0; 2 e^-x / (1 + e^-2x) never overflows
    e = math.exp(-x)
    return 2.0 * e / (1.0 + e * e)


def _one_minus_exp2(x: float) -> float:
    # 1 - exp(-2x) = 2 exp(-x) sinh(x), in (0, 1) for x > 0
    return -math.expm1(-2.0 * x)


def _spin_beta(twice_j, beta) -> tuple[float, float]:
    """(J, beta) as floats, for a valid 2J and beta >= 0."""
    j, beta = spin_value(twice_j), float(beta)
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    return j, beta


def _log_sinh(x: float) -> float:
    # x > 0; for large x, sinh(x) = e^x (1 - e^{-2x}) / 2
    if x > 20.0:
        return x - _LOG2 + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x))


def linear_qfi_closed(twice_j, beta: float, t: float) -> float:
    """Exact QFI of the linear scheme U = exp(-i t lambda J_x) on the J_z probe:

        F = 2 t^2 tanh(b/2) [ (J+1/2) coth(b(J+1/2)) - coth(b/2)/2 ].

    Vanishes like t^2 b^2 J(J+1)/3 at high temperature and saturates at
    2J t^2 (standard quantum limit) as beta grows.
    """
    j, beta = _spin_beta(twice_j, beta)
    if beta == 0.0:
        return 0.0
    jp = j + 0.5
    return 2.0 * t * t * math.tanh(0.5 * beta) * (jp * coth(beta * jp) - 0.5 * coth(0.5 * beta))


def linear_variance_closed(twice_j, beta: float, t: float) -> float:
    """Variance bound beta^2 t^2 Var[J_y] of the linear scheme in closed form.

    Equals beta^2 t^2 (J(J+1) - Z2/Z)/2; evaluated through sinh ratios so
    beta*J far past the float overflow point is still fine. The t^2 factor
    is explicit here, matching h = t J_x.
    """
    j, beta = _spin_beta(twice_j, beta)
    if beta == 0.0 or t == 0.0:
        return 0.0
    if beta > 2.0 * (_LOG_MAX - math.log(max(j, 1.0))) * _SWITCH_MARGIN:
        # past here j exp(b/2) in the bracket overflows; with exp(-b/2)
        # pulled in, prefactor * bracket =
        # -4 s(b)/s(b/2)^3 [j s(b(J+1)) - (J+1) e^-b s(bJ)] / s(b(J+1/2)),
        # s(x) = 1 - exp(-2x), whose subtraction cancels by at most 1/(1 - 2e^-b)
        s = _one_minus_exp2
        bracket = j * s(beta * (j + 1.0)) - (j + 1.0) * math.exp(-beta) * s(beta * j)
        return 0.5 * beta * beta * t * t * s(beta) / s(0.5 * beta) ** 3 * bracket / s(beta * (j + 0.5))
    mid = _log_sinh(beta * (j + 0.5))
    bracket = (j + 1.0) * math.exp(_log_sinh(beta * j) - mid) - j * math.exp(
        _log_sinh(beta * (j + 1.0)) - mid
    )
    prefactor = math.exp(_log_sinh(beta) - 3.0 * _log_sinh(0.5 * beta))
    return -0.125 * beta * beta * t * t * prefactor * bracket


def oat_eta(twice_j, beta: float) -> float:
    """The spectral factor shared by the twisting QFI and its variance bound.

    Written through sinh-addition identities as

        eta = (4J(J+1)+3) (cosh b - 1) + 6 (1 - (J+1/2) coth(b(J+1/2)) sinh b),

    which is algebraically identical to the csch/sinh pair form but free of
    the O(J^2)-sized cancellations and of any exp(beta*J) overflow. It
    vanishes like b^4 at high temperature.
    """
    j = spin_value(twice_j)
    beta = float(beta)
    jp = j + 0.5
    q = 4.0 * j * (j + 1.0) + 3.0
    grow = 2.0 * math.sinh(0.5 * beta) ** 2  # cosh(b) - 1 without cancellation
    pull = 1.0 - jp * coth(beta * jp) * math.sinh(beta)
    return q * grow + 6.0 * pull


def _oat_sech_eta(twice_j, beta: float) -> float:
    """sech(b) eta in bounded factors,

        q (1 - sech b) + 6 (sech b - (J+1/2) coth(b(J+1/2)) tanh b),

    with q = 4J(J+1) + 3; it tends to 2J(2J-1). The subtraction cancels
    by at most (q + 6J + 3)/(q - 6J - 3) <= 10 for J >= 1 and b > 1."""
    j = spin_value(twice_j)
    jp = j + 0.5
    q = 4.0 * j * (j + 1.0) + 3.0
    sech = _sech(beta)
    return q * (1.0 - sech) + 6.0 * (sech - jp * coth(beta * jp) * math.tanh(beta))


def _oat_large_beta(twice_j, beta: float) -> bool:
    """Whether q (cosh b - 1) ~ q e^b / 2, the largest intermediate of
    oat_eta, would overflow (beta above about 695 at 2J = 2000, 705 at
    2J = 10)."""
    j = spin_value(twice_j)
    return beta > (_LOG_MAX - math.log(2.0 * j * (j + 1.0) + 1.5)) * _SWITCH_MARGIN


def oat_qfi_closed(twice_j, beta: float, t: float) -> float:
    """Exact QFI of the twisting scheme U = exp(-i lambda J_x^2 t):

        F = (t^2/2) coth^2(b/2) sech(b) eta.

    Identically zero at J = 1/2 (J_x^2 is proportional to the identity),
    and exhibits an interior-temperature maximum for J >= 1. Where eta
    itself would overflow it is evaluated as
    (t^2/2) (1 + sech b)/(1 - sech b) [sech(b) eta], which tends to
    t^2 J (2J - 1).
    """
    _, beta = _spin_beta(twice_j, beta)
    if twice_j == 1 or beta == 0.0:
        return 0.0
    if _oat_large_beta(twice_j, beta):
        sech = _sech(beta)
        return 0.5 * t * t * (1.0 + sech) / (1.0 - sech) * _oat_sech_eta(twice_j, beta)
    return (
        0.5 * t * t * coth(0.5 * beta) ** 2 / math.cosh(beta) * oat_eta(twice_j, beta)
    )


def oat_variance_closed(twice_j, beta: float, t: float) -> float:
    """Variance bound of the twisting scheme in closed form:

        beta^2 Var[i[H, h]] = (1/8) beta^2 t^2 cosh(b) csch^4(b/2) eta,

    with the t^2 factor explicit (h = t J_x^2). Where csch^4(b/2) would
    leave the normal range it is evaluated as
    (1/2) beta^2 t^2 [sech(b) eta] / (1 - sech b)^2, which tends to
    beta^2 t^2 J (2J - 1)."""
    _, beta = _spin_beta(twice_j, beta)
    if twice_j == 1 or beta == 0.0:
        return 0.0
    if beta > _OAT_VARIANCE_SWITCH:
        return 0.5 * beta * beta * t * t * _oat_sech_eta(twice_j, beta) / (1.0 - _sech(beta)) ** 2
    csch_half = 1.0 / math.sinh(0.5 * beta)
    return 0.125 * beta * beta * t * t * math.cosh(beta) * csch_half**4 * oat_eta(twice_j, beta)


def oat_seminorm_semiclassical(twice_j) -> float:
    """Large-J estimate 2 J^2 of ||J_x J_y + J_y J_x||.

    The exact spectral width never exceeds it and approaches it from below
    as J grows (no fixed convergence rate is claimed).
    """
    j = spin_value(twice_j)
    return 2.0 * j * j


def large_j_linear_approx(twice_j, beta: float, t: float) -> float:
    """Large-spin approximation F ~ t^2 (2J - 2(2J+1)/(1 + e^beta)).

    Intended for J >> 1 and beta of at least order one; it goes negative
    for beta below about 1, where it is simply out of its domain. The t^2
    factor is explicit.
    """
    j = spin_value(twice_j)
    beta = float(beta)
    # 2/(1+e^b) = 2 e^{-b}/(1+e^{-b}) avoids overflow at large beta
    tail = 2.0 * (2.0 * j + 1.0) * math.exp(-beta) / (1.0 + math.exp(-beta))
    return t * t * (2.0 * j - tail)
