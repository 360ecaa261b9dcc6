"""Scenario builders for the three reference encodings.

Every model uses the thermal J_z probe exp(-beta J_z)/Z. The linear and
twisting schemes carry explicit generators; the collective-spin family
H(lambda) = J_x^2 + lambda J_z goes through the spectral-kernel route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    linear_qfi_closed,
    linear_variance_closed,
    oat_qfi_closed,
    oat_variance_closed,
)
from .encoding import (
    EncodingScheme,
    ExplicitGenerator,
    HamiltonianFamily,
    transformed_generator,
)
from . import operators
from .operators import Hermitian, _blocks, _diagonal, _symmetrize
from .spin import banded_jz_jx_squared, check_twice_j, spin_operator_forms, spin_operators
from .thermal import GibbsState, gibbs_state

MODELS = ("linear", "oat", "lmg")
AXES = ("x", "y", "z")


def check_options(model: str, axis=None, lam=None) -> tuple[str, float | None]:
    """The checked (axis, lambda) of a model's options, None meaning absent:
    the axis applies to the linear model only, x by default; lambda is
    required by the lmg model, a finite number, and valid only there. A
    mistake raises ValueError, worded the same for every front end."""
    if axis is not None and model != "linear":
        raise ValueError("axis: only valid for the linear model")
    axis = "x" if axis is None else axis
    if axis not in AXES:
        raise ValueError(f"axis: must be one of {AXES}, got {axis!r}")
    if model != "lmg":
        if lam is not None:
            raise ValueError("lambda: only valid for the lmg model")
        return axis, None
    if isinstance(lam, bool) or not isinstance(lam, (int, float)):
        raise ValueError("lambda: required (a number) for the lmg model")
    if not math.isfinite(lam):
        raise ValueError("lambda: must be a finite number")
    return axis, float(lam)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully specified probe plus encoding, ready for QFI and bound evaluation."""

    model: str
    twice_j: int
    beta: float
    t: float
    axis: str | None
    lam: float | None
    probe: GibbsState
    scheme: object
    h: Hermitian


def _jz_jx_squared(twice_j) -> tuple[Hermitian, Hermitian]:
    """(J_z, J_x^2) for the twisting and collective-spin models: the dense
    product of J_x up to operators.DENSE_MAX_DIM, whose bits the figure
    and verify outputs pin, and the bands above it. At 2J = 1,
    J_x^2 = 1/4 is diagonal."""
    if check_twice_j(twice_j) + 1 > operators.DENSE_MAX_DIM:
        return banded_jz_jx_squared(twice_j)
    jx, _, jz = spin_operators(twice_j)
    jx2 = _symmetrize(jx @ jx)
    square = _diagonal(np.diagonal(jx2)) if twice_j == 1 else _blocks(jx2)
    return _diagonal(np.diagonal(jz).real), square


def lmg_hamiltonian(twice_j, lam: float) -> Hermitian:
    """Collective-spin encoding Hamiltonian J_x^2 + lambda J_z, as an
    operator record (in parity blocks above operators.DENSE_MAX_DIM)."""
    jz, jx2 = _jz_jx_squared(twice_j)
    return jx2 + float(lam) * jz


def model_encoding(model: str, twice_j, t, axis: str = "x", lam=None) -> tuple[Hermitian, EncodingScheme]:
    """(probe Hamiltonian J_z, encoding scheme at time t) for a reference model."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if model == "linear" and axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if model == "lmg" and lam is None:
        raise ValueError("the lmg model requires lambda")
    if model == "linear":
        jx, jy, jz = spin_operator_forms(twice_j)
        return jz, ExplicitGenerator({"x": jx, "y": jy, "z": jz}[axis], t)
    jz, jx2 = _jz_jx_squared(twice_j)
    if model == "oat":
        return jz, ExplicitGenerator(jx2, t)
    family = HamiltonianFamily(
        hamiltonian=lambda value: jx2 + value * jz,
        dh_dlambda=jz,
        lam=float(lam),
        t=float(t),
    )
    return jz, family


def build_scenario(model: str, twice_j, beta, t, axis: str = "x", lam=None) -> Scenario:
    jz, scheme = model_encoding(model, twice_j, t, axis=axis, lam=lam)
    return Scenario(
        model=model,
        twice_j=check_twice_j(twice_j),
        beta=float(beta),
        t=float(t),
        axis=axis if model == "linear" else None,
        lam=float(lam) if model == "lmg" else None,
        probe=gibbs_state(jz, beta),
        scheme=scheme,
        h=transformed_generator(scheme),
    )


def closed_forms_for(model: str, axis: str | None):
    """The (QFI, variance bound) closed forms, as functions of (2J, beta, t),
    where they exist: the linear model along x, and the twisting model.
    None elsewhere."""
    if model == "linear" and axis == "x":
        return linear_qfi_closed, linear_variance_closed
    if model == "oat":
        return oat_qfi_closed, oat_variance_closed
    return None


def _closed(scenario: Scenario, which: int) -> float | None:
    forms = closed_forms_for(scenario.model, scenario.axis)
    return None if forms is None else forms[which](scenario.twice_j, scenario.beta, scenario.t)


def closed_qfi(scenario: Scenario) -> float | None:
    """Analytic QFI where one exists (see closed_forms_for)."""
    return _closed(scenario, 0)


def closed_variance(scenario: Scenario) -> float | None:
    """Analytic variance bound where one exists (same coverage as closed_qfi)."""
    return _closed(scenario, 1)
