"""Configuration-driven grid sweeps with deterministic CSV/JSON emission.

A sweep config names a model, a spin, one temperature grid (beta or
polarization) and a time grid, and lists the quantities to emit. Rows come
out ordered lexicographically by (t, beta).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

from .bounds import bound_rows, bound_scales
from .encoding import generator_family
from .models import AXES, MODELS, closed_forms_for, model_encoding
from .operators import eigendecompose
from .qfi import route_sums, spectral_plan
from .spin import check_twice_j
from .thermal import beta_from_polarization, boltzmann_weights, polarization


def _float_cell(value: float | None) -> str:
    """17 significant digits, enough to round-trip any double; empty for None."""
    return "" if value is None else f"{value:.17g}"


def _bool_cell(value: bool) -> str:
    return "true" if value else "false"


def _column(cell, gate: str | None = None, name: str | None = None):
    """A SweepRow field: its CSV cell formatter, the output key that gates it
    (None: always emitted) and its column name where it differs from the
    attribute."""
    return field(metadata={"cell": cell, "gate": gate, "column": name})


@dataclass(frozen=True)
class SweepRow:
    """One sweep point and the only spelling of the row schema: the field
    order is the CSV column and JSON key order, and each field's metadata
    names its column, its cell formatter and the output key gating it."""

    model: str = _column(str)
    j: float = _column(_float_cell, name="J")
    beta: float = _column(_float_cell)
    p: float = _column(_float_cell, name="P")
    t: float = _column(_float_cell)
    lam: float | None = _column(_float_cell, name="lambda")
    f_general: float | None = _column(_float_cell, "qfi_general")
    f_thermal: float | None = _column(_float_cell, "qfi_thermal")
    f_sld: float | None = _column(_float_cell, "qfi_sld")
    variance_bound: float | None = _column(_float_cell, "variance_bound")
    seminorm_bound: float | None = _column(_float_cell, "seminorm_bound")
    product_bound: float | None = _column(_float_cell, "product_bound")
    convexity_bound: float | None = _column(_float_cell, "gap_bounds")
    gap_variance_bound: float | None = _column(_float_cell, "gap_bounds")
    gap_seminorm_bound: float | None = _column(_float_cell, "gap_bounds")
    closed_qfi: float | None = _column(_float_cell, "closed_forms")
    closed_variance: float | None = _column(_float_cell, "closed_forms")
    ordering_ok: bool = _column(_bool_cell)


CSV_COLUMNS = tuple(f.metadata["column"] or f.name for f in fields(SweepRow))
_CELLS = tuple(f.metadata["cell"] for f in fields(SweepRow))
_field_values = attrgetter(*(f.name for f in fields(SweepRow)))
# the valid `outputs` keys, in the order of the first column each one gates
OUTPUT_KEYS = tuple(dict.fromkeys(f.metadata["gate"] for f in fields(SweepRow) if f.metadata["gate"]))


class ConfigError(ValueError):
    """Invalid sweep configuration; the message names the offending field."""


@dataclass(frozen=True)
class SweepConfig:
    model: str
    twice_j: int
    t_grid: tuple[float, ...]
    beta_grid: tuple[float, ...] | None = None
    p_grid: tuple[float, ...] | None = None
    axis: str = "x"
    lam: float | None = None
    outputs: tuple[str, ...] = OUTPUT_KEYS
    output_path: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        for key in raw:
            if key not in _KNOWN_FIELDS:
                raise ConfigError(f"unknown config field {key!r}")

        model = raw.get("model")
        if model not in MODELS:
            raise ConfigError(f"model: must be one of {MODELS}, got {model!r}")

        try:
            twice_j = check_twice_j(raw.get("twice_j"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

        has_beta = "beta_grid" in raw
        has_p = "p_grid" in raw
        if has_beta == has_p:
            raise ConfigError("beta_grid/p_grid: exactly one of the two must be present")
        beta_grid = _check_grid("beta_grid", raw["beta_grid"], low=0.0) if has_beta else None
        p_grid = _check_grid("p_grid", raw["p_grid"], low=0.0, high=1.0, strict_high=True) if has_p else None

        if "t_grid" not in raw:
            raise ConfigError("t_grid: required")
        t_grid = _check_grid("t_grid", raw["t_grid"], low=0.0)

        axis = raw.get("axis", "x")
        if "axis" in raw and model != "linear":
            raise ConfigError("axis: only valid for the linear model")
        if axis not in AXES:
            raise ConfigError(f"axis: must be one of {AXES}, got {axis!r}")

        lam = raw.get("lambda")
        if model == "lmg":
            if isinstance(lam, bool) or not isinstance(lam, (int, float)):
                raise ConfigError("lambda: required (a number) for the lmg model")
            if not math.isfinite(lam):
                raise ConfigError("lambda: must be a finite number")
            lam = float(lam)
        elif lam is not None:
            raise ConfigError("lambda: only valid for the lmg model")

        defined = [k for k in OUTPUT_KEYS if k != "closed_forms" or closed_forms_for(model, axis)]
        outputs = raw.get("outputs", defined)  # by default every output the model defines
        if not isinstance(outputs, (list, tuple)) or len(outputs) == 0:
            raise ConfigError("outputs: must be a nonempty list")
        for i, key in enumerate(outputs):
            if key not in OUTPUT_KEYS:
                raise ConfigError(f"outputs[{i}]: unknown output {key!r}")
        if "closed_forms" in outputs and closed_forms_for(model, axis) is None:
            raise ConfigError(
                "outputs: closed_forms is only defined for the oat model and the linear model along x"
            )

        output_path = raw.get("output_path")
        if output_path is not None and not isinstance(output_path, str):
            raise ConfigError("output_path: must be a string")

        return cls(
            model=model,
            twice_j=twice_j,
            t_grid=t_grid,
            beta_grid=beta_grid,
            p_grid=p_grid,
            axis=axis,
            lam=lam,
            outputs=tuple(outputs),
            output_path=output_path,
        )


_KNOWN_FIELDS = {
    "model",
    "twice_j",
    "axis",
    "lambda",
    "beta_grid",
    "p_grid",
    "t_grid",
    "outputs",
    "output_path",
    "metadata",
}


def _check_grid(name: str, values, low=None, high=None, strict_high=False) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or len(values) == 0:
        raise ConfigError(f"{name}: must be a nonempty list of numbers")
    grid = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)):
            raise ConfigError(f"{name}[{i}]: must be a finite number, got {v!r}")
        v = float(v)
        if low is not None and v < low:
            raise ConfigError(f"{name}[{i}]: must be >= {low}, got {v}")
        if high is not None and (v >= high if strict_high else v > high):
            bound = f"< {high}" if strict_high else f"<= {high}"
            raise ConfigError(f"{name}[{i}]: must be {bound}, got {v}")
        if grid and v <= grid[-1]:
            raise ConfigError(f"{name}[{i}]: grid values must be strictly increasing")
        grid.append(v)
    return tuple(grid)


def load_config(path) -> SweepConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return SweepConfig.from_dict(raw)


def _gated_off(outputs) -> dict:
    """None for every gated field whose output key is not requested."""
    gates = {f.name: f.metadata["gate"] for f in fields(SweepRow)}
    return {name: None for name, gate in gates.items() if gate is not None and gate not in outputs}


def _row(config: SweepConfig, gated_off: dict, closed_forms, t: float, beta: float, routes, bounds) -> SweepRow:
    f_general, f_thermal, f_sld = routes
    closed_q = closed_v = None
    if closed_forms is not None:
        closed_q = closed_forms[0](config.twice_j, beta, t)
        closed_v = closed_forms[1](config.twice_j, beta, t)
    values = {
        "model": config.model,
        "j": config.twice_j / 2.0,
        "beta": beta,
        "p": polarization(beta),
        "t": t,
        "lam": config.lam,
        "f_general": f_general,
        "f_thermal": f_thermal,
        "f_sld": f_sld,
        "variance_bound": bounds.variance_bound,
        "seminorm_bound": bounds.seminorm_bound,
        "product_bound": bounds.product_bound,
        "convexity_bound": bounds.convexity_bound,
        "gap_variance_bound": bounds.gap_variance_bound,
        "gap_seminorm_bound": bounds.gap_seminorm_bound,
        "closed_qfi": closed_q,
        "closed_variance": closed_v,
        "ordering_ok": bounds.ordering_ok,
    }
    values.update(gated_off)
    return SweepRow(**values)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every grid point; rows ordered lexicographically by (t, beta).

    Factor once, sweep many: the probe eigendecomposition, the Gibbs
    weights of every beta, ||H||, the gap, ||dH/dlambda|| and (for lmg)
    the eigendecomposition of H(lambda) are built once per sweep, and the
    generator and its SpectralPlan once per t. Every beta of one t is then
    one route_sums and one bound_rows call over that plan.
    """
    if config.beta_grid is not None:
        betas = list(config.beta_grid)
    else:
        betas = [beta_from_polarization(p) for p in config.p_grid]
    probe_h, scheme = model_encoding(
        config.model, config.twice_j, config.t_grid[0], axis=config.axis, lam=config.lam
    )
    decomposition = eigendecompose(probe_h, "Hamiltonian")
    scales = bound_scales(decomposition, scheme)
    generator = generator_family(scheme)
    del scheme  # the lmg family's closure holds J_x^2; only its spectrum is needed from here on
    closed_forms = closed_forms_for(config.model, config.axis) if "closed_forms" in config.outputs else None
    gated_off = _gated_off(config.outputs)
    weights = boltzmann_weights(decomposition.eigenvalues, betas)
    betas = weights.betas
    rows = []
    for t in config.t_grid:
        plan = spectral_plan(decomposition, generator(t))
        sums = route_sums(plan, weights.probabilities, betas)
        bounds = bound_rows(plan, sums, betas, t, scales)
        routes = zip(sums.f_general, sums.f_thermal, sums.f_sld)
        for beta, point, chain in zip(betas, routes, bounds):
            rows.append(_row(config, gated_off, closed_forms, t, beta, point, chain))
    return rows


def render_csv(rows: list[SweepRow]) -> str:
    if not rows:
        raise ValueError("no rows to emit")
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join([cell(value) for cell, value in zip(_CELLS, _field_values(row))]) for row in rows)
    return "\n".join(lines) + "\n"


def rows_as_dicts(rows: list[SweepRow]) -> list[dict]:
    return [dict(zip(CSV_COLUMNS, _field_values(row))) for row in rows]


def render_json(rows: list[SweepRow]) -> str:
    if not rows:
        raise ValueError("no rows to emit")
    return json.dumps(rows_as_dicts(rows), indent=2) + "\n"


def _write(text: str, path, kind: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {kind} to {path}: {exc}") from exc


def emit_csv(rows: list[SweepRow], path) -> None:
    """UTF-8, LF line endings, absent quantities as empty fields."""
    _write(render_csv(rows), path, "CSV")


def emit_json(rows: list[SweepRow], path) -> None:
    _write(render_json(rows), path, "JSON")


def figure_configs() -> dict[str, dict]:
    """The four canonical sweep configs behind the reference figures.

    The spin (J = 5) and the fig-2 evolution time (t = 1) are artifact
    defaults, recorded in each config's metadata; the source curves do not
    pin them.
    """
    p_grid = [round(0.05 * k, 12) for k in range(1, 20)]
    fig2_note = "J = 5 and t = 1 are artifact defaults; curve shapes, not point values, are the target"
    fig3_note = "J = 5 and lambda = 1 are artifact defaults; curve shapes, not point values, are the target"
    return {
        "fig2a": {
            "model": "oat",
            "twice_j": 10,
            "p_grid": p_grid,
            "t_grid": [1.0],
            "outputs": list(OUTPUT_KEYS),
            "output_path": "fig2a.csv",
            "metadata": {"figure": "2a", "note": fig2_note},
        },
        "fig2b": {
            "model": "linear",
            "twice_j": 10,
            "axis": "x",
            "p_grid": p_grid,
            "t_grid": [1.0],
            "outputs": list(OUTPUT_KEYS),
            "output_path": "fig2b.csv",
            "metadata": {"figure": "2b", "note": fig2_note},
        },
        "fig3a": {
            "model": "lmg",
            "twice_j": 10,
            "lambda": 1.0,
            "beta_grid": [1.1],
            "t_grid": [round(0.1 * k, 12) for k in range(64)],
            "outputs": [k for k in OUTPUT_KEYS if k != "closed_forms"],
            "output_path": "fig3a.csv",
            "metadata": {"figure": "3a", "note": fig3_note},
        },
        "fig3b": {
            "model": "lmg",
            "twice_j": 10,
            "lambda": 1.0,
            "beta_grid": [round(0.05 * k, 12) for k in range(1, 101)],
            "t_grid": [3.14],
            "outputs": [k for k in OUTPUT_KEYS if k != "closed_forms"],
            "output_path": "fig3b.csv",
            "metadata": {"figure": "3b", "note": fig3_note},
        },
    }
