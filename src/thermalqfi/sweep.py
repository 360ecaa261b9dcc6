"""Configuration-driven grid sweeps with deterministic CSV/JSON emission.

A sweep config names a model, a spin, one temperature grid (beta or
polarization) and a time grid, and lists the quantities to emit. Rows come
out ordered lexicographically by (t, beta). Sweeps run serially; the
parallelism field is still accepted and validated, and the output is
byte-identical whatever its value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .bounds import bound_scales, evaluate_point
from .encoding import generator_family
from .models import AXES, MODELS, closed_forms_for, model_encoding
from .operators import eigendecompose
from .qfi import spectral_plan
from .spin import check_twice_j
from .thermal import beta_from_polarization, gibbs_from_spectrum, polarization

OUTPUT_KEYS = (
    "qfi_general",
    "qfi_thermal",
    "qfi_sld",
    "variance_bound",
    "seminorm_bound",
    "product_bound",
    "gap_bounds",
    "closed_forms",
)

CSV_COLUMNS = (
    "model",
    "J",
    "beta",
    "P",
    "t",
    "lambda",
    "f_general",
    "f_thermal",
    "f_sld",
    "variance_bound",
    "seminorm_bound",
    "product_bound",
    "convexity_bound",
    "gap_variance_bound",
    "gap_seminorm_bound",
    "closed_qfi",
    "closed_variance",
    "ordering_ok",
)


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
    parallelism: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        return _config_from_dict(raw)

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "twice_j": self.twice_j,
            "t_grid": list(self.t_grid),
            "outputs": list(self.outputs),
            "parallelism": self.parallelism,
        }
        if self.beta_grid is not None:
            out["beta_grid"] = list(self.beta_grid)
        if self.p_grid is not None:
            out["p_grid"] = list(self.p_grid)
        if self.model == "linear":
            out["axis"] = self.axis
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.output_path is not None:
            out["output_path"] = self.output_path
        return out


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
    "parallelism",
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


def _check_parallelism(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"parallelism: must be a positive integer, got {value!r}")
    return value


def _config_from_dict(raw: dict) -> SweepConfig:
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
        lam = float(lam)
    elif lam is not None:
        raise ConfigError("lambda: only valid for the lmg model")

    outputs = raw.get("outputs", list(OUTPUT_KEYS))
    if not isinstance(outputs, (list, tuple)) or len(outputs) == 0:
        raise ConfigError("outputs: must be a nonempty list")
    for i, key in enumerate(outputs):
        if key not in OUTPUT_KEYS:
            raise ConfigError(f"outputs[{i}]: unknown output {key!r}")
    if "closed_forms" in outputs and not (model == "oat" or (model == "linear" and axis == "x")):
        raise ConfigError(
            "outputs: closed_forms is only defined for the oat model and the linear model along x"
        )

    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path: must be a string")

    parallelism = _check_parallelism(raw.get("parallelism", 1))

    return SweepConfig(
        model=model,
        twice_j=twice_j,
        t_grid=t_grid,
        beta_grid=beta_grid,
        p_grid=p_grid,
        axis=axis,
        lam=lam,
        outputs=tuple(outputs),
        output_path=output_path,
        parallelism=parallelism,
    )


def load_config(path) -> SweepConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return SweepConfig.from_dict(raw)


@dataclass(frozen=True)
class SweepRow:
    model: str
    j: float
    beta: float
    p: float
    t: float
    lam: float | None
    f_general: float | None
    f_thermal: float | None
    f_sld: float | None
    variance_bound: float | None
    seminorm_bound: float | None
    product_bound: float | None
    convexity_bound: float | None
    gap_variance_bound: float | None
    gap_seminorm_bound: float | None
    closed_qfi: float | None
    closed_variance: float | None
    ordering_ok: bool


def _row(config: SweepConfig, want: set, closed_forms, t: float, beta: float, report, bounds) -> SweepRow:
    def gate(key, value):
        return value if key in want else None

    closed_q = closed_v = None
    if "closed_forms" in want:
        closed_q = closed_forms[0](config.twice_j, beta, t)
        closed_v = closed_forms[1](config.twice_j, beta, t)
    return SweepRow(
        model=config.model,
        j=config.twice_j / 2.0,
        beta=beta,
        p=polarization(beta),
        t=t,
        lam=config.lam,
        f_general=gate("qfi_general", report.f_general),
        f_thermal=gate("qfi_thermal", report.f_thermal),
        f_sld=gate("qfi_sld", report.f_sld),
        variance_bound=gate("variance_bound", bounds.variance_bound),
        seminorm_bound=gate("seminorm_bound", bounds.seminorm_bound),
        product_bound=gate("product_bound", bounds.product_bound),
        convexity_bound=gate("gap_bounds", bounds.convexity_bound),
        gap_variance_bound=gate("gap_bounds", bounds.gap_variance_bound),
        gap_seminorm_bound=gate("gap_bounds", bounds.gap_seminorm_bound),
        closed_qfi=closed_q,
        closed_variance=closed_v,
        ordering_ok=bounds.ordering_ok,
    )


def run_sweep(config: SweepConfig, parallelism: int | None = None) -> list[SweepRow]:
    """Evaluate every grid point; rows ordered lexicographically by (t, beta).

    Factor once, sweep many: the probe eigendecomposition, ||H||, the gap,
    ||dH/dlambda|| and (for lmg) the eigendecomposition of H(lambda) are
    built once per sweep, the generator and its SpectralPlan once per t,
    and each beta costs only the O(n^2) weighted sums of evaluate_point.
    Sweeps run serially: the per-beta work is GIL-bound Python, so threads
    only slowed it down. parallelism is accepted and validated for
    compatibility and does not change the rows.
    """
    if parallelism is not None:
        _check_parallelism(parallelism)
    if config.beta_grid is not None:
        betas = list(config.beta_grid)
    else:
        betas = [beta_from_polarization(p) for p in config.p_grid]
    probe_h, scheme = model_encoding(
        config.model, config.twice_j, config.t_grid[0], axis=config.axis, lam=config.lam
    )
    decomposition = eigendecompose(probe_h, "Hamiltonian")
    scales = bound_scales(probe_h, decomposition, scheme)
    generator = generator_family(scheme)
    del scheme  # the lmg family's closure holds J_x^2; only its spectrum is needed from here on
    closed_forms = closed_forms_for(config.model, config.axis)
    want = set(config.outputs)
    rows = []
    for t in config.t_grid:
        plan = spectral_plan(probe_h, decomposition, generator(t))
        for beta in betas:
            rho0 = gibbs_from_spectrum(probe_h, decomposition, beta)
            report, bounds = evaluate_point(plan, rho0, scales, t)
            rows.append(_row(config, want, closed_forms, t, beta, report, bounds))
    return rows


def format_float(x: float) -> str:
    """17 significant digits, enough to round-trip any double."""
    return f"{x:.17g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return format_float(value)


def _row_cells(row: SweepRow) -> list[str]:
    return [
        _cell(row.model),
        _cell(row.j),
        _cell(row.beta),
        _cell(row.p),
        _cell(row.t),
        _cell(row.lam),
        _cell(row.f_general),
        _cell(row.f_thermal),
        _cell(row.f_sld),
        _cell(row.variance_bound),
        _cell(row.seminorm_bound),
        _cell(row.product_bound),
        _cell(row.convexity_bound),
        _cell(row.gap_variance_bound),
        _cell(row.gap_seminorm_bound),
        _cell(row.closed_qfi),
        _cell(row.closed_variance),
        _cell(row.ordering_ok),
    ]


def render_csv(rows: list[SweepRow]) -> str:
    if not rows:
        raise ValueError("no rows to emit")
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_row_cells(row)) for row in rows)
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[SweepRow], path) -> None:
    """UTF-8, LF line endings, absent quantities as empty fields."""
    text = render_csv(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


def rows_as_dicts(rows: list[SweepRow]) -> list[dict]:
    return [dict(zip(CSV_COLUMNS, _row_values(row))) for row in rows]


def _row_values(row: SweepRow):
    return (
        row.model,
        row.j,
        row.beta,
        row.p,
        row.t,
        row.lam,
        row.f_general,
        row.f_thermal,
        row.f_sld,
        row.variance_bound,
        row.seminorm_bound,
        row.product_bound,
        row.convexity_bound,
        row.gap_variance_bound,
        row.gap_seminorm_bound,
        row.closed_qfi,
        row.closed_variance,
        row.ordering_ok,
    )


def emit_json(rows: list[SweepRow], path) -> None:
    if not rows:
        raise ValueError("no rows to emit")
    text = json.dumps(rows_as_dicts(rows), indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed to write JSON to {path}: {exc}") from exc


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
