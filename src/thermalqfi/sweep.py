"""Configuration-driven grid sweeps with deterministic CSV/JSON emission.

A sweep config names a model, a spin, one temperature grid (beta or
polarization) and a time grid, and lists the quantities to emit. Rows come
out ordered lexicographically by (t, beta).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bounds import BoundColumns, BoundScales, bound_rows, derivative_width, probe_scales
from .encoding import generator_stack
from .models import MODELS, check_options, closed_forms_for, model_encoding
from .operators import DENSE_MAX_DIM, concatenate, eigendecompose
from .qfi import RouteSums, chunk_size, route_sums, stacked_plan
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


@dataclass
class SweepRow:
    """One sweep point and the only spelling of the row schema: the field
    order is the CSV column and JSON key order, and each field's metadata
    names its column, its cell formatter and the output key gating it.
    A plain record, mutable and unhashable: nothing hashes or mutates one."""

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
_NAMES = tuple(f.name for f in fields(SweepRow))
_CELLS = tuple(f.metadata["cell"] for f in fields(SweepRow))
_GATES = tuple(f.metadata["gate"] for f in fields(SweepRow))
_field_values = attrgetter(*_NAMES)
# the columns a sweep fills chunk by chunk: the swept grids, and the routes,
# bounds and certificate read off route_sums and bound_rows by the names they share
_FILLED = tuple(name for name in _NAMES if name in {"beta", "p", "t", *RouteSums._fields, *BoundColumns._fields})
# the valid `outputs` keys, in the order of the first column each one gates
OUTPUT_KEYS = tuple(dict.fromkeys(gate for gate in _GATES if gate))


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
        known = {"lambda" if f.name == "lam" else f.name for f in fields(cls)} | {"metadata"}
        for key in raw:
            if key not in known:
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

        try:
            axis, lam = check_options(model, raw.get("axis"), raw.get("lambda"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

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


# the fields every config of one run_sweeps call must share: its spin and grids
_SHARED_FIELDS = ("twice_j", "beta_grid", "p_grid", "t_grid")


class _Encoding(NamedTuple):
    """One config's beta- and t-independent parts, over the shared probe."""

    config: SweepConfig
    dh_width: float | None
    generators: Callable[[list[float]], np.ndarray]
    closed_forms: tuple | None


def run_sweeps(configs) -> list[list[SweepRow]]:
    """The rows of each config, each list equal to run_sweep(config):
    several encodings of one probe over one grid.

    The configs must share twice_j, the temperature grid and t_grid
    (ValueError names the first field that differs). Every model's probe
    is J_z, so the probe eigendecomposition and the Gibbs weights of
    every beta are built once per call, and so are ||H|| and the gap,
    read off that decomposition. Once per config: ||dH/dlambda|| and the
    generator family (for lmg, the eigendecomposition of H(lambda)); once
    per beta, its polarization. The
    (config, time) pairs then go through in chunks of about equal size
    (qfi.chunk_size), none larger than DENSE_MAX_DIM^2 // n^2 (at least
    one), so a chunk's generators hold no more entries than one
    DENSE_MAX_DIM x DENSE_MAX_DIM matrix, whichever configs they come
    from. Each chunk is one generator stack
    record (scanned by nothing), one stacked_plan, and
    one route_sums and one bound_rows call over its pairs x betas rows,
    with each time and scale given per generator. Their columns extend one
    list per SweepRow field a config emits; the closed forms map over its
    (beta, t) columns, a constant, gated-off or missing column repeats one
    value, and one SweepRow is built per row at the end.
    """
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    for config in configs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(config, name) != getattr(first, name):
                raise ValueError(f"{name}: every config of one run_sweeps call must share it")
    decomposition = None
    encodings = []
    for config in configs:
        probe_h, scheme = model_encoding(
            config.model, config.twice_j, config.t_grid[0], axis=config.axis, lam=config.lam
        )
        if decomposition is None:
            decomposition = eigendecompose(probe_h, "Hamiltonian")
        closed_forms = closed_forms_for(config.model, config.axis) if "closed_forms" in config.outputs else None
        encodings.append(_Encoding(config, derivative_width(scheme), generator_stack(scheme), closed_forms))
    del scheme  # the lmg family's closure holds J_x^2; only its spectrum is needed from here on
    probe_widths = probe_scales(decomposition.eigenvalues)  # ||H|| and the gap
    betas = list(first.beta_grid) if first.beta_grid is not None else [beta_from_polarization(p) for p in first.p_grid]
    weights = boltzmann_weights(decomposition.eigenvalues, betas)
    betas = weights.betas
    polarizations = [polarization(beta) for beta in betas]
    pairs = [(index, t) for index, config in enumerate(configs) for t in config.t_grid]
    step = chunk_size(len(pairs), max(1, DENSE_MAX_DIM**2 // decomposition.source_dim**2))
    # per config, one list per filled column it emits; a gated-off column is never filled
    filled = [
        {name: [] for name, gate in zip(_NAMES, _GATES) if name in _FILLED and (gate is None or gate in config.outputs)}
        for config in configs
    ]
    for start in range(0, len(pairs), step):
        chunk = pairs[start:start + step]
        runs = [(index, [t for _, t in run]) for index, run in itertools.groupby(chunk, itemgetter(0))]
        stacks = [encodings[index].generators(run_times) for index, run_times in runs]
        plan = stacked_plan(decomposition, concatenate(stacks))
        # generator g is pair g of the chunk; row r is its pair r // len(betas) at beta r % len(betas)
        times = [t for _, t in chunk]
        row_betas = betas * len(chunk)
        sums = route_sums(plan, np.tile(weights.probabilities, (len(chunk), 1)), row_betas)
        # ||H|| and the gap are the shared probe's; ||dH/dlambda|| is each generator's config's
        scales = BoundScales(*probe_widths, [encodings[index].dh_width for index, _ in chunk])
        bounds = bound_rows(plan, sums, row_betas, times, scales)
        chunk_columns = {
            **sums._asdict(), **bounds._asdict(),
            "beta": row_betas, "p": polarizations * len(chunk), "t": [t for t in times for _ in betas],
        }
        stop = 0
        for index, run_times in runs:
            start_row, stop = stop, stop + len(run_times) * len(betas)
            for name, column in filled[index].items():
                column.extend(chunk_columns[name][start_row:stop])
    rows = []
    for (config, _, _, closed_forms), columns in zip(encodings, filled):
        if closed_forms is not None:
            beta_t = columns["beta"], columns["t"]
            columns["closed_qfi"], columns["closed_variance"] = (
                list(map(form, itertools.repeat(config.twice_j), *beta_t)) for form in closed_forms
            )
        constants = {"model": config.model, "j": config.twice_j / 2.0, "lam": config.lam}
        values = (columns.get(name) or itertools.repeat(constants.get(name)) for name in _NAMES)
        rows.append(list(map(SweepRow, *values)))
    return rows


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every grid point; rows ordered lexicographically by (t, beta):
    run_sweeps of the one config."""
    return run_sweeps([config])[0]


def _column_cells(cell, column: tuple):
    """The cells of one column: a float column without None goes straight
    through _float_cell's format, and one that is None in every row is
    empty cells."""
    if cell is _float_cell:
        missing = column.count(None)
        if missing == 0:
            return map("%.17g".__mod__, column)
        if missing == len(column):
            return itertools.repeat("", missing)
    return map(cell, column)


def render_csv(rows: list[SweepRow]) -> str:
    if not rows:
        raise ValueError("no rows to emit")
    cells = [_column_cells(cell, column) for cell, column in zip(_CELLS, zip(*map(_field_values, rows)))]
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*cells))]) + "\n"


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
