import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import thermalqfi.bounds as bounds_module
import thermalqfi.operators as operators
import thermalqfi.sweep as sweep_module
from thermalqfi.bounds import (
    ORDERING_RTOL,
    SLD_ROUNDING,
    bound_scales,
    gap_bounds,
    scheme_product_bound,
    seminorm_bound,
    variance_bound,
)
from thermalqfi.models import build_scenario, closed_qfi, closed_variance, model_encoding
from thermalqfi.qfi import probe_sums, qfi_general, qfi_sld, qfi_thermal, spectral_plan
from thermalqfi.spin import MAX_TWICE_J
from thermalqfi.sweep import (
    CSV_COLUMNS,
    OUTPUT_KEYS,
    ConfigError,
    SweepConfig,
    SweepRow,
    emit_csv,
    emit_json,
    figure_configs,
    load_config,
    render_csv,
    render_json,
    rows_as_dicts,
    run_sweep,
    run_sweeps,
)
from thermalqfi.thermal import gibbs_from_spectrum

from conftest import bound_reports, per_time_generator

EXPECTED_HEADER = (
    "model,J,beta,P,t,lambda,f_general,f_thermal,f_sld,variance_bound,seminorm_bound,"
    "product_bound,convexity_bound,gap_variance_bound,gap_seminorm_bound,"
    "closed_qfi,closed_variance,ordering_ok"
)


def qubit_config(**overrides):
    raw = {
        "model": "linear",
        "twice_j": 1,
        "axis": "x",
        "beta_grid": [2.0],
        "t_grid": [1.0],
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_minimal_config_defaults(self):
        cfg = SweepConfig.from_dict(qubit_config())
        assert set(cfg.outputs) == {
            "qfi_general", "qfi_thermal", "qfi_sld", "variance_bound",
            "seminorm_bound", "product_bound", "gap_bounds", "closed_forms",
        }

    @pytest.mark.parametrize(
        "raw",
        [
            {"model": "lmg", "twice_j": 4, "lambda": 1.0, "beta_grid": [1], "t_grid": [1]},
            {"model": "linear", "axis": "y", "twice_j": 3, "beta_grid": [1], "t_grid": [1]},
        ],
    )
    def test_default_outputs_leave_out_undefined_closed_forms(self, raw):
        cfg = SweepConfig.from_dict(raw)
        assert cfg.outputs == tuple(k for k in OUTPUT_KEYS if k != "closed_forms")
        (row,) = run_sweep(cfg)
        assert row.closed_qfi is None and row.closed_variance is None
        assert render_csv([row]).splitlines()[1].endswith(",,,true")

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model"):
            SweepConfig.from_dict(qubit_config(model="ising"))

    def test_bad_twice_j(self):
        with pytest.raises(ConfigError, match="twice_j"):
            SweepConfig.from_dict(qubit_config(twice_j=0))

    def test_exactly_one_temperature_grid(self):
        with pytest.raises(ConfigError, match="exactly one"):
            SweepConfig.from_dict(qubit_config(p_grid=[0.5]))
        raw = qubit_config()
        del raw["beta_grid"]
        with pytest.raises(ConfigError, match="exactly one"):
            SweepConfig.from_dict(raw)

    def test_grid_strictly_increasing(self):
        with pytest.raises(ConfigError, match=r"beta_grid\[1\]"):
            SweepConfig.from_dict(qubit_config(beta_grid=[1.0, 1.0]))

    def test_polarization_range(self):
        raw = qubit_config()
        del raw["beta_grid"]
        raw["p_grid"] = [0.5, 1.0]
        with pytest.raises(ConfigError, match=r"p_grid\[1\]"):
            SweepConfig.from_dict(raw)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError, match=r"t_grid\[0\]"):
            SweepConfig.from_dict(qubit_config(t_grid=[-1.0]))

    def test_axis_only_for_linear(self):
        with pytest.raises(ConfigError, match="axis"):
            SweepConfig.from_dict(
                {"model": "oat", "twice_j": 2, "axis": "x", "beta_grid": [1.0], "t_grid": [1.0],
                 "outputs": ["qfi_general"]}
            )

    def test_lambda_requirements(self):
        with pytest.raises(ConfigError, match="lambda"):
            SweepConfig.from_dict(
                {"model": "lmg", "twice_j": 2, "beta_grid": [1.0], "t_grid": [1.0],
                 "outputs": ["qfi_general"]}
            )
        with pytest.raises(ConfigError, match="lambda"):
            SweepConfig.from_dict(qubit_config(**{"lambda": 1.0}))

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_lambda_must_be_finite(self, lam):
        with pytest.raises(ConfigError, match="^lambda: must be a finite number$"):
            SweepConfig.from_dict({"model": "lmg", "twice_j": 2, "lambda": lam, "beta_grid": [1.0], "t_grid": [1.0]})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_lambda_json_literal_refused(self, tmp_path, literal):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"model": "lmg", "twice_j": 2, "lambda": {literal}, "beta_grid": [1], "t_grid": [1]}}')
        with pytest.raises(ConfigError, match="^lambda: must be a finite number$"):
            load_config(path)

    def test_unknown_output(self):
        with pytest.raises(ConfigError, match=r"outputs\[0\]"):
            SweepConfig.from_dict(qubit_config(outputs=["qfi"]))

    def test_closed_forms_unsupported_for_lmg(self):
        with pytest.raises(ConfigError, match="closed_forms"):
            SweepConfig.from_dict(
                {"model": "lmg", "twice_j": 2, "lambda": 1.0, "beta_grid": [1.0],
                 "t_grid": [1.0], "outputs": ["closed_forms"]}
            )

    def test_closed_forms_unsupported_off_axis(self):
        with pytest.raises(ConfigError, match="closed_forms"):
            SweepConfig.from_dict(qubit_config(axis="y", outputs=["closed_forms"]))

    def test_unknown_field(self):
        for key in ("extra", "parallelism"):
            with pytest.raises(ConfigError, match=f"unknown config field '{key}'"):
                SweepConfig.from_dict(qubit_config(**{key: 1}))

    def test_the_lmg_parameter_is_spelled_lambda(self):
        raw = {"model": "lmg", "twice_j": 2, "beta_grid": [1.0], "t_grid": [1.0]}
        assert SweepConfig.from_dict({**raw, "lambda": 0.6}).lam == 0.6
        with pytest.raises(ConfigError, match="^unknown config field 'lam'$"):
            SweepConfig.from_dict({**raw, "lam": 0.6})

    def test_metadata_passthrough_allowed(self):
        SweepConfig.from_dict(qubit_config(metadata={"note": "x"}))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(qubit_config()), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.model == "linear" and cfg.twice_j == 1

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestRunSweep:
    def test_single_qubit_point(self):
        rows = run_sweep(SweepConfig.from_dict(qubit_config()))
        assert len(rows) == 1
        row = rows[0]
        target = math.tanh(1.0) ** 2
        assert row.f_general == pytest.approx(target, abs=1e-10)
        assert row.f_thermal == pytest.approx(target, abs=1e-10)
        assert row.f_sld == pytest.approx(target, abs=1e-10)
        assert row.ordering_ok
        assert row.j == 0.5
        assert row.closed_qfi == pytest.approx(target, abs=1e-12)

    def test_oat_qubit_column_identically_zero(self):
        cfg = SweepConfig.from_dict(
            {"model": "oat", "twice_j": 1, "beta_grid": [0.5, 1.0, 2.0], "t_grid": [1.0, 2.0]}
        )
        rows = run_sweep(cfg)
        assert all(row.f_general == 0.0 for row in rows)

    def test_lmg_zero_time(self):
        cfg = SweepConfig.from_dict(
            {"model": "lmg", "twice_j": 4, "lambda": 1.0, "beta_grid": [1.1], "t_grid": [0.0],
             "outputs": ["qfi_general", "gap_bounds"]}
        )
        rows = run_sweep(cfg)
        assert rows[0].f_general == 0.0
        assert rows[0].ordering_ok

    def test_row_order_lexicographic_t_then_beta(self):
        cfg = SweepConfig.from_dict(qubit_config(beta_grid=[0.5, 1.5], t_grid=[1.0, 2.0]))
        rows = run_sweep(cfg)
        assert [(r.t, r.beta) for r in rows] == [(1.0, 0.5), (1.0, 1.5), (2.0, 0.5), (2.0, 1.5)]

    def test_polarization_consistency(self):
        cfg = SweepConfig.from_dict(qubit_config(beta_grid=[0.3, 2.2, 7.0]))
        for row in run_sweep(cfg):
            assert abs(row.p - math.tanh(0.5 * row.beta)) <= 1e-12

    def test_p_grid_preserved(self):
        raw = qubit_config()
        del raw["beta_grid"]
        raw["p_grid"] = [0.1, 0.6, 0.9]
        rows = run_sweep(SweepConfig.from_dict(raw))
        assert [row.p for row in rows] == pytest.approx([0.1, 0.6, 0.9], abs=1e-12)

    def test_output_gating(self):
        cfg = SweepConfig.from_dict(qubit_config(outputs=["qfi_general"]))
        row = run_sweep(cfg)[0]
        assert row.f_general is not None
        assert row.f_sld is None and row.variance_bound is None and row.closed_qfi is None
        assert row.ordering_ok  # always computed

    # written out here, independently of the SweepRow metadata that drives the gating
    GATED_COLUMNS = {
        "qfi_general": {"f_general"},
        "qfi_thermal": {"f_thermal"},
        "qfi_sld": {"f_sld"},
        "variance_bound": {"variance_bound"},
        "seminorm_bound": {"seminorm_bound"},
        "product_bound": {"product_bound"},
        "gap_bounds": {"convexity_bound", "gap_variance_bound", "gap_seminorm_bound"},
        "closed_forms": {"closed_qfi", "closed_variance"},
    }

    def test_output_keys_in_the_order_of_the_columns_they_gate(self):
        assert OUTPUT_KEYS == tuple(self.GATED_COLUMNS)

    @pytest.mark.parametrize("key", OUTPUT_KEYS)
    def test_each_output_key_gates_exactly_its_columns(self, key):
        cfg = SweepConfig.from_dict(
            {"model": "oat", "twice_j": 3, "beta_grid": [0.7, 2.0], "t_grid": [1.0], "outputs": [key]}
        )
        rows = run_sweep(cfg)
        gated = self.GATED_COLUMNS[key]
        header, *lines = render_csv(rows).splitlines()
        for line in lines:
            cells = dict(zip(header.split(","), line.split(",")))
            filled = {column for column, cell in cells.items() if cell != ""}
            assert filled == {"model", "J", "beta", "P", "t", "ordering_ok"} | gated
        for row in rows:
            present = {name for name, value in vars(row).items() if value is not None}
            assert present == {"model", "j", "beta", "p", "t", "ordering_ok"} | gated


class TestEmission:
    def test_header_exact(self):
        assert ",".join(CSV_COLUMNS) == EXPECTED_HEADER

    def test_two_line_file_for_one_row(self, tmp_path):
        rows = run_sweep(SweepConfig.from_dict(qubit_config()))
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        data = path.read_bytes()
        assert b"\r" not in data
        lines = data.decode("utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == EXPECTED_HEADER

    def test_empty_fields_for_absent_quantities(self, tmp_path):
        cfg = SweepConfig.from_dict(qubit_config(outputs=["qfi_general"]))
        path = tmp_path / "out.csv"
        emit_csv(run_sweep(cfg), path)
        row_cells = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        header = EXPECTED_HEADER.split(",")
        assert row_cells[header.index("lambda")] == ""  # not an lmg run
        assert row_cells[header.index("f_sld")] == ""
        assert row_cells[header.index("f_general")] != ""
        assert row_cells[header.index("ordering_ok")] == "true"

    def test_float_formatting_17_significant_digits(self):
        rows = run_sweep(SweepConfig.from_dict(qubit_config()))
        text = render_csv(rows)
        cells = text.splitlines()[1].split(",")
        header = EXPECTED_HEADER.split(",")
        assert cells[header.index("J")] == "0.5"
        assert cells[header.index("beta")] == "2"
        # round-trips exactly
        assert float(cells[header.index("f_general")]) == rows[0].f_general

    def test_rerun_byte_identical(self, tmp_path):
        cfg = SweepConfig.from_dict(qubit_config(beta_grid=[0.5, 1.0, 3.0]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), a)
        emit_csv(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")

    def test_write_failure_surfaces_path(self, tmp_path):
        rows = run_sweep(SweepConfig.from_dict(qubit_config()))
        with pytest.raises(OSError, match="missing"):
            emit_csv(rows, tmp_path / "missing" / "out.csv")

    def test_json_emission(self, tmp_path):
        cfg = SweepConfig.from_dict(qubit_config(outputs=["qfi_general", "gap_bounds"]))
        rows = run_sweep(cfg)
        path = tmp_path / "out.json"
        emit_json(rows, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert len(loaded) == 1
        record = loaded[0]
        assert set(record) == set(CSV_COLUMNS)
        assert record["f_general"] == rows[0].f_general
        assert record["f_sld"] is None
        assert record["ordering_ok"] is True
        assert rows_as_dicts(rows) == loaded

    def test_json_key_order_is_column_order(self, tmp_path):
        rows = run_sweep(SweepConfig.from_dict(qubit_config(beta_grid=[0.5, 2.0])))
        assert list(rows_as_dicts(rows)[0]) == list(CSV_COLUMNS)
        path = tmp_path / "out.json"
        emit_json(rows, path)
        assert path.read_text(encoding="utf-8") == render_json(rows)
        assert [list(record) for record in json.loads(render_json(rows))] == [list(CSV_COLUMNS)] * 2


# the SweepRow attributes in column order, and the columns whose cells are
# numbers, written out here, independently of the SweepRow metadata
ROW_NAMES = (
    "model", "j", "beta", "p", "t", "lam", "f_general", "f_thermal", "f_sld", "variance_bound", "seminorm_bound",
    "product_bound", "convexity_bound", "gap_variance_bound", "gap_seminorm_bound", "closed_qfi",
    "closed_variance", "ordering_ok",
)
NUMBER_NAMES = ROW_NAMES[1:-1]


def _mixed_rows():
    """Rows of three configs, joined: an lmg sweep (lambda set, no closed
    forms), an oat sweep (closed forms) and a linear sweep with gap_bounds
    gated off, so some columns hold None in part of the rows only."""
    grids = {"beta_grid": [0.5, 2.0], "t_grid": [0.0, 1.0]}
    raws = [
        {"model": "lmg", "twice_j": 4, "lambda": -0.7, **grids},
        {"model": "oat", "twice_j": 4, **grids},
        {"model": "linear", "twice_j": 4, "axis": "x", **grids,
         "outputs": [k for k in OUTPUT_KEYS if k != "gap_bounds"]},
    ]
    rows = [row for raw in raws for row in run_sweep(SweepConfig.from_dict(raw))]
    for name in ("lam", "convexity_bound", "closed_qfi", "closed_variance"):
        assert {getattr(row, name) is None for row in rows} == {True, False}, name
    return rows


def _per_cell_csv(rows):
    """The CSV of rows, formatted one cell at a time."""

    def number(value):
        return "" if value is None else format(value, ".17g")

    expected = [EXPECTED_HEADER] + [
        ",".join([row.model, *(number(getattr(row, name)) for name in NUMBER_NAMES),
                  "true" if row.ordering_ok else "false"])
        for row in rows
    ]
    return "\n".join(expected) + "\n"


class TestColumnarRows:
    def test_render_csv_of_mixed_rows_equals_a_per_cell_reference(self):
        rows = _mixed_rows()
        assert render_csv(rows) == _per_cell_csv(rows)

    def test_render_csv_of_columns_absent_in_every_row_equals_a_per_cell_reference(self):
        # lambda and both closed forms are None in every row, gap_bounds' columns in none
        rows = run_sweep(SweepConfig.from_dict(
            {"model": "oat", "twice_j": 4, "beta_grid": [0.5, 2.0], "t_grid": [0.0, 1.0],
             "outputs": [k for k in OUTPUT_KEYS if k != "closed_forms"]}
        ))
        for name in ("lam", "closed_qfi", "closed_variance"):
            assert {getattr(row, name) for row in rows} == {None}, name
        assert None not in {row.convexity_bound for row in rows}
        assert render_csv(rows) == _per_cell_csv(rows)

    def test_render_json_of_mixed_rows_equals_a_per_key_reference(self):
        rows = _mixed_rows()
        keys = EXPECTED_HEADER.split(",")
        expected = [dict(zip(keys, (getattr(row, name) for name in ROW_NAMES))) for row in rows]
        assert render_json(rows) == json.dumps(expected, indent=2) + "\n"

    def test_a_fig3b_sweep_builds_no_bound_report(self, monkeypatch):
        built = []

        class Spy(bounds_module.BoundReport):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bounds_module, "BoundReport", Spy)
        rows = run_sweep(SweepConfig.from_dict(figure_configs()["fig3b"]))
        assert len(rows) == 100 and built == []
        # the spy sees the reports that are still built: one per bound_report call
        scenario = build_scenario("lmg", 10, 1.1, 3.14, lam=1.0)
        bounds_module.bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        assert len(built) == 1

    def test_run_sweeps_builds_one_sweep_row_per_row(self, monkeypatch):
        built = []

        class Spy(SweepRow):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "SweepRow", Spy)
        # two times per chunk at n = 57: three chunks, the middle one shared by both configs
        grids = {"twice_j": 56, "beta_grid": [0.3, 1.1, 4.0], "t_grid": [0.5, 1.0, 2.0]}
        configs = [SweepConfig.from_dict({"model": "oat", **grids}),
                   SweepConfig.from_dict({"model": "lmg", "lambda": 0.6, **grids})]
        rows = run_sweeps(configs)
        assert [len(config_rows) for config_rows in rows] == [9, 9]
        assert len(built) == 18
        assert all(type(row) is Spy for config_rows in rows for row in config_rows)

    def test_sweep_row_is_a_plain_record(self):
        # built once per row from the sweep's columns: a plain, mutable and
        # unhashable dataclass, whose replace, fields, vars, == and repr work
        rows = run_sweep(SweepConfig.from_dict(qubit_config(beta_grid=[0.5, 2.0], outputs=["qfi_general"])))
        row = rows[0]
        fields = dataclasses.fields(SweepRow)
        assert tuple(f.name for f in fields) == ROW_NAMES
        assert ",".join(f.metadata["column"] or f.name for f in fields) == EXPECTED_HEADER
        assert [f.name for f in fields if f.metadata["gate"] == "gap_bounds"] == [
            "convexity_bound", "gap_variance_bound", "gap_seminorm_bound",
        ]
        assert fields[0].metadata["cell"]("oat") == "oat" and fields[-1].metadata["cell"](False) == "false"
        assert fields[2].metadata["cell"](None) == "" and fields[2].metadata["cell"](0.1) == "0.10000000000000001"
        assert tuple(vars(row)) == ROW_NAMES and vars(row) == dataclasses.asdict(row)
        assert repr(row) == "SweepRow(" + ", ".join(f"{k}={v!r}" for k, v in vars(row).items()) + ")"
        assert rows == run_sweep(SweepConfig.from_dict(qubit_config(beta_grid=[0.5, 2.0], outputs=["qfi_general"])))
        assert rows[0] != rows[1]
        failed = dataclasses.replace(row, ordering_ok=False)
        assert failed != row and row.ordering_ok is True
        assert dataclasses.replace(failed, ordering_ok=True) == row
        with pytest.raises(TypeError, match="unhashable"):
            hash(row)


class TestFigureConfigs:
    def test_all_four_valid_and_runnable_shapes(self):
        configs = figure_configs()
        assert set(configs) == {"fig2a", "fig2b", "fig3a", "fig3b"}
        for name, raw in configs.items():
            runnable = dict(raw)
            assert "note" in runnable["metadata"]
            cfg = SweepConfig.from_dict(runnable)
            assert cfg.twice_j == 10

    def test_fig3_grids(self):
        configs = figure_configs()
        assert configs["fig3a"]["beta_grid"] == [1.1]
        assert len(configs["fig3a"]["t_grid"]) == 64
        assert configs["fig3b"]["t_grid"] == [3.14]
        assert configs["fig3b"]["beta_grid"][0] == 0.05
        assert configs["fig3b"]["beta_grid"][-1] == 5.0

    def test_fig2_polarization_axis(self):
        configs = figure_configs()
        assert configs["fig2a"]["p_grid"][0] == 0.05
        assert configs["fig2a"]["p_grid"][-1] == 0.95
        assert configs["fig2b"]["model"] == "linear"


def test_tanhc_corruption_breaks_route_agreement(monkeypatch):
    # mutation check: replacing tanhc by tanh must surface as a
    # thermal-vs-general route mismatch in the acceptance battery
    import thermalqfi.qfi as qfi_module
    import thermalqfi.verify as verify_module

    def corrupted(x):
        return np.tanh(np.asarray(x, dtype=float))

    monkeypatch.setattr(qfi_module, "tanhc", corrupted)
    result = verify_module.check_three_way_agreement()
    assert not result.passed
    assert "f_thermal" in result.detail
    assert result.repro is not None


def _spy_stacked_plan(monkeypatch):
    """Patch every binding of qfi.stacked_plan to record the shape of each
    generator stack it is given."""
    import thermalqfi.qfi as qfi_module

    shapes = []
    original_plan = qfi_module.stacked_plan

    def recording_plan(decomposition, generators):
        shapes.append(generators.shape)
        return original_plan(decomposition, generators)

    for name, module in list(sys.modules.items()):
        if name.startswith("thermalqfi") and getattr(module, "stacked_plan", None) is original_plan:
            monkeypatch.setattr(module, "stacked_plan", recording_plan)
    return shapes


def test_criterion_1_builds_one_plan_per_twice_j(monkeypatch):
    import thermalqfi.verify as verify_module

    calls = {"eigh": 0}
    original_eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return original_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    shapes = _spy_stacked_plan(monkeypatch)
    assert verify_module.check_three_way_agreement().passed
    # one stacked plan per 2J, whose four variants x three times are one
    # chunk at 2J <= 10, not one per (variant, 2J) sweep (24), per
    # (sweep, t) (72) or per grid point (360)
    assert len(verify_module.GRID_T) == 3
    assert len(shapes) == len(verify_module.GRID_TWICE_J) == 6
    assert [m for m, _, _ in shapes] == [len(verify_module.GRID_VARIANTS) * 3] * 6
    # one eigh per lmg sweep for H(lambda), which is diagonal at 2J = 1
    assert calls["eigh"] <= 10


# every encoding of the J_z probe: the linear model along each axis, the
# twisting model and the collective-spin family at two lambdas
SHARED_PROBE_VARIANTS = (
    {"model": "linear", "axis": "x"},
    {"model": "linear", "axis": "y"},
    {"model": "linear", "axis": "z"},
    {"model": "oat"},
    {"model": "lmg", "lambda": 0.6},
    {"model": "lmg", "lambda": -0.7},
)
# five times: one chunk at n <= 12, and chunks of three (n = 41) and two
# (n = 57) pairs that straddle two configs
SHARED_T_GRID = [0.0, 0.25, 1.0, 2.0, 3.14]
SHARED_TEMPERATURES = {"beta_grid": [0.3, 2.0], "p_grid": [0.1, 0.6]}


def _shared_configs(twice_j, grid):
    return [
        SweepConfig.from_dict({**variant, "twice_j": twice_j, grid: SHARED_TEMPERATURES[grid], "t_grid": SHARED_T_GRID})
        for variant in SHARED_PROBE_VARIANTS
    ]


class TestRunSweeps:
    @pytest.mark.parametrize("grid", sorted(SHARED_TEMPERATURES))
    @pytest.mark.parametrize("twice_j", [1, 10, 40, 56, 57, 81, 101])
    def test_each_config_equals_its_own_sweep(self, monkeypatch, twice_j, grid):
        configs = _shared_configs(twice_j, grid)
        shapes = _spy_stacked_plan(monkeypatch)
        shared = run_sweeps(configs)
        # the (config, time) pairs go through in the fewest chunks of about
        # equal size of at most DENSE_MAX_DIM^2 // n^2, whichever configs
        # they come from
        n = twice_j + 1
        pairs = len(configs) * len(SHARED_T_GRID)
        limit = max(1, operators.DENSE_MAX_DIM**2 // n**2)
        step = math.ceil(pairs / math.ceil(pairs / limit))
        assert [m for m, _, _ in shapes] == [min(step, pairs - start) for start in range(0, pairs, step)]
        assert len(shared) == len(configs)
        for config, rows in zip(configs, shared):
            # repr round-trips a double, so equal reprs mean equal bits
            assert [repr(row) for row in rows] == [repr(row) for row in run_sweep(config)]

    def test_the_probe_scales_are_formed_once_per_call(self, monkeypatch):
        # ||H|| and the gap belong to the shared probe; only ||dH/dlambda|| is per config
        gaps = []
        original = bounds_module.minimum_gap
        monkeypatch.setattr(bounds_module, "minimum_gap", lambda *args: gaps.append(args) or original(*args))
        shared = run_sweeps(_shared_configs(10, "beta_grid"))
        assert len(shared) == len(SHARED_PROBE_VARIANTS) and len(gaps) == 1

    def test_fig3a_goes_as_two_equal_chunks(self, monkeypatch):
        # 64 times at n = 11, at most 54 per chunk: two chunks of 32, each
        # large enough that its support sums are summed together in long
        # double (a 10-time remainder, 1,100 terms per sum, was too small)
        import thermalqfi.qfi as qfi_module

        shapes = _spy_stacked_plan(monkeypatch)
        long_sums = []
        original = qfi_module._long_sums
        monkeypatch.setattr(qfi_module, "_long_sums", lambda terms: long_sums.append(len(terms)) or original(terms))
        run_sweep(SweepConfig.from_dict(figure_configs()["fig3a"]))
        assert [m for m, _, _ in shapes] == [32, 32]
        if qfi_module.LONG_SUMS:
            assert long_sums == [32] * 8  # four support sums per chunk

    def test_no_chunk_holds_more_entries_than_one_dense_matrix(self, monkeypatch):
        shapes = _spy_stacked_plan(monkeypatch)
        for twice_j in (1, 10, 40, 56, 57, 80):
            run_sweeps(_shared_configs(twice_j, "beta_grid"))
        assert all(m * n * n <= operators.DENSE_MAX_DIM**2 for m, n, _ in shapes)
        # above DENSE_MAX_DIM a chunk is the one generator it cannot do without
        shapes.clear()
        run_sweeps(_shared_configs(81, "beta_grid"))
        assert {m for m, _, _ in shapes} == {1}

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("twice_j", {"twice_j": 4}),
            ("beta_grid", {"beta_grid": [0.3, 2.5]}),
            ("beta_grid", {"beta_grid": None, "p_grid": [0.1, 0.6]}),
            ("t_grid", {"t_grid": [0.0, 0.25]}),
        ],
        ids=["twice_j", "beta_grid", "p_grid", "t_grid"],
    )
    def test_configs_must_share_the_spin_and_grids(self, field, overrides):
        configs = _shared_configs(6, "beta_grid")
        raw = {"model": "oat", "twice_j": 6, "beta_grid": [0.3, 2.0], "t_grid": SHARED_T_GRID, **overrides}
        odd = SweepConfig.from_dict({key: value for key, value in raw.items() if value is not None})
        with pytest.raises(ValueError, match=f"^{field}: every config of one run_sweeps call must share it$"):
            run_sweeps([*configs, odd])

    def test_no_configs_no_sweeps(self):
        assert run_sweeps([]) == []


def _runnable(raw):
    return SweepConfig.from_dict({k: v for k, v in raw.items() if k != "metadata"})


def _verify_grid_configs():
    """The sweeps behind the grids of verify criteria 1, 3 and 4, one per
    (model variant, 2J); criterion 3's linear and oat sweeps at the 2J it
    shares with the model grid are the same configs."""
    from thermalqfi import verify

    configs = {}
    for variants, twice_js in (
        (verify.GRID_VARIANTS, verify.GRID_TWICE_J),
        (verify.GRID_VARIANTS[:2], verify.WIDE_TWICE_J),
    ):
        for model, lam in variants:
            for twice_j in twice_js:
                configs[f"verify-{model}{'' if lam is None else lam}-{twice_j}"] = verify._grid_config(model, twice_j, lam)
    return configs


PLAN_CONFIGS = {
    **{name: _runnable(raw) for name, raw in figure_configs().items()},
    **_verify_grid_configs(),
    "linear-y": SweepConfig.from_dict({
        "model": "linear", "twice_j": 6, "axis": "y",
        "beta_grid": [0.0, 0.3, 1.7, 12.0], "t_grid": [0.0, 0.4, 2.5],
        "outputs": ["qfi_general", "qfi_thermal", "qfi_sld", "variance_bound",
                    "seminorm_bound", "product_bound", "gap_bounds"],
    }),
    "oat-half-integer": SweepConfig.from_dict({
        "model": "oat", "twice_j": 3, "p_grid": [0.05, 0.5, 0.95], "t_grid": [0.25, 1.0, 3.14],
    }),
    # t = 0 gives h = C = 0: an empty support inside the union of its chunk
    "lmg-from-t-zero": SweepConfig.from_dict({
        "model": "lmg", "twice_j": 6, "lambda": 0.8, "beta_grid": [0.2, 1.1, 30.0], "t_grid": [0.0, 0.7, 3.14],
    }),
    # H(lambda) = 1/4 + lambda J_z is diagonal at 2J = 1
    "lmg-spin-half": SweepConfig.from_dict({
        "model": "lmg", "twice_j": 1, "lambda": 1.0, "beta_grid": [0.5, 3.0], "t_grid": [0.0, 0.5, 3.14],
    }),
    # 64 times at n = 11 are two chunks of 32 times
    "oat-64-times": SweepConfig.from_dict({
        "model": "oat", "twice_j": 10, "beta_grid": [0.1, 1.1, 9.0],
        "t_grid": [round(0.05 * k, 12) for k in range(64)],
    }),
    # on both sides of the chunk rule (two times per chunk up to n = 57,
    # one above) and of DENSE_MAX_DIM (parity blocks from n = 82 up)
    **{
        f"{model}-2j{twice_j}": SweepConfig.from_dict({
            "model": model, "twice_j": twice_j, **extra,
            "beta_grid": [0.3, 2.0], "t_grid": [0.0, 0.5, 3.14],
        })
        for twice_j in (56, 57, 58, 101)
        for model, extra in (("lmg", {"lambda": 0.6}), ("oat", {}), ("linear", {"axis": "y"}))
    },
}


def _reference_row(config, t, beta):
    """A sweep row from the per-point functions, independent of the plan."""
    sc = build_scenario(config.model, config.twice_j, beta, t, axis=config.axis, lam=config.lam)
    f = qfi_sld(sc.probe, sc.h)  # the route the ordering is judged on
    v = variance_bound(sc.probe, sc.h)
    s = seminorm_bound(sc.probe, sc.h)
    prod = scheme_product_bound(sc.probe, sc.scheme)
    gaps = gap_bounds(sc.probe, sc.h)

    def below(x, y, rounding=0.0):
        return x <= y + ORDERING_RTOL * abs(y) + rounding

    # f is also forgiven its own rounding error
    f_rounding = SLD_ROUNDING * math.sqrt(abs(f)) * math.sqrt(abs(gaps.convexity_bound))
    chain = (v, s, prod, gaps.convexity_bound, gaps.gap_variance_bound, gaps.gap_seminorm_bound)
    ordering_ok = (
        all(below(f, bound, f_rounding) for bound in chain)
        and below(v, s) and below(s, prod)
        and below(gaps.convexity_bound, gaps.gap_variance_bound)
        and below(gaps.gap_variance_bound, gaps.gap_seminorm_bound)
    )
    want = set(config.outputs)
    closed = "closed_forms" in want
    return {
        "f_general": qfi_general(sc.probe, sc.h) if "qfi_general" in want else None,
        "f_thermal": qfi_thermal(sc.probe, sc.h) if "qfi_thermal" in want else None,
        "f_sld": f if "qfi_sld" in want else None,
        "variance_bound": v if "variance_bound" in want else None,
        "seminorm_bound": s if "seminorm_bound" in want else None,
        "product_bound": prod if "product_bound" in want else None,
        "convexity_bound": gaps.convexity_bound if "gap_bounds" in want else None,
        "gap_variance_bound": gaps.gap_variance_bound if "gap_bounds" in want else None,
        "gap_seminorm_bound": gaps.gap_seminorm_bound if "gap_bounds" in want else None,
        "closed_qfi": closed_qfi(sc) if closed else None,
        "closed_variance": closed_variance(sc) if closed else None,
        "ordering_ok": ordering_ok,
    }


class TestSpectralPlan:
    @pytest.mark.parametrize("name", sorted(PLAN_CONFIGS))
    def test_rows_match_per_point_path_bit_for_bit(self, name):
        config = PLAN_CONFIGS[name]
        rows = run_sweep(config)
        assert len(rows) == len(config.t_grid) * len(config.beta_grid or config.p_grid)
        for row in rows:
            expected = _reference_row(config, row.t, row.beta)
            got = {key: getattr(row, key) for key in expected}
            # repr round-trips a double, so equal reprs mean equal bits (and catch -0.0)
            assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in expected.items()}, (
                f"{name} t={row.t} beta={row.beta}"
            )

    @pytest.mark.parametrize(
        "raw",
        [
            {"model": "lmg", "twice_j": 5, "lambda": 0.7, "outputs": ["qfi_general", "gap_bounds"]},
            {"model": "oat", "twice_j": 4},
            {"model": "linear", "twice_j": 3, "axis": "z", "outputs": ["qfi_thermal", "product_bound"]},
        ],
        ids=["lmg", "oat", "linear"],
    )
    def test_factor_once_call_counts(self, monkeypatch, raw):
        t_grid, beta_grid = [0.0, 0.5, 1.0, 2.0, 3.14], [0.1, 0.9, 2.0, 7.5]
        config = SweepConfig.from_dict({**raw, "t_grid": t_grid, "beta_grid": beta_grid})
        calls = {"eigh": 0, "commutator_i": 0}
        original_eigh = np.linalg.eigh
        original_commutator = operators.commutator_i

        def counting_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return original_eigh(*args, **kwargs)

        def counting_commutator(*args, **kwargs):
            calls["commutator_i"] += 1
            return original_commutator(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        # modules bind commutator_i by name at import, so patch every binding
        for name, module in list(sys.modules.items()):
            if name.startswith("thermalqfi") and getattr(module, "commutator_i", None) is original_commutator:
                monkeypatch.setattr(module, "commutator_i", counting_commutator)
        rows = run_sweep(config)
        assert len(rows) == len(t_grid) * len(beta_grid)
        assert calls["eigh"] <= 2
        # the five times are one chunk: one commutator of their stack
        assert calls["commutator_i"] == 1


DIAGONAL_PROBE_MODELS = [
    ("linear", "x", None),
    ("linear", "y", None),
    ("linear", "z", None),
    ("oat", "x", None),
    ("lmg", "x", 0.8),
]


def _plan_points(model, twice_j, axis, lam, decompose):
    """repr of the k = 1 route sums and bound row over a small (t, beta)
    grid on the J_z probe."""
    probe_h, scheme = model_encoding(model, twice_j, 1.0, axis=axis, lam=lam)
    decomposition = decompose(probe_h)
    scales = bound_scales(decomposition, scheme)
    generator = per_time_generator(scheme)
    out = []
    for t in (0.0, 0.5, 3.14):
        plan = spectral_plan(decomposition, generator(t))
        for beta in (1e-6, 0.3, 1.1, 7.5):
            rho0 = gibbs_from_spectrum(decomposition, beta)
            sums = probe_sums(plan, rho0)
            out.append(repr((sums, bound_reports(plan, sums, (rho0.beta,), t, scales))))
    return out


class TestDiagonalProbe:
    @pytest.mark.parametrize("twice_j", [1, 10, 40])
    @pytest.mark.parametrize("model, axis, lam", DIAGONAL_PROBE_MODELS)
    def test_fast_path_matches_dense_path_bit_for_bit(self, monkeypatch, model, axis, lam, twice_j):
        fast = _plan_points(model, twice_j, axis, lam, lambda h: operators.eigendecompose(h, "Hamiltonian"))
        assert fast[0].count("BoundReport") == 1
        # the dense path: eigh's decomposition as one block (order=None) and
        # every diagonal record made one dense block, so each basis change,
        # commutator and width is a product or a solve
        diagonal = operators._diagonal
        for name, module in list(sys.modules.items()):
            if name.startswith("thermalqfi") and getattr(module, "_diagonal", None) is diagonal:
                monkeypatch.setattr(module, "_diagonal", lambda d: operators._blocks(diagonal(d).matrix))

        def dense(h):
            evals, evecs = np.linalg.eigh(h.matrix)
            block = operators.ParityBlock(0, np.arange(h.dim), evecs)
            return operators.SpectralDecomposition(evals, h.dim, source=h, blocks=(block,))

        assert fast == _plan_points(model, twice_j, axis, lam, dense)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ({"model": "linear", "twice_j": 20, "axis": "x"}, 0),
            ({"model": "oat", "twice_j": 20}, 0),
            ({"model": "lmg", "twice_j": 20, "lambda": 1.0, "outputs": ["qfi_general", "gap_bounds"]}, 1),
        ],
        ids=["linear", "oat", "lmg"],
    )
    def test_jz_probe_makes_no_eigh_call(self, monkeypatch, raw, expected):
        config = SweepConfig.from_dict({**raw, "t_grid": [0.5, 1.0, 3.14], "beta_grid": [0.1, 2.0]})
        calls = []
        original_eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return original_eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert len(run_sweep(config)) == 6
        assert len(calls) == expected


def test_spin_cap_refused_in_config():
    with pytest.raises(ConfigError, match=f"twice_j must be at most {MAX_TWICE_J}"):
        SweepConfig.from_dict(qubit_config(twice_j=MAX_TWICE_J + 1))
    assert SweepConfig.from_dict(qubit_config(twice_j=MAX_TWICE_J)).twice_j == MAX_TWICE_J
