"""The failure branches of the verify criteria that read their values from
sweeps: each reports the same detail line and repro config as when the
values were computed point by point."""

import numpy as np

import thermalqfi.qfi as qfi_module
from thermalqfi import verify
from thermalqfi.encoding import TransformedLocalGenerator


def test_high_temperature_vanishing_reports_the_exceeded_ceilings(monkeypatch):
    monkeypatch.setattr(qfi_module, "_general_sum", lambda *args: 1.0)
    result = verify.check_high_temperature_vanishing()
    assert (result.criterion, result.name, result.passed) == (5, "high-temperature vanishing", False)
    assert result.detail == (
        "2J=20: F(1e-3) = 1.0 exceeds ceiling 0.0001; 2J=10: F(1e-3) = 1.0 exceeds ceiling 2.5e-05"
    )
    assert result.repro == {
        "model": "linear",
        "twice_j": 20,
        "beta_grid": [0.001],
        "t_grid": [1.0],
        "outputs": ["qfi_general", "qfi_thermal", "qfi_sld", "variance_bound", "seminorm_bound", "gap_bounds"],
        "axis": "x",
    }


def test_oat_temperature_peak_reports_a_flat_curve(monkeypatch):
    monkeypatch.setattr(qfi_module, "_general_sum", lambda *args: 1.0)
    result = verify.check_oat_temperature_peak()
    assert (result.criterion, result.name, result.passed) == (7, "twisting temperature optimum", False)
    assert result.detail == f"no interior maximum: F over P = {[1.0] * 19}"
    assert result.repro is None


def test_generator_routes_report_an_offset_finite_difference(monkeypatch):
    original = verify.generator_fd

    def offset(scheme):
        generator = original(scheme)
        return TransformedLocalGenerator(generator.h + 1e-3 * np.eye(generator.h.shape[0]), generator.method)

    monkeypatch.setattr(verify, "generator_fd", offset)
    result = verify.check_lmg_generator_routes()
    assert (result.criterion, result.name, result.passed) == (9, "generator route cross-check", False)
    assert result.detail == "2J=2 lam=0.5 t=1.0: fd vs spectral rel gap 1.000e-03"
    assert result.repro is None
