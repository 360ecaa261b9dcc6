import json
import math
import subprocess
import sys

import pytest

from thermalqfi.cli import main
from thermalqfi.verify import CheckResult, run_verify


def test_compute_qubit_point(capsys):
    code = main(["compute", "--model", "linear", "--twice-j", "1", "--beta", "2", "--t", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"]["f_general"] == pytest.approx(math.tanh(1.0) ** 2, abs=1e-10)
    assert payload["bounds"]["ordering_ok"] is True
    assert payload["closed_qfi"] == pytest.approx(math.tanh(1.0) ** 2, abs=1e-12)
    assert payload["P"] == pytest.approx(math.tanh(1.0), abs=1e-15)


def test_compute_accepts_polarization(capsys):
    code = main(["compute", "--model", "oat", "--twice-j", "10", "--p", "0.6", "--t", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta"] == pytest.approx(2.0 * math.atanh(0.6))


def test_compute_json_keys_in_order(capsys):
    code = main(["compute", "--model", "lmg", "--twice-j", "4", "--beta", "1", "--t", "1", "--lam", "0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "model", "J", "beta", "P", "t", "lambda", "axis", "qfi", "bounds", "closed_qfi", "closed_variance",
    ]
    assert list(payload["qfi"]) == ["f_general", "f_thermal", "f_sld", "max_pairwise_rel_diff", "pure_state_flag"]
    assert list(payload["bounds"]) == [
        "variance_bound", "seminorm_bound", "product_bound", "convexity_bound", "gap_variance_bound",
        "gap_seminorm_bound", "min_gap", "noncommutativity", "ordering_ok",
    ]


def test_compute_lmg_requires_lambda(capsys):
    code = main(["compute", "--model", "lmg", "--twice-j", "2", "--beta", "1", "--t", "1"])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_compute_rejects_stray_lambda(capsys):
    code = main(["compute", "--model", "oat", "--twice-j", "2", "--beta", "1", "--t", "1", "--lam", "1"])
    assert code == 2


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = {
        "model": "linear",
        "twice_j": 1,
        "axis": "x",
        "beta_grid": [2.0],
        "t_grid": [1.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_path = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("model,J,beta,P,t,lambda,")


def test_sweep_stdout_json(tmp_path, capsys):
    cfg = {"model": "oat", "twice_j": 2, "beta_grid": [1.0], "t_grid": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["sweep", "--config", str(cfg_path), "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["model"] == "oat"


def test_sweep_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "nope"}), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_figures_emits_configs_and_runs(tmp_path, capsys):
    code = main(["figures", "--out", str(tmp_path), "--run"])
    assert code == 0
    for name in ("fig2a", "fig2b", "fig3a", "fig3b"):
        cfg = json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))
        assert "metadata" in cfg
        csv_path = tmp_path / cfg["output_path"]
        assert csv_path.exists()
        body = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(body) == len(cfg.get("beta_grid", cfg.get("p_grid"))) * len(cfg["t_grid"]) + 1


def test_run_verify_plumbing(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"

    def passing(seed=0):
        return CheckResult(1, "stub pass", True, "fine")

    def failing(seed=0):
        return CheckResult(2, "stub fail", False, "broken", repro={"model": "linear"})

    assert run_verify(out_path=summary_path, checks=(passing,)) == 0
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["passed"] is True

    assert run_verify(out_path=summary_path, checks=(passing, failing)) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "reproduce criterion 2" in out
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["passed"] is False
    assert len(summary["checks"]) == 2


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "thermalqfi", "compute", "--model", "linear",
         "--twice-j", "1", "--beta", "2", "--t", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bounds"]["ordering_ok"] is True


@pytest.mark.parametrize("exc", [ArithmeticError("negative QFI"), OverflowError("exp overflow")])
def test_numerical_errors_exit_3(monkeypatch, capsys, exc):
    import thermalqfi.cli as cli

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "qfi_report", failing)
    code = main(["compute", "--model", "oat", "--twice-j", "4", "--beta", "1", "--t", "1"])
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_figures_run_reports_ordering(tmp_path, capsys):
    assert main(["figures", "--out", str(tmp_path), "--run"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2a", "fig2b", "fig3a", "fig3b"):
        assert f"{name}: " in out
    assert out.count("(ordering_ok everywhere: True)") == 4


@pytest.fixture
def no_numpy_allocation(monkeypatch):
    """Make every numpy array constructor raise, so a test can show that a
    command refuses its input before it allocates anything."""
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("numpy allocated an array")

    for name in ("array", "asarray", "zeros", "empty", "ones", "full", "eye", "identity",
                 "arange", "diag", "zeros_like", "empty_like"):
        monkeypatch.setattr(np, name, refuse)


def test_compute_refuses_spin_above_cap_before_allocating(capsys, no_numpy_allocation):
    code = main(["compute", "--model", "oat", "--twice-j", "2001", "--beta", "1", "--t", "1"])
    assert code == 2
    assert "config error: twice_j must be at most 2000" in capsys.readouterr().err


def test_sweep_refuses_spin_above_cap_before_allocating(tmp_path, capsys, no_numpy_allocation):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "oat", "twice_j": 100000, "beta_grid": [1.0], "t_grid": [1.0]}))
    code = main(["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert "config error: twice_j must be at most 2000" in capsys.readouterr().err
