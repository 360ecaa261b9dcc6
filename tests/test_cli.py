import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import thermalqfi.verify as verify
from thermalqfi.bounds import BoundReport
from thermalqfi.cli import main
from thermalqfi.sweep import ConfigError, SweepConfig
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
    # the keys are read off the BoundReport record, leaving out f (it repeats qfi.f_sld)
    assert list(payload["bounds"]) == [f.name for f in fields(BoundReport) if f.name != "f"]


def test_compute_lmg_requires_lambda(capsys):
    code = main(["compute", "--model", "lmg", "--twice-j", "2", "--beta", "1", "--t", "1"])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_compute_rejects_stray_lambda(capsys):
    code = main(["compute", "--model", "oat", "--twice-j", "2", "--beta", "1", "--t", "1", "--lam", "1"])
    assert code == 2


@pytest.mark.parametrize("model", [["oat"], ["lmg", "--lam", "0.6"]], ids=["oat", "lmg"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_compute_rejects_an_axis_outside_the_linear_model(capsys, model, axis):
    code = main(["compute", "--model", *model, "--twice-j", "2", "--beta", "1", "--t", "1", "--axis", axis])
    assert code == 2
    assert capsys.readouterr().err == "config error: axis: only valid for the linear model\n"


def test_compute_linear_axis_defaults_to_x(capsys):
    argv = ["compute", "--model", "linear", "--twice-j", "2", "--beta", "1", "--t", "1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert json.loads(default)["axis"] == "x"
    assert main([*argv, "--axis", "x"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("lam", ["inf", "-inf", "nan"])
def test_compute_rejects_a_non_finite_lambda(capsys, lam):
    code = main(["compute", "--model", "lmg", "--twice-j", "2", "--beta", "1", "--t", "1", f"--lam={lam}"])
    assert code == 2
    assert capsys.readouterr().err == "config error: lambda: must be a finite number\n"


# each model-option mistake, as a sweep config and as compute flags
OPTION_MISTAKES = {
    "axis-on-oat": ({"model": "oat", "axis": "y"}, ["--model", "oat", "--axis", "y"]),
    "axis-on-lmg": ({"model": "lmg", "lambda": 0.6, "axis": "x"}, ["--model", "lmg", "--lam", "0.6", "--axis", "x"]),
    "missing-lambda": ({"model": "lmg"}, ["--model", "lmg"]),
    "nan-lambda": ({"model": "lmg", "lambda": math.nan}, ["--model", "lmg", "--lam=nan"]),
    "inf-lambda": ({"model": "lmg", "lambda": math.inf}, ["--model", "lmg", "--lam=inf"]),
    "minus-inf-lambda": ({"model": "lmg", "lambda": -math.inf}, ["--model", "lmg", "--lam=-inf"]),
    "lambda-on-linear": ({"model": "linear", "lambda": 1.0}, ["--model", "linear", "--lam", "1"]),
    "lambda-on-oat": ({"model": "oat", "lambda": 1.0}, ["--model", "oat", "--lam", "1"]),
}


@pytest.mark.parametrize("config, flags", OPTION_MISTAKES.values(), ids=OPTION_MISTAKES)
def test_compute_and_a_sweep_config_word_each_option_mistake_alike(capsys, config, flags):
    with pytest.raises(ConfigError) as sweep_error:
        SweepConfig.from_dict({**config, "twice_j": 2, "beta_grid": [1.0], "t_grid": [1.0]})
    code = main(["compute", *flags, "--twice-j", "2", "--beta", "1", "--t", "1"])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {sweep_error.value}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--model", "oat", "--twice-j", "4", "--beta", "1", "--t", "1e200"], "overflow encountered in square"),
        (["--model", "lmg", "--twice-j", "4", "--beta", "1", "--t", "1", "--lam", "1e308"], "overflow encountered in multiply"),
    ],
    ids=["oat-t-1e200", "lmg-lambda-1e308"],
)
def test_a_floating_point_overflow_exits_3(capsys, flags, message):
    """One stderr line and exit 3, not numpy warnings (or, under an error
    filter, a traceback) nor a config error about non-finite entries."""
    code = main(["compute", *flags])
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


@pytest.mark.parametrize("verb", ["compute", "sweep", "verify", "figures"])
def test_an_unwritable_output_path_is_a_config_error(tmp_path, monkeypatch, capsys, verb):
    """Exit 2 with one stderr line, not exit 1 (a verification failure)
    with a traceback."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "linear", "twice_j": 1, "beta_grid": [1.0], "t_grid": [1.0]}))
    monkeypatch.setattr(verify, "run_all", lambda seed, checks: [CheckResult(1, "stub pass", True, "fine")])
    missing = str(tmp_path / "missing" / "out")
    blocked = tmp_path / "a_file"  # figures creates missing directories, but none below a file
    blocked.write_text("")
    argv = {
        "compute": ["compute", "--model", "oat", "--twice-j", "2", "--beta", "1", "--t", "1", "--out", missing],
        "sweep": ["sweep", "--config", str(cfg_path), "--out", missing],
        "verify": ["verify", "--out", missing],
        "figures": ["figures", "--out", str(blocked / "out")],
    }[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("model", ["oat", "linear"])
def test_sweep_with_closed_forms_at_low_temperature(tmp_path, capsys, model):
    cfg = {"model": model, "twice_j": 10, "beta_grid": [1e3, 1e4, 1e5], "t_grid": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    expected = 45.0 if model == "oat" else 10.0  # t^2 J (2J - 1) and 2J t^2
    assert [row["closed_qfi"] for row in rows] == [pytest.approx(expected, rel=1e-14)] * 3


def test_sweep_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "nope"}), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: model: must be one of ('linear', 'oat', 'lmg'), got 'nope'\n"


_QUBIT = {"model": "linear", "twice_j": 1, "beta_grid": [2.0], "t_grid": [1.0]}
CONFIG_MISTAKES = {
    "not-an-object": ([_QUBIT], "config: expected a JSON object"),
    "no-t-grid": ({k: v for k, v in _QUBIT.items() if k != "t_grid"}, "t_grid: required"),
    "outputs-not-a-list": ({**_QUBIT, "outputs": "qfi_general"}, "outputs: must be a nonempty list"),
    "output-path-not-a-string": ({**_QUBIT, "output_path": 3}, "output_path: must be a string"),
    "grid-not-a-list": ({**_QUBIT, "beta_grid": 2.0}, "beta_grid: must be a nonempty list of numbers"),
    "non-finite-grid-entry": ({**_QUBIT, "t_grid": [1.0, math.inf]}, "t_grid[1]: must be a finite number, got inf"),
    "axis-outside-x-y-z": ({**_QUBIT, "axis": "w"}, "axis: must be one of ('x', 'y', 'z'), got 'w'"),
}


@pytest.mark.parametrize("config, message", CONFIG_MISTAKES.values(), ids=CONFIG_MISTAKES)
def test_each_sweep_config_mistake_exits_2_with_its_message(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")  # math.inf is written as Infinity
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_sweep_row_that_fails_the_ordering_exits_1(tmp_path, monkeypatch, capsys):
    # the general and SLD routes read 1e300, above every bound, injected as
    # the verify tests inject a violation
    import thermalqfi.sweep as sweep_module

    original = sweep_module.route_sums

    def huge(plan, p, betas):
        return original(plan, p, betas)._replace(f_general=[1e300] * len(p), f_sld=[1e300] * len(p))

    monkeypatch.setattr(sweep_module, "route_sums", huge)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_QUBIT, "beta_grid": [0.5, 2.0]}), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err == (
        "bound ordering violated on 2 row(s); first offender: model=linear J=0.5 beta=0.5 t=1.0 lambda=None\n"
    )
    assert (tmp_path / "rows.csv").read_text().count(",false\n") == 2


def test_a_compute_value_error_is_a_config_error(capsys):
    # the ValueError of building the scenario leaves main as a ConfigError does
    code = main(["compute", "--model", "lmg", "--twice-j", "0", "--beta", "1", "--t", "1", "--lam", "1"])
    assert code == 2
    assert capsys.readouterr().err == "config error: twice_j must be a positive integer, got 0\n"


def test_sweep_has_no_parallelism_option(tmp_path, capsys):
    cfg = {"model": "oat", "twice_j": 2, "beta_grid": [1.0], "t_grid": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg_path), "--parallelism", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallelism 2" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({**cfg, "parallelism": 1}), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "config error: unknown config field 'parallelism'" in capsys.readouterr().err


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
    # the subprocess imports the package from this checkout's src, with or
    # without an installed copy or a PYTHONPATH in the calling shell
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "thermalqfi", "compute", "--model", "linear",
         "--twice-j", "1", "--beta", "2", "--t", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bounds"]["ordering_ok"] is True


def _cli_bytes(args, threads, cwd):
    """stdout of ``python -m thermalqfi args`` in a subprocess with
    `threads` BLAS and OpenMP threads, importing this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "thermalqfi", *args], capture_output=True, timeout=300, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_at_or_below_81_do_not_depend_on_the_thread_count(tmp_path):
    # README's thread-count contract: every output at n <= 81 has the same
    # bytes at one and at two BLAS threads (two: start no more than that)
    from thermalqfi.sweep import figure_configs

    config = tmp_path / "fig2a.json"
    raw = {k: v for k, v in figure_configs()["fig2a"].items() if k != "output_path"}  # rows to stdout
    config.write_text(json.dumps(raw))
    runs = {
        "compute": ["compute", "--model", "lmg", "--lam", "-0.7", "--twice-j", "10", "--beta", "1.7", "--t", "2.3"],
        "sweep": ["sweep", "--config", str(config), "--format", "csv"],
    }
    for name, args in runs.items():
        one, two = (_cli_bytes(args, threads, tmp_path) for threads in (1, 2))
        assert one and one == two, name


@pytest.mark.parametrize("model, lam", [("oat", None), ("lmg", "1")], ids=["oat", "lmg"])
def test_routes_above_81_do_not_depend_on_the_thread_count(tmp_path, model, lam):
    # README's contract above 81: the three QFI routes keep their bytes at
    # one and at two BLAS threads (two: start no more than that)
    args = ["compute", "--model", model, "--twice-j", "400", "--beta", "1.7", "--t", "2.3"]
    args += [] if lam is None else ["--lam", lam]
    one, two = (json.loads(_cli_bytes(args, threads, tmp_path))["qfi"] for threads in (1, 2))
    for name in ("f_general", "f_thermal", "f_sld"):
        assert repr(one[name]) == repr(two[name]), name


# SHA-256 of `compute` stdout at one BLAS thread, recorded with numpy
# 2.4.6 on OpenBLAS 0.3.31, x86-64: (model, axis or lambda, 2J, beta, t).
COMPUTE_DIGESTS = {
    ("oat", None, 100, "1.7", "2.3"): "117709aa4e696d844098b6934e4974cf099cacf7c70f89c47a5057f32987df62",
    ("oat", None, 100, "4.19", "2.78"): "ed0452386558c1eb7237efe448d11843bfd3671a6dfbd3d91618ef4cf403f023",
    ("oat", None, 200, "1.7", "2.3"): "585d708a05eea4f684c1911c298c363a648aa59450a0d0787618d4a4b0dd88fd",
    ("oat", None, 200, "4.19", "2.78"): "7dbfec3c1f035aa795236067a8ae27f7ebfed5d81c4b987256e3d695a3f1b09e",
    ("oat", None, 400, "1.7", "2.3"): "c644eabdc2608647ef07094e92ca8c1e515e3efaa19f0ea0e2a0bb9010e72c80",
    ("oat", None, 400, "4.19", "2.78"): "63d92fdb559ee5c367542e94403d5d0e8931e18efbff3abbc17852e423b15693",
    ("lmg", "1", 100, "1.7", "2.3"): "f1c6960d0875b9d12faee5be5159a4bbe34a263126658f309ac9dc0b3f4bbd87",
    ("lmg", "1", 100, "4.19", "2.78"): "2435a5e4a251424dbc851ccfab27ff004f8c754fa0b99d153075c6c4dcd00487",
    ("lmg", "1", 200, "1.7", "2.3"): "7c63155fc2be92ab458dd55fa058af9e006755f4815a4b6e0e4ad27750601535",
    ("lmg", "1", 200, "4.19", "2.78"): "5bfaf4ff717e5803ac7479e5ff19664f5066a16198b0af97b1eb8fe5a46eb542",
    ("lmg", "1", 400, "1.7", "2.3"): "1e18546274d7e74868c8230e07f969467369a8b9c145611dde599ae6a83dda43",
    ("lmg", "1", 400, "4.19", "2.78"): "07782fb12e699318e2292c7d9cb848a168bd33612989363ab46d4b3caa3f25f5",
    ("lmg", "-0.7", 100, "1.7", "2.3"): "2dc6adb575cc7d64e68ee7119a4d84b5d72b671d46f1bf24cca224731b62db4b",
    ("lmg", "-0.7", 100, "4.19", "2.78"): "5f29941bf1cb59b505de8cf25c1a340a9d3c2aaf588586909c62a1e2b420536f",
    ("lmg", "-0.7", 200, "1.7", "2.3"): "8eadc7eb485a0e27b774b9a35618575508a22bdbfce60b53797c5e7df0f16eac",
    ("lmg", "-0.7", 200, "4.19", "2.78"): "842372ad61b43597dee08022b11a7995fdcd8cc93884fc603b99cda2895f53ae",
    ("lmg", "-0.7", 400, "1.7", "2.3"): "1040e8c7f38f88b5f803387b43f767df4f78464653b3604dbd83911380475651",
    ("lmg", "-0.7", 400, "4.19", "2.78"): "39bafb2b38d73cf0856a38d61fae55ca645bfeb0d1f3326053c1dac3d0d4a68d",
    # small spins, on the diagonal paths: J_z times J_z (linear z), H(lambda)
    # diagonal and descending (lmg at 2J = 1), and the zero-time generator
    ("linear", "z", 1, "1.7", "2.3"): "4d86d6beb11d55fe06405bf19389cfd0d0984d9dc0714ee3255060e4bffd319f",
    ("linear", "z", 10, "1.7", "2.3"): "eafb42cadd739dcc014c80fd174f1d7bf4b0721fbcc65402b7da7cd64b8b741d",
    ("lmg", "-0.7", 1, "1.7", "2.3"): "b47ba526db6d89eb3823dec5080b2081b54d1ab1abb23379109bc9184b0bdcbb",
    ("oat", None, 10, "1.7", "0"): "68c12a9dbe6c1935a40a4963f5f02cb75b4ee793cb43e2dc544cc6dbee73eebb",
    ("linear", "x", 10, "1.7", "0"): "0387b5b2ba0b0f731b0c1fd4ee757ab1141dea16f03581b2cd4eefb819d6214f",
}


@pytest.mark.parametrize(
    "model, option, twice_j, beta, t", list(COMPUTE_DIGESTS), ids=["-".join(map(str, key)) for key in COMPUTE_DIGESTS]
)
def test_compute_bytes_are_pinned(tmp_path, model, option, twice_j, beta, t):
    # every output byte of a compute point at one BLAS thread, the thread
    # count README's contract ties the bytes above 81 to; option is the
    # linear model's axis or the lmg model's lambda
    args = ["compute", "--model", model, "--twice-j", str(twice_j), "--beta", beta, "--t", t]
    args += [] if option is None else ["--axis" if model == "linear" else "--lam", option]
    digest = hashlib.sha256(_cli_bytes(args, 1, tmp_path)).hexdigest()
    assert digest == COMPUTE_DIGESTS[model, option, twice_j, beta, t]


@pytest.mark.parametrize("exc", [ArithmeticError("negative QFI"), OverflowError("exp overflow")])
def test_numerical_errors_exit_3(monkeypatch, capsys, exc):
    import thermalqfi.cli as cli

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "qfi_report", failing)
    code = main(["compute", "--model", "oat", "--twice-j", "4", "--beta", "1", "--t", "1"])
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_a_route_that_is_not_finite_exits_3(capsys):
    # at beta = 1e200, beta^2 overflows to inf and Var[C] minus the weighted
    # sum, about F / beta^2, underflows to 0: the thermal route is inf * 0
    code = main(["compute", "--model", "linear", "--twice-j", "3", "--beta", "1e200", "--t", "1"])
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: thermal-route QFI = nan is not finite\n"


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
