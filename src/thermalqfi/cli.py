"""Command-line interface: compute, sweep, verify, figures.

Exit codes: 0 success, 1 verification failure (including a sweep row that
violates the bound ordering), 2 config error (including an output path
that cannot be written), 3 numerical failure (including a floating-point
overflow).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bounds import BoundReport, bound_report
from .models import AXES, MODELS, build_scenario, check_options, closed_qfi, closed_variance
from .operators import EigensolverError
from .qfi import QfiReport, qfi_report
from .sweep import (
    ConfigError,
    SweepConfig,
    emit_csv,
    emit_json,
    figure_configs,
    load_config,
    render_csv,
    render_json,
    run_sweep,
)
from .thermal import beta_from_polarization, polarization
from .verify import DEFAULT_SEED, run_verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalqfi",
        description="Dynamic QFI for thermal spin probes: single points, grid sweeps, "
        "the acceptance battery, and the canonical figure configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate a single (model, J, beta, t) point")
    compute.add_argument("--model", required=True, choices=MODELS)
    compute.add_argument("--twice-j", required=True, type=int, help="2J, so half-integer spins stay exact")
    temp = compute.add_mutually_exclusive_group(required=True)
    temp.add_argument("--beta", type=float, help="inverse temperature (k_B = 1)")
    temp.add_argument("--p", type=float, help="polarization tanh(beta/2) in [0, 1)")
    compute.add_argument("--t", required=True, type=float, help="evolution time")
    compute.add_argument("--axis", choices=AXES, help="encoding axis (linear model only; default x)")
    compute.add_argument("--lam", type=float, help="encoding parameter (lmg model only)")
    compute.add_argument("--out", help="write the JSON report here instead of stdout")

    swp = sub.add_parser("sweep", help="run a grid sweep from a JSON config")
    swp.add_argument("--config", required=True, help="path to the sweep config")
    swp.add_argument("--out", help="output path (overrides the config's output_path; default stdout)")
    swp.add_argument("--format", choices=("csv", "json"), default="csv")

    ver = sub.add_parser("verify", help="run the full acceptance battery")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the randomized bound audit")
    ver.add_argument("--out", help="path for the machine-readable JSON summary")

    figs = sub.add_parser("figures", help="emit the four canonical figure sweep configs")
    figs.add_argument("--out", default="figures", help="directory for the config files")
    figs.add_argument(
        "--run",
        action="store_true",
        help="also run each config, write its CSV and report whether every row is ordering_ok",
    )
    return parser


def _cmd_compute(args) -> int:
    beta = args.beta if args.beta is not None else beta_from_polarization(args.p)
    axis, lam = check_options(args.model, args.axis, args.lam)
    try:
        scenario = build_scenario(args.model, args.twice_j, beta, args.t, axis=axis, lam=lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = qfi_report(scenario.probe, scenario.h)
    bounds = bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)
    payload = {
        "model": scenario.model,
        "J": scenario.twice_j / 2.0,
        "beta": scenario.beta,
        "P": polarization(scenario.beta),
        "t": scenario.t,
        "lambda": scenario.lam,
        "axis": scenario.axis,
        # the reports' printed fields; BoundReport.f repeats qfi.f_sld
        "qfi": {f.name: getattr(report, f.name) for f in fields(QfiReport) if f.repr},
        "bounds": {f.name: getattr(bounds, f.name) for f in fields(BoundReport) if f.name != "f"},
        "closed_qfi": closed_qfi(scenario),
        "closed_variance": closed_variance(scenario),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK if bounds.ordering_ok else EXIT_VERIFY_FAILED


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    rows = run_sweep(config)
    out = args.out or config.output_path
    render, emit = (render_csv, emit_csv) if args.format == "csv" else (render_json, emit_json)
    if out:
        emit(rows, out)
    else:
        sys.stdout.write(render(rows))
    bad = [row for row in rows if not row.ordering_ok]
    if bad:
        first = bad[0]
        print(
            f"bound ordering violated on {len(bad)} row(s); first offender: "
            f"model={first.model} J={first.j} beta={first.beta} t={first.t} lambda={first.lam}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_figures(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    violated = False
    for name, cfg_dict in figure_configs().items():
        cfg_path = out_dir / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg_dict, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {cfg_path}")
        if args.run:
            config = SweepConfig.from_dict(cfg_dict)
            rows = run_sweep(config)
            csv_path = out_dir / config.output_path
            emit_csv(rows, csv_path)
            ok = all(row.ordering_ok for row in rows)
            print(f"{name}: {len(rows)} rows -> {csv_path} (ordering_ok everywhere: {ok})")
            violated = violated or not ok
    return EXIT_VERIFY_FAILED if violated else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a floating-point overflow, division by zero or invalid operation
        # is a numerical failure (exit 3), not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "compute":
                return _cmd_compute(args)
            if args.command == "sweep":
                return _cmd_sweep(args)
            if args.command == "verify":
                return run_verify(seed=args.seed, out_path=args.out)
            if args.command == "figures":
                return _cmd_figures(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (EigensolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except (ValueError, OSError) as exc:  # an unwritable output path is a config fault too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG_ERROR
