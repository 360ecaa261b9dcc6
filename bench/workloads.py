"""The three benchmark workloads and the correctness gate on every op.

A workload is a list of timed units. Each unit is bracketed by reference
kernels and counts as ``ops`` operations; a pass runs every unit once.

- ``figures``: the four canonical sweeps (fig2a, fig2b, fig3a, fig3b),
  one unit per sweep, one op per row (202 rows at 2J = 10). Small
  matrices, so per-call Python work dominates, and 138 of the rows share
  (model, J, t) across temperatures: the case for factoring once and
  sweeping many temperatures. The inputs are fixed so the recorded CSV
  digests stay meaningful; the seed is not used.
- ``large_spin``: the ``compute`` path for oat and lmg at 2J = 100, 200
  and 400, one unit and one op per point, each with one (beta, t) drawn
  from the seed. Dense O(n^3) eigensolves dominate and no temperature is
  shared, so reuse across temperatures has nothing to gain here.
- ``verify``: the 11-criterion acceptance battery with the workload seed,
  one unit and one op per criterion. About 2,500 tiny generic problems;
  the only workload that runs the finite-difference generator, the
  matrix exponential and the sweep thread pool.

Builders import thermalqfi inside their bodies, so they bind whatever
module objects the harness imported last.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from reference import DenseKernel, SmallKernel

# SHA-256 of ``render_csv(run_sweep(cfg))`` for each canonical figure sweep,
# recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (one BLAS thread), x86-64.
FIGURE_DIGESTS = {
    "fig2a": "da7bcd11b8507bf4d2d36bf82c203bb01eee54ff41feaff4f502730a02d4ba13",
    "fig2b": "a893be15a7d22841d0667a9b10f7bd66d6aad68ef38bd3d4d78d27afbce12748",
    "fig3a": "9299ce4314c250e22c12d992cd54c7bd63117bfe6c7b3b13816c4710ed158c9f",
    "fig3b": "9617fd65dfa8a77da88d655387c61c0ec80e7dfe65113db5da2fcaa21b6ea2a6",
}

# three-route spread, relative to max |F|, above which a row or point fails
SPREAD_RTOL = 1e-8

LARGE_SPIN_TWICE_J = (100, 200, 400)
LARGE_SPIN_MODELS = ("oat", "lmg")
LMG_LAMBDA = 1.0
# the temperature range of the figure configs (fig3b spans beta 0.05..5,
# fig2 polarizations 0.05..0.95 map into it) and their time range (fig3a)
BETA_RANGE = (0.05, 5.0)
T_RANGE = (0.1, 6.3)


@dataclass(frozen=True)
class Unit:
    """One timed call. ``run`` returns (failed op count, output)."""

    name: str
    ops: int
    run: Callable[[], tuple[int, object]]


def route_spread(f_general: float, f_thermal: float, f_sld: float) -> float:
    """Largest pairwise difference of the three QFI routes over max |F|.

    Computed here rather than taken from ``QfiReport.max_pairwise_rel_diff``,
    which divides by max(1, F) and so hides disagreement when F is small.
    """
    values = (f_general, f_thermal, f_sld)
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return max(abs(a - b) for a, b in combinations(values, 2)) / scale


def failed_rows(rows, csv_text: str, digest: str) -> int:
    """Rows of one figure sweep that fail the gate.

    A CSV whose SHA-256 differs from the recorded digest fails every row;
    otherwise a row fails on ``ordering_ok`` false or a route spread above
    SPREAD_RTOL.
    """
    if hashlib.sha256(csv_text.encode("utf-8")).hexdigest() != digest:
        return len(rows)
    return sum(
        1
        for row in rows
        if not row.ordering_ok or route_spread(row.f_general, row.f_thermal, row.f_sld) > SPREAD_RTOL
    )


def figure_sweep_configs() -> dict:
    """The canonical figure sweeps as SweepConfigs, in figure order."""
    from thermalqfi import sweep

    configs = {}
    for name, raw in sweep.figure_configs().items():
        raw = {k: v for k, v in raw.items() if k not in ("metadata", "output_path")}
        configs[name] = sweep.SweepConfig.from_dict(raw)
    return configs


def _sweep_unit(name: str, config) -> Unit:
    from thermalqfi import sweep

    def run():
        rows = sweep.run_sweep(config)
        text = sweep.render_csv(rows)
        return failed_rows(rows, text, FIGURE_DIGESTS[name]), text

    temperatures = config.beta_grid if config.beta_grid is not None else config.p_grid
    return Unit(name, len(config.t_grid) * len(temperatures), run)


def build_figures(seed: int) -> list[Unit]:
    return [_sweep_unit(name, cfg) for name, cfg in figure_sweep_configs().items()]


def large_spin_points(seed: int) -> list[tuple[str, int, float, float]]:
    """(model, 2J, beta, t) for every large-spin point, drawn from the seed."""
    rng = random.Random(seed)
    points = []
    for model in LARGE_SPIN_MODELS:
        for twice_j in LARGE_SPIN_TWICE_J:
            points.append((model, twice_j, rng.uniform(*BETA_RANGE), rng.uniform(*T_RANGE)))
    return points


def _point_unit(model: str, twice_j: int, beta: float, t: float) -> Unit:
    from thermalqfi import bounds, models, qfi, thermal

    lam = LMG_LAMBDA if model == "lmg" else None

    def run():
        scenario = models.build_scenario(model, twice_j, beta, t, lam=lam)
        report = qfi.qfi_report(scenario.probe, scenario.h)
        chain = bounds.bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)
        closed = (
            thermal.polarization(scenario.beta),
            models.closed_qfi(scenario),
            models.closed_variance(scenario),
        )
        spread = route_spread(report.f_general, report.f_thermal, report.f_sld)
        ok = chain.ordering_ok and spread <= SPREAD_RTOL
        return (0 if ok else 1), (report, chain, closed)

    return Unit(f"{model}-{twice_j}", 1, run)


def build_large_spin(seed: int) -> list[Unit]:
    return [_point_unit(*point) for point in large_spin_points(seed)]


def _criterion_unit(number: int, check, seed: int) -> Unit:
    from thermalqfi import verify

    def run():
        (result,) = verify.run_all(seed, checks=(check,))
        return (0 if result.passed else 1), result

    return Unit(f"c{number}", 1, run)


def build_verify(seed: int) -> list[Unit]:
    from thermalqfi import verify

    return [_criterion_unit(i, check, seed) for i, check in enumerate(verify.ALL_CHECKS, start=1)]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Unit]]
    kernel: type
    seed_note: str


WORKLOADS = {
    "figures": Workload(
        "figures", build_figures, SmallKernel,
        "fixed inputs (the canonical figure configs); the seed is not used",
    ),
    "large_spin": Workload(
        "large_spin", build_large_spin, DenseKernel,
        "the seed draws one (beta, t) per point",
    ),
    "verify": Workload(
        "verify", build_verify, SmallKernel,
        "the seed is passed to verify.run_all",
    ),
}
