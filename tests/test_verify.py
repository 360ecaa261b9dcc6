"""The failure branches of the verify criteria that read their values from
sweeps: each reports the same detail line and repro config as when the
values were computed point by point. Criterion 4's stacked random audit
gives the single-point reports and detail lines."""

import dataclasses
import re
import sys

import numpy as np
import pytest

import thermalqfi.operators as operators
import thermalqfi.qfi as qfi_module
from thermalqfi import verify
from thermalqfi.bounds import bound_report
from thermalqfi.encoding import ExplicitGenerator, TransformedLocalGenerator
from thermalqfi.operators import EigensolverError
from thermalqfi.thermal import gibbs_state

from conftest import record_solver_calls


def _rewrite_route_sums(monkeypatch, rewrite):
    """Wrap the evaluator at every module binding: rewrite(p, sums) gives
    the RouteSums returned for the probabilities p."""
    original = qfi_module.route_sums

    def patched(plan, p, betas):
        return rewrite(p, original(plan, p, betas))

    for name, module in list(sys.modules.items()):
        if name.startswith("thermalqfi") and getattr(module, "route_sums", None) is original:
            monkeypatch.setattr(module, "route_sums", patched)


def _unit_general_route(monkeypatch):
    _rewrite_route_sums(monkeypatch, lambda p, sums: sums._replace(f_general=[1.0] * len(p)))


def test_high_temperature_vanishing_reports_the_exceeded_ceilings(monkeypatch):
    _unit_general_route(monkeypatch)
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
    _unit_general_route(monkeypatch)
    result = verify.check_oat_temperature_peak()
    assert (result.criterion, result.name, result.passed) == (7, "twisting temperature optimum", False)
    assert result.detail == f"no interior maximum: F over P = {[1.0] * 19}"
    assert result.repro is None


def test_three_way_agreement_catches_a_small_relative_disagreement(monkeypatch):
    """1e-6 relative on f_thermal at F ~ 4e-4 is 4e-10 absolute, which a
    scale of max(1, F) would forgive."""
    original = verify._grid_rows

    def perturbed(variants, twice_js):
        for model, twice_j, beta, t, lam, row in original(variants, twice_js):
            if (model, twice_j, beta, t, lam) == ("lmg", 2, 0.1, 0.5, 0.5):
                row = dataclasses.replace(row, f_thermal=row.f_thermal * (1.0 + 1e-6))
            yield model, twice_j, beta, t, lam, row

    monkeypatch.setattr(verify, "_grid_rows", perturbed)
    result = verify.check_three_way_agreement()
    assert (result.criterion, result.passed) == (1, False)
    assert result.detail == (
        "route disagreement 1.000e-06 at lmg 2J=2 beta=0.1 t=0.5 lam=0.5 (f_general=0.00039226466150438927, "
        "f_thermal=0.0003922650537690856, f_sld=0.00039226466150442434)"
    )
    assert result.repro == verify._point_config("lmg", 2, 0.1, 0.5, 0.5)


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


def _single_point(scenario):
    hamiltonian, generator, beta, t = scenario
    return bound_report(gibbs_state(hamiltonian, beta), ExplicitGenerator(generator, t))


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1, 7])
def test_stacked_reports_equal_the_single_point_reports(seed):
    scenarios = list(verify._random_scenarios(seed))
    indices = []
    for index, report in verify._random_reports(seed):
        indices.append(index)
        # repr round-trips a double, so equal reprs mean equal bits
        assert repr(report) == repr(_single_point(scenarios[index])), f"scenario {index}"
    assert sorted(indices) == list(range(verify.RANDOM_SCENARIO_COUNT))


def test_one_solver_call_per_dimension_and_quantity(monkeypatch):
    calls = record_solver_calls(monkeypatch, "eigh", "eigvalsh")
    scenarios = list(verify._random_scenarios(verify.DEFAULT_SEED))
    sizes = [scenario[0].shape[0] for scenario in scenarios]
    reports = list(verify._random_reports(verify.DEFAULT_SEED))
    # eigvalsh on A, eigh on H, eigvalsh on C and H; a stack's leading axis is its size
    assert [k for k, _ in calls] == [sizes.count(dim) for dim in range(2, 9) for _ in range(4)]
    # stacks in ascending dimension, each in draw order
    assert [index for index, _ in reports] == sorted(range(len(sizes)), key=sizes.__getitem__)


def _no_grid(monkeypatch):
    monkeypatch.setattr(verify, "_grid_rows", lambda *args: iter(()))


def _huge_qfi_where(monkeypatch, condition):
    """The general and SLD routes read 1e300 on every row p with condition(p)."""

    def rewrite(p, sums):
        huge = [condition(row) for row in p]
        return sums._replace(
            f_general=[1e300 if h else f for h, f in zip(huge, sums.f_general)],
            f_sld=[1e300 if h else f for h, f in zip(huge, sums.f_sld)],
        )

    _rewrite_route_sums(monkeypatch, rewrite)


def test_bound_chain_reports_an_injected_violation(monkeypatch):
    _no_grid(monkeypatch)
    _huge_qfi_where(monkeypatch, lambda p: True)
    result = verify.check_bound_chain()
    assert (result.criterion, result.name, result.passed, result.repro) == (4, "bound ordering chain", False, None)
    assert result.detail == (
        "ordering violated on random scenario 0 (seed 20240611, dim 5, beta 5.650179841085711, t 0.418368107667338): "
        "BoundReport(f=1e+300, variance_bound=335.42509351886423, seminorm_bound=355.0523179669273, "
        "product_bound=1712.3888458333695, convexity_bound=4.735800665429704, gap_variance_bound=128.80627053868096, "
        "gap_seminorm_bound=136.34330229637933, min_gap=0.571211570818599, noncommutativity=6.669816726164058, "
        "ordering_ok=False)"
    )


def test_bound_chain_reports_the_lowest_violating_scenario(monkeypatch):
    """The dim-5 stack comes first (scenario 0) and violates at scenario 74;
    the lowest violation is scenario 1, in the dim-3 stack."""
    _no_grid(monkeypatch)
    _huge_qfi_where(monkeypatch, lambda p: len(p) == 3 or (len(p) == 5 and p[0] < 0.5))
    result = verify.check_bound_chain()
    assert result.detail == (
        "ordering violated on random scenario 1 (seed 20240611, dim 3, beta 8.100999886402791, t 1.939326616218242): "
        "BoundReport(f=1e+300, variance_bound=4121.936482468714, seminorm_bound=4343.793774182643, "
        "product_bound=7646.251843703916, convexity_bound=18.823431058971654, gap_variance_bound=97.34820841978593, "
        "gap_seminorm_bound=102.58783546524728, min_gap=1.6064900333870025, noncommutativity=16.27143924097198, "
        "ordering_ok=False)"
    )


def test_bound_chain_raises_the_single_point_certificate_error(monkeypatch):
    """The dim-2 stack runs first; its matrix 0 is the first dim-2 draw,
    whose single-point certificate has these residuals and scale."""
    _no_grid(monkeypatch)
    monkeypatch.setattr(operators, "ORTHONORMALITY_TOL", -1.0)
    message = (
        "eigendecomposition of Hamiltonian stack misses its residual contract at matrix 0: "
        "orthonormality 1.319e-16, reconstruction 4.448e-16 (scale 1.571e+00)"
    )
    with pytest.raises(EigensolverError, match=f"^{re.escape(message)}$"):
        verify.check_bound_chain()
