"""The failure branches of the verify criteria that read their values from
sweeps: each reports the same detail line and repro config as when the
values were computed point by point. Criterion 4's stacked random audit
gives the single-point reports and detail lines."""

import dataclasses
import hashlib
import json
import re
import sys

import numpy as np
import pytest

import thermalqfi.operators as operators
import thermalqfi.qfi as qfi_module
from thermalqfi import verify
from thermalqfi.bounds import bound_report
from thermalqfi.encoding import ExplicitGenerator
from thermalqfi.operators import EigensolverError, as_hermitian
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


def test_generator_routes_decompose_each_matrix_once(monkeypatch):
    """Per (2J, lambda), H(lambda) serves the spectral kernel at both
    times and U(lambda) at both steps, and each H(lambda +- step) both
    times: no matrix reaches eigh twice."""
    inputs = record_solver_calls(monkeypatch, "eigh", key=lambda a: (a.shape, a.dtype.str, a.tobytes()))
    assert verify.check_lmg_generator_routes().passed
    # H(lambda) and H(lambda +- 1e-5) for each of 6 (2J, lambda) pairs, and
    # H(lambda +- 5e-6) for each of the 4 points above the noise floor
    assert len(inputs) == len(set(inputs)) == 6 * 3 + 4 * 2


def test_generator_routes_report_an_offset_finite_difference(monkeypatch):
    original = verify.generator_fd

    def offset(scheme):
        generator = original(scheme)
        return as_hermitian(generator.matrix + 1e-3 * np.eye(generator.dim))

    monkeypatch.setattr(verify, "generator_fd", offset)
    result = verify.check_lmg_generator_routes()
    assert (result.criterion, result.name, result.passed) == (9, "generator route cross-check", False)
    assert result.detail == "2J=2 lam=0.5 t=1.0: fd vs spectral rel gap 1.000e-03"
    assert result.repro is None


def _reference_hermitian(rng, dim):
    """The per-matrix draw the stream is pinned to: two (dim, dim) normal
    calls, symmetrized out of place."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (x + x.conj().T)


def _reference_scenarios(seed):
    rng = np.random.default_rng(seed)
    for _ in range(verify.RANDOM_SCENARIO_COUNT):
        dim = int(rng.integers(2, 9))
        hamiltonian = _reference_hermitian(rng, dim)
        generator = _reference_hermitian(rng, dim)
        yield hamiltonian, generator, float(rng.uniform(0.05, 10.0)), float(rng.uniform(0.1, 3.14))


def _bits(*values):
    return [np.asarray(value).view(np.uint64).tolist() for value in values]


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1, 7])
def test_draws_keep_the_bits_of_the_per_matrix_draws(monkeypatch, seed):
    reference = list(_reference_scenarios(seed))
    scenarios = list(verify._random_scenarios(seed))
    assert len(scenarios) == len(reference)
    for index, (got, want) in enumerate(zip(scenarios, reference)):
        assert _bits(*got) == _bits(*want), f"scenario {index}"
    # each stack's H and A, formed at once from its dimension's draws
    stacks = []

    def recording(hamiltonians, generators, betas, times):
        stacks.append((hamiltonians, generators, betas, times))
        return [None] * len(betas)

    monkeypatch.setattr(verify, "stacked_bound_reports", recording)
    indices = [index for index, _ in verify._random_reports(seed)]
    drawn = iter(indices)
    for stack in stacks:
        for scenario in zip(*stack):
            index = next(drawn)
            assert _bits(*scenario) == _bits(*reference[index]), f"scenario {index}"
    assert sorted(indices) == list(range(verify.RANDOM_SCENARIO_COUNT))


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
    calls = record_solver_calls(monkeypatch, "eigh", "eigvalsh", key=lambda a: a.shape)
    scenarios = list(verify._random_scenarios(verify.DEFAULT_SEED))
    sizes = [scenario[0].shape[0] for scenario in scenarios]
    reports = list(verify._random_reports(verify.DEFAULT_SEED))
    # eigh on H (which also gives ||H||), eigvalsh on C and on A, each on
    # the stack of every draw of one dimension
    assert calls == [(sizes.count(dim), dim, dim) for dim in range(2, 9) for _ in range(3)]
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
        "product_bound=1712.3888458333693, convexity_bound=4.735800665429704, gap_variance_bound=128.80627053868096, "
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
        "product_bound=7646.25184370391, convexity_bound=18.823431058971654, gap_variance_bound=97.34820841978593, "
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


# SHA-256 of json.dumps([asdict(check) for check in verify.run_all(seed)],
# sort_keys=True): every criterion's number, name, verdict, detail line
# and repro config
VERIFY_DIGESTS = {
    verify.DEFAULT_SEED: "78edf6c8b700b408e27bb0af02ace70c57420717c1b80cf12937e500e20915ca",
    1: "f502fb7da0e16f13cdcb733870953154666dca7683733abacbcd0026068d6b25",
    7: "1fb98b4f691643602394f7fb1d1cd7c7cd904ab1559c51a168bfd9de1f97373c",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_verify_bytes_are_pinned(seed):
    checks = [dataclasses.asdict(check) for check in verify.run_all(seed)]
    digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[seed]
