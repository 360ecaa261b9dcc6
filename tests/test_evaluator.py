"""The batched evaluator: route_sums over k probes and bound_rows over its
rows give, row by row, the bits of the k = 1 calls, whether the plan is
shared by every beta of one sweep time or stacked over k scenarios."""

import warnings

import numpy as np
import pytest

import thermalqfi.qfi as qfi_module
from thermalqfi import verify
from thermalqfi.bounds import bound_report, bound_scales, stacked_bound_reports
from thermalqfi.encoding import ExplicitGenerator
from thermalqfi.models import model_encoding
from thermalqfi.operators import eigendecompose
from thermalqfi.qfi import SUPPORT_TOL, probe_sums, qfi_general, qfi_sld, route_sums, spectral_plan
from thermalqfi.sweep import SweepConfig, run_sweep
from thermalqfi.thermal import boltzmann_weights, gibbs_from_spectrum, gibbs_state

from conftest import bound_reports, per_time_generator, random_hermitian

# from the infinite-temperature state through the effectively pure regime
EXTREME_BETAS = (0.0,) + tuple(10.0**e for e in range(-6, 6))
EXTREME_TIMES = (0.0, 0.5, 3.14)
MODEL_VARIANTS = [
    ("linear", "x", None), ("linear", "y", None), ("linear", "z", None),
    ("oat", "x", None), ("lmg", "x", 1.0), ("lmg", "x", -0.7),
]


@pytest.mark.parametrize("twice_j", [1, 10, 100, 101])
@pytest.mark.parametrize("model, axis, lam", MODEL_VARIANTS, ids=["x", "y", "z", "oat", "lmg", "lmg-neg"])
def test_beta_rows_equal_the_single_point_calls(model, axis, lam, twice_j):
    probe_h, scheme = model_encoding(model, twice_j, 1.0, axis=axis, lam=lam)
    decomposition = eigendecompose(probe_h, "Hamiltonian")
    scales = bound_scales(decomposition, scheme)
    generator = per_time_generator(scheme)
    weights = boltzmann_weights(decomposition.eigenvalues, EXTREME_BETAS)
    assert len(set(weights.effectively_pure)) == 2  # the grid crosses into the pure regime
    partly_dropped = False
    for t in EXTREME_TIMES:
        plan = spectral_plan(decomposition, generator(t))
        sums = route_sums(plan, weights.probabilities, weights.betas)
        rows = bound_reports(plan, sums, weights.betas, t, scales)
        pair_sums = weights.probabilities[:, plan.rows] + weights.probabilities[:, plan.cols]
        kept = pair_sums >= SUPPORT_TOL
        partly_dropped |= bool(np.any(kept.any(axis=1) & ~kept.all(axis=1)))
        for r, beta in enumerate(EXTREME_BETAS):
            rho0 = gibbs_from_spectrum(decomposition, beta)
            assert repr(weights.probabilities[r].tolist()) == repr(rho0.probabilities.tolist())
            assert (weights.log_partition[r], weights.effectively_pure[r]) == (rho0.log_partition, rho0.effectively_pure)
            point = probe_sums(plan, rho0)
            (bounds,) = bound_reports(plan, point, (rho0.beta,), t, scales)
            # repr round-trips a double, so equal reprs mean equal bits
            assert repr(tuple(field[r] for field in sums)) == repr(tuple(field[0] for field in point))
            assert repr(rows[r]) == repr(bounds), f"t={t} beta={beta}"
    # a qubit's single pair is never dropped below beta = 1e5, and J_z
    # along z commutes with the probe, so it has no pairs to drop
    if twice_j > 1 and axis != "z":
        assert partly_dropped


@pytest.mark.parametrize("twice_j", [1, 10, 100, 101])
@pytest.mark.parametrize("model, axis, lam", MODEL_VARIANTS, ids=["x", "y", "z", "oat", "lmg", "lmg-neg"])
def test_a_sweep_over_the_extreme_grid_equals_the_single_point_calls(model, axis, lam, twice_j):
    # every (t, beta) of the grid through run_sweep's stacked plans, against
    # a plan and a k = 1 evaluator call per point
    raw = {"model": model, "twice_j": twice_j, "beta_grid": list(EXTREME_BETAS), "t_grid": list(EXTREME_TIMES)}
    raw.update({"axis": axis} if model == "linear" else {"lambda": lam} if model == "lmg" else {})
    rows = run_sweep(SweepConfig.from_dict({**raw, "outputs": ["qfi_general", "qfi_thermal", "qfi_sld",
                                                                "variance_bound", "seminorm_bound",
                                                                "product_bound", "gap_bounds"]}))
    probe_h, scheme = model_encoding(model, twice_j, 1.0, axis=axis, lam=lam)
    decomposition = eigendecompose(probe_h, "Hamiltonian")
    scales = bound_scales(decomposition, scheme)
    generator = per_time_generator(scheme)
    expected = []
    for t in EXTREME_TIMES:
        plan = spectral_plan(decomposition, generator(t))
        for beta in EXTREME_BETAS:
            rho0 = gibbs_from_spectrum(decomposition, beta)
            sums = probe_sums(plan, rho0)
            (bounds,) = bound_reports(plan, sums, (rho0.beta,), t, scales)
            expected.append((t, beta, sums.f_general[0], sums.f_thermal[0], sums.f_sld[0], bounds.variance_bound,
                             bounds.seminorm_bound, bounds.product_bound, bounds.convexity_bound,
                             bounds.gap_variance_bound, bounds.gap_seminorm_bound, bounds.ordering_ok))
    got = [(row.t, row.beta, row.f_general, row.f_thermal, row.f_sld, row.variance_bound, row.seminorm_bound,
            row.product_bound, row.convexity_bound, row.gap_variance_bound, row.gap_seminorm_bound,
            row.ordering_ok) for row in rows]
    assert repr(got) == repr(expected)


def _block_tridiagonal(rng, n, split):
    """A real symmetric tridiagonal matrix with its coupling between
    levels split and split + 1 cut, so it is block diagonal."""
    off = rng.normal(size=n - 1)
    off[split] = 0.0
    return np.diag(rng.normal(size=n)) + np.diag(off, 1) + np.diag(off, -1)


def test_tridiagonal_stack_with_zeros_in_its_union_support_equals_bound_report():
    rng = np.random.default_rng(11)
    n, k = 6, 12
    splits = rng.integers(0, n - 1, size=k)
    hamiltonians = np.array([_block_tridiagonal(rng, n, split) for split in splits])
    generators = np.array([_block_tridiagonal(rng, n, split) for split in splits])
    betas, times = rng.uniform(0.05, 10.0, size=k), rng.uniform(0.1, 3.14, size=k)
    # eigh keeps each block's eigenvectors on that block, so h and C vanish
    # exactly across it, at pairs that other scenarios of the stack couple
    _, vectors = np.linalg.eigh(hamiltonians)
    h_eig = vectors.mT @ (times[:, None, None] * generators) @ vectors
    union = (h_eig != 0.0).any(axis=0)
    np.fill_diagonal(union, False)
    assert np.count_nonzero(h_eig[:, union] == 0.0) > 0
    reports = stacked_bound_reports(hamiltonians, generators, betas, times)
    for report, hamiltonian, generator, beta, t in zip(reports, hamiltonians, generators, betas, times):
        assert repr(report) == repr(bound_report(gibbs_state(hamiltonian, beta), ExplicitGenerator(generator, t)))


def test_pure_gibbs_probe_divides_no_zero_weight():
    rng = np.random.default_rng(3)
    dim = 5
    probe = gibbs_state(random_hermitian(rng, dim), 1e4)
    h = random_hermitian(rng, dim)
    # every excited weight is at the floor, so each pair of two excited
    # levels weighs less than SUPPORT_TOL and is dropped
    assert probe.effectively_pure and 2.0 * probe.probabilities[1:].max() < SUPPORT_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a 0/0 on the dropped pairs would warn
        general, sld = qfi_general(probe, h), qfi_sld(probe, h)
    state = probe.eigenvectors[:, 0]
    variance = np.vdot(state, h @ h @ state).real - np.vdot(state, h @ state).real ** 2
    # a pure probe: both routes are 4 Var[h] in the occupied state
    assert general == pytest.approx(4.0 * variance, rel=1e-12)
    assert sld == pytest.approx(4.0 * variance, rel=1e-12)


def _count_tanhc(monkeypatch):
    calls = []
    original = qfi_module.tanhc

    def counting(x):
        calls.append(np.shape(x))
        return original(x)

    monkeypatch.setattr(qfi_module, "tanhc", counting)
    return calls


@pytest.mark.parametrize(
    "twice_j, expected",
    # at most DENSE_MAX_DIM^2 // n^2 times per chunk, in chunks of about
    # equal size: 133 at n = 7, so all four times are one chunk of 16 rows;
    # 3 at n = 41, so two chunks of 2 times (8 rows each)
    [(6, [16]), (40, [8, 8])],
    ids=["one-chunk", "two-chunks"],
)
def test_tanhc_runs_once_per_time_chunk(monkeypatch, twice_j, expected):
    calls = _count_tanhc(monkeypatch)
    config = SweepConfig.from_dict({
        "model": "oat", "twice_j": twice_j, "beta_grid": [0.1, 0.9, 2.0, 7.5], "t_grid": [0.0, 0.5, 1.0, 3.14],
    })
    run_sweep(config)
    assert [shape[0] for shape in calls] == expected


def test_tanhc_runs_once_per_criterion_4_stack(monkeypatch):
    calls = _count_tanhc(monkeypatch)
    sizes = [scenario[0].shape[0] for scenario in verify._random_scenarios(verify.DEFAULT_SEED)]
    reports = list(verify._random_reports(verify.DEFAULT_SEED))
    assert len(reports) == verify.RANDOM_SCENARIO_COUNT
    # one call per dimension 2..8, over that dimension's whole stack
    assert [shape[0] for shape in calls] == [sizes.count(dim) for dim in range(2, 9)]



def test_a_long_beta_grid_is_summed_in_chunks_no_larger_than_the_inputs(monkeypatch):
    # no larger than the inputs or the chunk floor, whichever is larger
    # lmg couples almost every pair of levels, so its support is nearly n^2
    probe_h, scheme = model_encoding("lmg", 10, 1.0, lam=1.0)
    decomposition = eigendecompose(probe_h, "Hamiltonian")
    plan = spectral_plan(decomposition, per_time_generator(scheme)(1.0))
    betas = np.linspace(0.05, 5.0, 400).tolist()
    weights = boltzmann_weights(decomposition.eigenvalues, betas)
    chunks = []
    original = qfi_module._generator_sums

    def recording(p, *arrays):
        chunks.append(p.shape[0])
        return original(p, *arrays)

    monkeypatch.setattr(qfi_module, "_generator_sums", recording)
    sums = route_sums(plan, weights.probabilities, weights.betas)
    support = len(plan.rows)
    assert sum(chunks) == len(betas) and len(chunks) > 1
    inputs = plan.generator.matrix.size + weights.probabilities.size
    assert max(chunks) * support <= max(inputs, qfi_module.CHUNK_FLOOR_ENTRIES)
    for r, beta in enumerate(betas):
        single = route_sums(plan, weights.probabilities[r:r + 1], [beta])
        assert repr(tuple(field[r] for field in sums)) == repr(tuple(field[0] for field in single))
