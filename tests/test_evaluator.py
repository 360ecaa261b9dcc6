"""The batched evaluator: route_sums over k probes and bound_rows over its
rows give, row by row, the bits of the k = 1 calls, whether the plan is
shared by every beta of one sweep time or stacked over k scenarios."""

import warnings

import numpy as np
import pytest

import thermalqfi.qfi as qfi_module
from thermalqfi import verify
from thermalqfi.bounds import bound_report, bound_rows, bound_scales, evaluate_point, stacked_bound_reports
from thermalqfi.encoding import ExplicitGenerator, generator_family
from thermalqfi.models import model_encoding
from thermalqfi.operators import eigendecompose
from thermalqfi.qfi import SUPPORT_TOL, qfi_general, qfi_sld, route_sums, spectral_plan
from thermalqfi.sweep import SweepConfig, run_sweep
from thermalqfi.thermal import SpectralProbe, boltzmann_weights, gibbs_from_spectrum, gibbs_state

from conftest import random_hermitian

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
    generator = generator_family(scheme)
    weights = boltzmann_weights(decomposition.eigenvalues, EXTREME_BETAS)
    assert len(set(weights.effectively_pure)) == 2  # the grid crosses into the pure regime
    partly_dropped = False
    for t in EXTREME_TIMES:
        plan = spectral_plan(decomposition, generator(t))
        sums = route_sums(plan, weights.probabilities, weights.betas)
        rows = bound_rows(plan, sums, weights.betas, t, scales)
        pair_sums = weights.probabilities[:, plan.h_pairs.rows] + weights.probabilities[:, plan.h_pairs.cols]
        kept = pair_sums >= SUPPORT_TOL
        partly_dropped |= bool(np.any(kept.any(axis=1) & ~kept.all(axis=1)))
        for r, beta in enumerate(EXTREME_BETAS):
            rho0 = gibbs_from_spectrum(decomposition, beta)
            assert repr(weights.probabilities[r].tolist()) == repr(rho0.probabilities.tolist())
            assert (weights.log_partition[r], weights.effectively_pure[r]) == (rho0.log_partition, rho0.effectively_pure)
            report, bounds = evaluate_point(plan, rho0, scales, t)
            # repr round-trips a double, so equal reprs mean equal bits
            assert repr(tuple(field[r] for field in sums)) == repr(tuple(field[0] for field in report.sums))
            assert repr(rows[r]) == repr(bounds), f"t={t} beta={beta}"
    # a qubit's single pair is never dropped below beta = 1e5, and J_z
    # along z commutes with the probe, so it has no pairs to drop
    if twice_j > 1 and axis != "z":
        assert partly_dropped


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
    union = qfi_module._support(np.abs(h_eig) ** 2)
    assert np.count_nonzero(union.values == 0.0) > 0
    reports = stacked_bound_reports(hamiltonians, generators, betas, times)
    for report, hamiltonian, generator, beta, t in zip(reports, hamiltonians, generators, betas, times):
        assert repr(report) == repr(bound_report(gibbs_state(hamiltonian, beta), ExplicitGenerator(generator, t)))


def test_pure_spectral_probe_divides_no_zero_weight():
    rng = np.random.default_rng(3)
    dim = 5
    _, vectors = np.linalg.eigh(random_hermitian(rng, dim))
    h = random_hermitian(rng, dim)
    probe = SpectralProbe(np.eye(dim)[0], vectors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a 0/0 on the dropped pairs would warn
        general, sld = qfi_general(probe, h), qfi_sld(probe, h)
    state = vectors[:, 0]
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


def test_tanhc_runs_once_per_sweep_time(monkeypatch):
    calls = _count_tanhc(monkeypatch)
    config = SweepConfig.from_dict({
        "model": "oat", "twice_j": 6, "beta_grid": [0.1, 0.9, 2.0, 7.5], "t_grid": [0.0, 0.5, 1.0, 3.14],
    })
    run_sweep(config)
    assert [shape[0] for shape in calls] == [4, 4, 4, 4]


def test_tanhc_runs_once_per_criterion_4_stack(monkeypatch):
    calls = _count_tanhc(monkeypatch)
    sizes = [scenario[0].shape[0] for scenario in verify._random_scenarios(verify.DEFAULT_SEED)]
    reports = list(verify._random_reports(verify.DEFAULT_SEED))
    assert len(reports) == verify.RANDOM_SCENARIO_COUNT
    # one call per dimension 2..8, over that dimension's whole stack
    assert [shape[0] for shape in calls] == [sizes.count(dim) for dim in range(2, 9)]



def test_a_long_beta_grid_is_summed_in_chunks_no_larger_than_the_inputs(monkeypatch):
    # lmg couples almost every pair of levels, so its support is nearly n^2
    probe_h, scheme = model_encoding("lmg", 10, 1.0, lam=1.0)
    decomposition = eigendecompose(probe_h, "Hamiltonian")
    plan = spectral_plan(decomposition, generator_family(scheme)(1.0))
    betas = np.linspace(0.05, 5.0, 400).tolist()
    weights = boltzmann_weights(decomposition.eigenvalues, betas)
    chunks = []
    original = qfi_module._generator_sums

    def recording(p, var_i, h):
        chunks.append(p.shape[0])
        return original(p, var_i, h)

    monkeypatch.setattr(qfi_module, "_generator_sums", recording)
    sums = route_sums(plan, weights.probabilities, weights.betas)
    support = max(len(plan.h_pairs.rows), len(plan.c_pairs.rows))
    assert sum(chunks) == len(betas) and len(chunks) > 1
    assert max(chunks) * support <= plan.generator.size + weights.probabilities.size
    for r, beta in enumerate(betas):
        single = route_sums(plan, weights.probabilities[r:r + 1], [beta])
        assert repr(tuple(field[r] for field in sums)) == repr(tuple(field[0] for field in single))
