import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thermalqfi.encoding import ExplicitGenerator, transformed_generator
from thermalqfi.models import build_scenario
from thermalqfi.operators import NotHermitianError
from thermalqfi.qfi import QfiReport, qfi_general, qfi_report, qfi_sld, qfi_thermal, spectral_plan, tanhc
from thermalqfi.spin import spin_operators
from thermalqfi.thermal import SpectralProbe, gibbs_state

from conftest import hermitian_pairs, random_hermitian, record_solver_calls


class TestTanhc:
    def test_removable_singularity(self):
        assert tanhc(0.0) == 1.0

    def test_direct_value(self):
        assert tanhc(2.0) == pytest.approx(math.tanh(2.0) / 2.0, abs=1e-15)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_even(self, x):
        assert tanhc(-x) == tanhc(x)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_range(self, x):
        value = tanhc(x)
        assert 0.0 < value <= 1.0

    def test_series_branch_is_continuous(self):
        below, above = tanhc(0.999e-5), tanhc(1.001e-5)
        assert abs(below - above) <= 1e-12

    def test_array_input(self):
        xs = np.array([0.0, 1.0, -1.0])
        out = tanhc(xs)
        np.testing.assert_allclose(out, [1.0, math.tanh(1.0), math.tanh(1.0)], atol=1e-15)


class TestGeneralRoute:
    def test_maximally_mixed_probe_gives_zero(self):
        jx, _, jz = spin_operators(5)
        probe = gibbs_state(jz, 0.0)
        assert qfi_general(probe, jx) <= 1e-12

    def test_qubit_value(self):
        # 2x2 by hand: F = t^2 tanh^2(beta/2); frozen at beta=2, t=1
        scenario = build_scenario("linear", 1, 2.0, 1.0)
        f = qfi_general(scenario.probe, scenario.h)
        assert abs(f - 0.5800256583859735) <= 1e-10
        assert f == pytest.approx(math.tanh(1.0) ** 2, abs=1e-12)

    def test_pure_probe_reduces_to_four_variance(self):
        # ground state of J_z with h = t J_x: 4 Var = 4 t^2 / 4 = t^2
        jx, _, _ = spin_operators(1)
        probe = SpectralProbe(np.array([1.0, 0.0]), np.eye(2, dtype=complex))
        t = 1.7
        assert qfi_general(probe, t * jx) == pytest.approx(t * t, rel=1e-12)

    def test_deep_thermal_matches_pure_limit(self):
        jx, _, jz = spin_operators(1)
        probe = gibbs_state(jz, 50.0)
        assert qfi_general(probe, jx) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_negative_probability(self):
        jx, _, _ = spin_operators(1)
        probe = gibbs_state(spin_operators(1)[2], 1.0)
        bad = SpectralProbe.__new__(SpectralProbe)
        object.__setattr__(bad, "probabilities", np.array([1.2, -0.2]))
        object.__setattr__(bad, "eigenvectors", probe.eigenvectors)
        with pytest.raises(ValueError, match="negative"):
            qfi_general(bad, jx)

    def test_dimension_mismatch(self):
        probe = gibbs_state(spin_operators(1)[2], 1.0)
        with pytest.raises(ValueError, match="mismatch"):
            qfi_general(probe, np.eye(3, dtype=complex))


class TestThermalRoute:
    def test_commuting_encoding_gives_exact_zero(self):
        scenario = build_scenario("linear", 4, 1.5, 2.0, axis="z")
        assert qfi_thermal(scenario.probe, scenario.h) == 0.0
        assert qfi_general(scenario.probe, scenario.h) == 0.0

    def test_qubit_reduction(self):
        scenario = build_scenario("linear", 1, 2.0, 1.0)
        assert qfi_thermal(scenario.probe, scenario.h) == pytest.approx(math.tanh(1.0) ** 2, rel=1e-12)

    def test_small_beta_bounded_by_seminorm_ceiling(self):
        # F <= beta^2 ||i[H, h]||^2 / 4 = beta^2 (2J)^2 / 4 at h = J_x, t = 1, J = 5
        scenario = build_scenario("linear", 10, 1e-3, 1.0)
        f = qfi_thermal(scenario.probe, scenario.h)
        assert 0.0 < f <= 1e-6 * 10.0**2 / 4.0

    def test_rejects_non_gibbs_probe(self):
        jx, _, _ = spin_operators(1)
        probe = SpectralProbe(np.array([0.6, 0.4]), np.eye(2, dtype=complex))
        with pytest.raises(TypeError, match="Gibbs"):
            qfi_thermal(probe, jx)


class TestSldRoute:
    def test_uniform_spectrum_gives_zero(self):
        jx, _, jz = spin_operators(3)
        assert qfi_sld(gibbs_state(jz, 0.0), jx) == 0.0

    def test_diagonal_generator_gives_zero(self):
        _, _, jz = spin_operators(4)
        assert qfi_sld(gibbs_state(jz, 1.3), jz) == 0.0

    def test_matches_general_route_spin1(self):
        scenario = build_scenario("linear", 2, 1.0, 1.0)
        fg = qfi_general(scenario.probe, scenario.h)
        fs = qfi_sld(scenario.probe, scenario.h)
        assert abs(fg - fs) <= 1e-10


class TestReport:
    def test_three_way_agreement_and_fields(self):
        scenario = build_scenario("oat", 6, 1.1, 3.14)
        report = qfi_report(scenario.probe, scenario.h)
        assert isinstance(report, QfiReport)
        assert report.max_pairwise_rel_diff <= 1e-8
        assert report.f_general >= 0 and report.f_thermal >= 0 and report.f_sld >= 0
        assert not report.pure_state_flag

    def test_pure_flag_propagates(self):
        scenario = build_scenario("linear", 1, 900.0, 1.0)
        report = qfi_report(scenario.probe, scenario.h)
        assert report.pure_state_flag

    @pytest.mark.parametrize("c", [2.0, 10.0])
    def test_quadratic_time_scaling(self, c):
        jx, _, jz = spin_operators(4)
        probe = gibbs_state(jz, 1.2)
        base = qfi_general(probe, transformed_generator(ExplicitGenerator(jx, 1.0)))
        scaled = qfi_general(probe, transformed_generator(ExplicitGenerator(jx, c)))
        assert scaled == pytest.approx(c * c * base, rel=1e-12)

    @given(hermitian_pairs(max_dim=6))
    @settings(max_examples=40)
    def test_routes_agree_on_random_scenarios(self, pair):
        h_matrix, generator = pair
        probe = gibbs_state(h_matrix, 1.7)
        h = transformed_generator(ExplicitGenerator(generator, 0.9))
        report = qfi_report(probe, h)
        assert report.max_pairwise_rel_diff <= 1e-8

    def test_high_temperature_vanishes_pointwise(self):
        jx, _, jz = spin_operators(6)
        values = []
        for beta in (1e-1, 1e-2, 1e-3):
            probe = gibbs_state(jz, beta)
            f = qfi_general(probe, jx)
            values.append(f)
            assert f <= beta**2 * 6.0**2 / 4.0 + 1e-15
        assert values[0] > values[1] > values[2]


class TestRelativeSpread:
    def test_small_f_cannot_hide_a_disagreement(self):
        # at beta = 1e-8 F ~ 2e-8 and the general route loses ~eps/beta^2:
        # the routes differ by 0.4%, which dividing by max(1, F) hid (8.5e-11)
        scenario = build_scenario("lmg", 200, 1e-8, 50.0, lam=1.0)
        report = qfi_report(scenario.probe, scenario.h)
        values = (report.f_general, report.f_thermal, report.f_sld)
        spread = max(abs(a - b) for a in values for b in values)
        assert report.max_pairwise_rel_diff == spread / max(abs(v) for v in values)
        assert 4e-3 < report.max_pairwise_rel_diff < 5e-3

    def test_zero_when_every_route_is_zero(self):
        scenario = build_scenario("linear", 6, 1.3, 2.0, axis="z")
        report = qfi_report(scenario.probe, scenario.h)
        assert (report.f_general, report.f_thermal, report.f_sld) == (0.0, 0.0, 0.0)
        assert report.max_pairwise_rel_diff == 0.0


class TestPlanScans:
    @staticmethod
    def _count_scans(monkeypatch):
        import sys

        import thermalqfi.operators as operators

        scanned = []
        original = operators.require_hermitian

        def counting(a, what="matrix"):
            scanned.append(what)
            return original(a, what)

        for name, module in list(sys.modules.items()):
            if name.startswith("thermalqfi") and getattr(module, "require_hermitian", None) is original:
                monkeypatch.setattr(module, "require_hermitian", counting)
        return scanned

    def test_each_matrix_scanned_at_most_once(self, monkeypatch):
        scenario = build_scenario("oat", 8, 1.1, 0.7)
        probe = scenario.probe
        scanned = self._count_scans(monkeypatch)
        spectral_plan(probe.decomposition, scenario.h)
        assert scanned == ["generator"]

    def test_real_hamiltonian_is_held_once(self, monkeypatch):
        # a real or list H is converted once, by the decomposition that
        # validates it; the probe reads that copy and no plan rescans it
        probe = gibbs_state(np.diag([0.0, 1.0, 3.0]), 0.7)
        assert probe.hamiltonian is probe.decomposition.source
        assert probe.hamiltonian.dtype == np.complex128
        scanned = self._count_scans(monkeypatch)
        spectral_plan(probe.decomposition, spin_operators(2)[0])
        assert scanned == ["generator"]

    def test_error_messages_unchanged(self):
        scenario = build_scenario("oat", 4, 1.1, 0.7)
        probe = scenario.probe
        bad = probe.hamiltonian.copy()
        bad[0, 1] = 1.0
        with pytest.raises(NotHermitianError, match="generator is not Hermitian"):
            spectral_plan(probe.decomposition, bad)


class TestScansOutsidePlan:
    """encoding_spectrum and bound_scales scan each matrix at most once."""

    def test_encoding_hamiltonian_scanned_once(self, monkeypatch):
        from thermalqfi.encoding import encoding_spectrum
        from thermalqfi.models import model_encoding

        _, family = model_encoding("lmg", 6, 0.7, lam=0.8)
        scanned = TestPlanScans._count_scans(monkeypatch)
        encoding_spectrum(family)
        assert scanned == ["encoding Hamiltonian", "dH/dlambda"]

    def test_encoding_error_messages_unchanged(self):
        from thermalqfi.encoding import HamiltonianFamily, encoding_spectrum

        jz = spin_operators(2)[2]
        bad = jz.copy()
        bad[0, 1] = 1.0
        with pytest.raises(NotHermitianError, match="encoding Hamiltonian is not Hermitian"):
            encoding_spectrum(HamiltonianFamily(lambda lam: bad, jz, 1.0, 1.0))
        with pytest.raises(NotHermitianError, match="dH/dlambda is not Hermitian"):
            encoding_spectrum(HamiltonianFamily(lambda lam: jz, bad, 1.0, 1.0))
        with pytest.raises(ValueError, match=r"dimension mismatch: H \(3, 3\), dH/dlambda \(2, 2\)"):
            encoding_spectrum(HamiltonianFamily(lambda lam: jz, spin_operators(1)[2], 1.0, 1.0))

    @pytest.mark.parametrize(
        "model, lam, expected",
        [("oat", None, ["seminorm argument"]), ("lmg", 1.0, [])],
        ids=["oat", "lmg"],
    )
    def test_bound_scales_skip_the_decomposed_source(self, monkeypatch, model, lam, expected):
        from thermalqfi.bounds import bound_scales
        from thermalqfi.operators import seminorm

        scenario = build_scenario(model, 6, 1.1, 0.7, lam=lam)
        probe = scenario.probe
        scanned = TestPlanScans._count_scans(monkeypatch)
        scales = bound_scales(probe.decomposition, scenario.scheme)
        # the lmg dH/dlambda is the probe's J_z itself, decomposed and validated with it
        assert scanned == expected
        assert scales.h_width == seminorm(probe.hamiltonian)


class TestVarianceReuse:
    @pytest.mark.parametrize("model, lam", [("oat", None), ("lmg", 1.0)], ids=["oat", "lmg"])
    def test_commutator_variance_summed_once_per_point(self, monkeypatch, model, lam):
        import thermalqfi.qfi as qfi_module
        from thermalqfi.bounds import bound_report

        scenario = build_scenario(model, 8, 1.1, 0.7, lam=lam)
        expected = repr(bound_report(scenario.probe, scenario.scheme, h=scenario.h))
        calls = []
        original = qfi_module.route_sums

        def counting(plan, p, betas):
            calls.append(p.shape[0])
            return original(plan, p, betas)

        # qfi_report and bound_report reach the evaluator through qfi.probe_sums
        monkeypatch.setattr(qfi_module, "route_sums", counting)
        report = qfi_report(scenario.probe, scenario.h)
        bounds = bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)
        # one k = 1 evaluator call, which sums Var[C] once
        assert calls == [1]
        assert repr(bounds) == expected

    def test_report_of_another_probe_lends_no_variance(self):
        from thermalqfi.bounds import bound_report
        from thermalqfi.thermal import gibbs_from_spectrum

        scenario = build_scenario("oat", 6, 1.1, 0.7)
        probe = scenario.probe
        colder = gibbs_from_spectrum(probe.decomposition, 3.0)
        borrowed = bound_report(probe, scenario.scheme, h=scenario.h, qfi_result=qfi_report(colder, scenario.h))
        fresh = bound_report(probe, scenario.scheme, h=scenario.h)
        assert repr(borrowed.variance_bound) == repr(fresh.variance_bound)
        assert repr(borrowed.gap_variance_bound) == repr(fresh.gap_variance_bound)


def _dense_route_sums(decomposition, hamiltonian, h, p, beta):
    """(f_general, f_thermal, f_sld, Var[C]) summed over all n^2 entries
    of |h_ij|^2 and |C_ij|^2, the oracle for the support-only sums."""
    import thermalqfi.qfi as qfi_module
    from thermalqfi.operators import commutator_i

    ht = decomposition.to_eigenbasis(h)
    habs2 = np.abs(ht) ** 2
    var_i = habs2.sum(axis=1) - np.real(np.diag(ht)) ** 2
    ct = decomposition.to_eigenbasis(commutator_i(hamiltonian, h))
    cabs2 = np.abs(ct) ** 2
    cdiag = np.real(np.diag(ct))
    energies = decomposition.eigenvalues
    delta = energies[:, None] - energies[None, :]

    mean = math.fsum((p * cdiag).tolist())
    var_c = math.fsum((p[:, None] * cabs2).ravel().tolist()) - mean * mean

    pair_sum = p[:, None] + p[None, :]
    mask = pair_sum >= qfi_module.SUPPORT_TOL
    off = mask.copy()
    np.fill_diagonal(off, False)
    coeff = np.zeros_like(pair_sum)
    coeff[off] = 8.0 * (p[:, None] * p[None, :])[off] / pair_sum[off]
    first = math.fsum((4.0 * p * var_i).tolist())
    general = first - math.fsum((coeff * habs2)[off].tolist())

    terms = np.zeros_like(pair_sum)
    terms[mask] = 2.0 * ((p[:, None] - p[None, :]) ** 2)[mask] / pair_sum[mask] * habs2[mask]
    sld = math.fsum(terms[mask].tolist())

    weighted = p[:, None] * (1.0 - tanhc(0.5 * beta * delta) ** 2) * cabs2
    np.fill_diagonal(weighted, 0.0)
    thermal = beta * beta * (var_c - math.fsum(weighted.ravel().tolist()))

    clamp = qfi_module._clamped
    return clamp(general, "general"), clamp(thermal, "thermal"), clamp(sld, "sld"), var_c


def _assert_support_sums_are_dense_sums(probe, scheme, h):
    from thermalqfi.bounds import bound_report
    from thermalqfi.encoding import as_operator

    report = qfi_report(probe, h)
    bounds = bound_report(probe, scheme, h=h, qfi_result=report)
    general, thermal, sld, var_c = _dense_route_sums(
        probe.decomposition, probe.hamiltonian, as_operator(h), probe.probabilities, probe.beta
    )
    assert repr((report.f_general, report.f_thermal, report.f_sld)) == repr((general, thermal, sld))
    assert repr(bounds.variance_bound) == repr(probe.beta**2 * var_c)
    assert repr(bounds.gap_variance_bound) == repr(4.0 * var_c / bounds.min_gap**2)


SUPPORT_MODELS = [
    ("linear", "x", None), ("linear", "y", None), ("linear", "z", None),
    ("oat", "x", None), ("lmg", "x", 1.0), ("lmg", "x", -0.7),
]


class TestSupportSums:
    @pytest.mark.parametrize("twice_j", [1, 3, 10, 40])
    @pytest.mark.parametrize("model, axis, lam", SUPPORT_MODELS, ids=["x", "y", "z", "oat", "lmg", "lmg-neg"])
    def test_model_points_bit_identical_to_dense_sums(self, model, axis, lam, twice_j):
        for beta in (1e-6, 1e-3, 0.3, 2.5, 40.0):
            for t in (0.0, 0.7, 3.14):
                scenario = build_scenario(model, twice_j, beta, t, axis=axis, lam=lam)
                _assert_support_sums_are_dense_sums(scenario.probe, scenario.scheme, scenario.h)

    def test_random_scenarios_bit_identical_to_dense_sums(self):
        rng = np.random.default_rng(20240611)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            hamiltonian = random_hermitian(rng, dim)
            scheme = ExplicitGenerator(random_hermitian(rng, dim), float(rng.uniform(0.0, 3.14)))
            probe = gibbs_state(hamiltonian, float(10.0 ** rng.uniform(-6.0, 1.6)))
            _assert_support_sums_are_dense_sums(probe, scheme, transformed_generator(scheme))

    def test_tiny_entries_stay_in_the_support(self):
        # |h_ij|^2 ~ 1e-300: a support that dropped small entries would zero F
        jx, _, jz = spin_operators(3)
        probe = gibbs_state(jz, 0.8)
        scheme = ExplicitGenerator(1e-150 * jx, 1.0)
        h = transformed_generator(scheme)
        _assert_support_sums_are_dense_sums(probe, scheme, h)
        assert qfi_report(probe, h).f_sld > 0.0

    def test_plan_keeps_only_the_support(self):
        # J_x^2 couples M to M +- 2 only, and so does C = i[J_z, t J_x^2]:
        # 2 (n - 2) = 798 off-diagonal entries of 160,801 at 2J = 400
        scenario = build_scenario("oat", 400, 1.3, 2.1)
        plan = qfi_report(scenario.probe, scenario.h).plan
        assert plan.h_pairs.values.size == 798
        assert plan.c_pairs.values.size == 798
        assert plan.c_delta.shape == (798,)
        assert np.all(plan.h_pairs.values > 0.0)


class TestParityBlockAgreement:
    @pytest.mark.parametrize("twice_j", [100, 200, 400])
    @pytest.mark.parametrize(
        "model, axis, lam", [("oat", "x", None), ("lmg", "x", 1.0), ("lmg", "x", -0.7), ("linear", "y", None)],
        ids=["oat", "lmg", "lmg-neg", "linear"],
    )
    def test_block_path_agrees_with_dense_path(self, model, axis, lam, twice_j, monkeypatch):
        import dataclasses

        import thermalqfi.operators as operators
        from thermalqfi.bounds import BoundReport, bound_report

        def evaluate():
            scenario = build_scenario(model, twice_j, 1.7, 2.3, axis=axis, lam=lam)
            report = qfi_report(scenario.probe, scenario.h)
            return report, bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)

        calls = record_solver_calls(monkeypatch, "eigh", "eigvalsh")
        blocked, blocked_bounds = evaluate()
        # oat and lmg never solve at full size; linear has no parity structure
        assert (max(dim for dim, _ in calls) == twice_j + 1) == (model == "linear")
        monkeypatch.setattr(operators, "DENSE_MAX_DIM", 10**9)
        dense, dense_bounds = evaluate()
        for name in ("f_general", "f_thermal", "f_sld"):
            assert getattr(blocked, name) == pytest.approx(getattr(dense, name), rel=1e-12, abs=0.0), name
        for f in dataclasses.fields(BoundReport):
            a, b = getattr(blocked_bounds, f.name), getattr(dense_bounds, f.name)
            if isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-12, abs=0.0), f.name
        assert blocked_bounds.ordering_ok == dense_bounds.ordering_ok
