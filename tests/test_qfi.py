import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thermalqfi.bounds import bound_report
from thermalqfi.encoding import ExplicitGenerator, HamiltonianFamily, transformed_generator
from thermalqfi.models import build_scenario
from thermalqfi.operators import NotHermitianError, eigendecompose
import thermalqfi.qfi as qfi_module
from thermalqfi.qfi import QfiReport, qfi_general, qfi_report, qfi_sld, qfi_thermal, spectral_plan, tanhc
from thermalqfi.spin import m_values, spin_operators
from thermalqfi.thermal import gibbs_state

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
        # effectively pure ground state of J_z with h = t J_x: 4 Var = 4 t^2 / 4 = t^2
        jx, _, jz = spin_operators(1)
        probe = gibbs_state(jz, 1e4)
        assert probe.effectively_pure
        t = 1.7
        assert qfi_general(probe, t * jx) == pytest.approx(t * t, rel=1e-12)
        assert qfi_sld(probe, t * jx) == pytest.approx(t * t, rel=1e-12)

    def test_deep_thermal_matches_pure_limit(self):
        jx, _, jz = spin_operators(1)
        probe = gibbs_state(jz, 50.0)
        assert qfi_general(probe, jx) == pytest.approx(1.0, rel=1e-6)

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

    @pytest.mark.parametrize("route", [qfi_general, qfi_thermal, qfi_sld, qfi_report], ids=lambda f: f.__name__)
    def test_rejects_non_gibbs_probe(self, route):
        # a density matrix is not a probe: every route takes a GibbsState
        jx, _, _ = spin_operators(1)
        with pytest.raises(TypeError, match=f"^{route.__name__} requires a GibbsState probe, got ndarray$"):
            route(np.diag([0.6, 0.4]), jx)


class TestClamp:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_value_that_is_not_finite_is_refused(self, value):
        with pytest.raises(ArithmeticError, match=f"^thermal-route QFI = {value} is not finite$"):
            qfi_module._clamped(value, "thermal-route QFI")

    def test_rounding_residue_clamps_and_a_negative_value_is_refused(self):
        assert qfi_module._clamped(-1e-11, "F") == 0.0
        assert qfi_module._clamped(2.5, "F") == 2.5
        with pytest.raises(ArithmeticError, match="negative beyond the clamp window"):
            qfi_module._clamped(-1e-9, "F")


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


def _one_path_probes():
    for model, lam in (("oat", None), ("lmg", 1.0)):
        for twice_j in (10, 100):
            scenario = build_scenario(model, twice_j, 0.9, 1.3, lam=lam)
            yield pytest.param(scenario.probe, scenario.h, id=f"{model}-{twice_j}")
    rng = np.random.default_rng(5)
    yield pytest.param(gibbs_state(random_hermitian(rng, 7), 1.1), random_hermitian(rng, 7), id="dense-random")


class TestOnePath:
    """Each public route is one k = 1 route_sums call and reads its field
    of the sums qfi_report reads, so the two agree bit for bit."""

    @pytest.mark.parametrize("probe, h", _one_path_probes())
    @pytest.mark.parametrize(
        "route, field", [(qfi_general, "f_general"), (qfi_thermal, "f_thermal"), (qfi_sld, "f_sld")]
    )
    def test_route_is_one_route_sums_call_with_the_report_bits(self, monkeypatch, probe, h, route, field):
        calls = []
        original = qfi_module.route_sums

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(qfi_module, "route_sums", counting)
        value = route(probe, h)
        assert len(calls) == 1
        monkeypatch.undo()
        assert repr(value) == repr(getattr(qfi_report(probe, h), field))


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

        # a scan of one matrix or of a stack records its message once
        scanned = []
        for scan in ("require_hermitian",):
            original = getattr(operators, scan)

            def counting(a, what="matrix", _original=original):
                scanned.append(what)
                return _original(a, what)

            for name, module in list(sys.modules.items()):
                if name.startswith("thermalqfi") and getattr(module, scan, None) is original:
                    monkeypatch.setattr(module, scan, counting)
        return scanned

    def test_each_matrix_scanned_at_most_once(self, monkeypatch):
        from thermalqfi.bounds import bound_report

        scanned = self._count_scans(monkeypatch)
        scenario = build_scenario("oat", 8, 1.1, 0.7)
        # J_z and A are built as records and h = t A is made from A's, so
        # nothing is scanned; the plan and the bounds scan none either
        assert scanned == []
        report = qfi_report(scenario.probe, scenario.h)
        bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)
        assert scanned == []
        # a bare array is scanned once, by the gate that takes it in
        ExplicitGenerator(spin_operators(8)[0], 0.7)
        assert scanned == ["generator"]

    def test_real_hamiltonian_is_held_once(self, monkeypatch):
        # a real or list H is converted once, by the decomposition that
        # validates it; the probe reads that copy and no plan rescans it
        probe = gibbs_state(np.diag([0.0, 1.0, 3.0]), 0.7)
        assert probe.hamiltonian is probe.decomposition.source.matrix
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
    """encoding_spectrum and bound_scales scan no matrix a constructor or
    a decomposition has validated."""

    def test_encoding_hamiltonian_scanned_once(self, monkeypatch):
        from dataclasses import replace

        from thermalqfi.encoding import encoding_spectrum
        from thermalqfi.models import model_encoding

        scanned = TestPlanScans._count_scans(monkeypatch)
        _, family = model_encoding("lmg", 6, 0.7, lam=0.8)
        assert scanned == []  # J_z and H(lambda) are built as records
        encoding_spectrum(family)
        assert scanned == []
        encoding_spectrum(replace(family, hamiltonian=lambda lam: family.hamiltonian(lam).matrix))
        assert scanned == ["encoding Hamiltonian"]  # a bare array, by the decomposition that takes it in

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

    @pytest.mark.parametrize("model, lam", [("oat", None), ("lmg", 1.0)], ids=["oat", "lmg"])
    def test_bound_scales_skip_the_decomposed_source(self, monkeypatch, model, lam):
        from thermalqfi.bounds import bound_scales
        from thermalqfi.operators import seminorm

        scenario = build_scenario(model, 6, 1.1, 0.7, lam=lam)
        probe = scenario.probe
        scanned = TestPlanScans._count_scans(monkeypatch)
        scales = bound_scales(probe.decomposition, scenario.scheme)
        # H was validated by its decomposition, dH/dlambda (J_x^2 for oat,
        # J_z for lmg) by the scheme that carries it
        assert scanned == []
        assert scales.h_width == seminorm(probe.hamiltonian)


class TestSweepScans:
    """A sweep scans none of its generators, which are Hermitian by
    construction, and takes a faulty one as the single-point path does."""

    def test_fig3a_scans_once_per_chunk(self, monkeypatch):
        from thermalqfi.sweep import SweepConfig, figure_configs, run_sweep

        config = SweepConfig.from_dict(figure_configs()["fig3a"])
        scanned = TestPlanScans._count_scans(monkeypatch)
        run_sweep(config)
        # dH/dlambda, J_z and H(lambda) are built as records, and the 64
        # times' generators (two chunks of 32) are Hermitian by
        # construction: nothing is scanned (67 scans when each time made
        # its own generator, 5 when each chunk was scanned)
        assert scanned == []

    @pytest.mark.parametrize("twice_j", [10, 101])
    def test_a_non_finite_generator_is_refused_as_on_the_single_point_path(self, monkeypatch, twice_j):
        import thermalqfi.encoding as encoding
        from thermalqfi.sweep import SweepConfig, run_sweep

        original = encoding._phase_kernel

        def poisoned(delta, t):
            # NaN at the time 0.7 only, whether t is one time or a stack
            return np.where(np.asarray(t) == 0.7, np.nan, original(delta, t))

        monkeypatch.setattr(encoding, "_phase_kernel", poisoned)
        with pytest.raises(ValueError, match="^matrix contains NaN or Inf entries$"):
            build_scenario("lmg", twice_j, 1.1, 0.7, lam=0.6)
        build_scenario("lmg", twice_j, 1.1, 0.5, lam=0.6)
        config = SweepConfig.from_dict(
            {"model": "lmg", "twice_j": twice_j, "lambda": 0.6, "beta_grid": [1.1], "t_grid": [0.5, 0.7, 1.0]}
        )
        with pytest.raises(ValueError, match="^matrix contains NaN or Inf entries$"):
            run_sweep(config)

    def test_a_skewed_generator_is_taken_alike_on_the_sweep_and_single_point_paths(self, monkeypatch):
        import thermalqfi.encoding as encoding
        from thermalqfi.bounds import bound_report
        from thermalqfi.sweep import SweepConfig, run_sweep

        bound_fields = ("variance_bound", "seminorm_bound", "product_bound", "convexity_bound",
                        "gap_variance_bound", "gap_seminorm_bound", "ordering_ok")

        def point():
            scenario = build_scenario("lmg", 6, 1.1, 0.7, lam=0.6)
            report = qfi_report(scenario.probe, scenario.h)
            bounds = bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)
            routes = (report.f_general, report.f_thermal, report.f_sld)
            return repr(routes + tuple(getattr(bounds, f) for f in bound_fields))

        def sweep_row():
            config = SweepConfig.from_dict(
                {"model": "lmg", "twice_j": 6, "lambda": 0.6, "beta_grid": [1.1], "t_grid": [0.5, 0.7, 1.0]}
            )
            row = run_sweep(config)[1]
            assert row.t == 0.7
            return repr(tuple(getattr(row, f) for f in ("f_general", "f_thermal", "f_sld", *bound_fields)))

        clean = point()
        assert sweep_row() == clean
        original = encoding._integral_matrices

        def skewed(spectrum, t):
            # an anti-Hermitian defect at the time 0.7 only, whether t is
            # one time or a stack, in the stored entries of the record
            h = original(spectrum, t)
            h.parts[0][..., 0, 1] += np.where(np.reshape(t, np.shape(t)[:1]) == 0.7, 1e-3, 0.0)
            return h

        monkeypatch.setattr(encoding, "_integral_matrices", skewed)
        faulty = point()
        assert faulty != clean
        assert sweep_row() == faulty


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

    def test_report_of_another_generator_lends_only_f(self, monkeypatch):
        import thermalqfi.bounds as bounds_module

        scenario = build_scenario("oat", 6, 1.1, 0.7)
        probe = scenario.probe
        other = qfi_report(probe, transformed_generator(ExplicitGenerator(scenario.scheme.generator, 1.3)))
        fresh = bounds_module.bound_report(probe, scenario.scheme, h=scenario.h)
        plans = []
        original = bounds_module.spectral_plan

        def counting(decomposition, h):
            plans.append(h)
            return original(decomposition, h)

        monkeypatch.setattr(bounds_module, "spectral_plan", counting)
        borrowed = bounds_module.bound_report(probe, scenario.scheme, h=scenario.h, qfi_result=other)
        assert plans == [scenario.h]  # the plan of the other generator is not lent
        assert borrowed.f == other.f_sld != fresh.f
        for name in ("variance_bound", "seminorm_bound", "convexity_bound", "gap_variance_bound", "noncommutativity"):
            assert repr(getattr(borrowed, name)) == repr(getattr(fresh, name)), name


NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])
JZ = np.diag([0.5, -0.5])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ExplicitGenerator(NOT_HERMITIAN, 1.0), "generator"),
        (lambda: HamiltonianFamily(lambda lam: JZ, NOT_HERMITIAN, 1.0, 1.0), "dH/dlambda"),
        (lambda: qfi_report(gibbs_state(JZ, 1.0), NOT_HERMITIAN), "generator"),
        (lambda: spectral_plan(gibbs_state(JZ, 1.0).decomposition, NOT_HERMITIAN), "generator"),
        (lambda: bound_report(gibbs_state(JZ, 1.0), ExplicitGenerator(JZ, 1.0), h=NOT_HERMITIAN), "generator"),
        (lambda: eigendecompose(NOT_HERMITIAN, "Hamiltonian"), "Hamiltonian"),
    ],
    ids=["explicit", "family", "qfi_report", "spectral_plan", "bound_report", "eigendecompose"],
)
def test_each_owner_refuses_a_non_hermitian_matrix(make, message):
    with pytest.raises(NotHermitianError, match=f"^{message} is not Hermitian: defect 1.000e\\+00"):
        make()


def _dense_route_sums(decomposition, hamiltonian, h, p, beta):
    """(f_general, f_thermal, f_sld, Var[C]) summed over all n^2 entries
    of |h_ij|^2 and |C_ij|^2, the oracle for the support-only sums."""
    import thermalqfi.qfi as qfi_module
    from thermalqfi.operators import commutator_i

    ht = decomposition.to_eigenbasis(h).matrix
    habs2 = np.abs(ht) ** 2
    var_i = habs2.sum(axis=1) - np.real(np.diag(ht)) ** 2
    ct = decomposition.to_eigenbasis(commutator_i(hamiltonian, h)).matrix
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
    from thermalqfi.operators import as_hermitian

    report = qfi_report(probe, h)
    bounds = bound_report(probe, scheme, h=h, qfi_result=report)
    general, thermal, sld, var_c = _dense_route_sums(
        probe.decomposition, probe.hamiltonian, as_hermitian(h), probe.probabilities, probe.beta
    )
    assert repr((report.f_general, report.f_thermal, report.f_sld)) == repr((general, thermal, sld))
    assert repr(qfi_thermal(probe, h)) == repr(thermal)
    assert repr(bounds.variance_bound) == repr(probe.beta**2 * var_c)
    assert repr(bounds.gap_variance_bound) == repr(4.0 * var_c / bounds.min_gap**2)


SUPPORT_MODELS = [
    ("linear", "x", None), ("linear", "y", None), ("linear", "z", None),
    ("oat", "x", None), ("lmg", "x", 1.0), ("lmg", "x", -0.7),
]


# every model up to 40, where the support is scanned; above 81 the parity
# models, whose support is read from the form
SUPPORT_POINTS = [
    pytest.param(*model, twice_j, id=f"{name}-{twice_j}")
    for model, name in zip(SUPPORT_MODELS, ["x", "y", "z", "oat", "lmg", "lmg-neg"])
    for twice_j in (1, 3, 10, 40) + (() if model[0] == "linear" else (100, 101, 200, 400))
]


class TestSupportSums:
    @pytest.mark.parametrize("model, axis, lam, twice_j", SUPPORT_POINTS)
    def test_model_points_bit_identical_to_dense_sums(self, model, axis, lam, twice_j):
        for beta in (1e-6, 1e-3, 0.3, 2.5, 40.0):
            for t in (0.0, 0.7, 3.14):
                scenario = build_scenario(model, twice_j, beta, t, axis=axis, lam=lam)
                _assert_support_sums_are_dense_sums(scenario.probe, scenario.scheme, scenario.h)

    @pytest.mark.parametrize(
        "flags, zero_share", [((False, False), 0.3), ((True,), 0.3), ((False, False), 1.0)], ids=["blocks", "band", "no-pairs"]
    )
    def test_exact_zeros_inside_a_form_are_summed_as_the_dense_sums(self, flags, zero_share):
        # the form-read support holds every entry two parity blocks or one
        # tridiagonal block can hold, exact zeros too: zero terms leave each
        # sum's bits alone, and a row of zero terms only sums to +0, as the
        # dense row does
        from thermalqfi.operators import _blocks

        twice_j = 89  # n = 90, above DENSE_MAX_DIM
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, twice_j + 1)
        index = np.arange(twice_j + 1)
        band = flags == (True,)
        outside = abs(index[:, None] - index[None, :]) > 1 if band else (index[:, None] - index[None, :]) % 2 == 1
        zeros = rng.random(m.shape) < zero_share
        m[outside | zeros | zeros.T] = 0.0
        np.fill_diagonal(m, rng.normal(size=twice_j + 1))
        record = _blocks(m, tridiagonal=flags) if band else _blocks(m[0::2, 0::2], m[1::2, 1::2])
        probe = gibbs_state(spin_operators(twice_j)[2], 0.9)
        scheme = ExplicitGenerator(record, 1.3)
        h = transformed_generator(scheme)
        values = qfi_report(probe, h).plan.h_values
        assert h.tridiagonal == flags and (values == 0.0).any() and values.any() == (zero_share < 1.0)
        _assert_support_sums_are_dense_sums(probe, scheme, h)

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
        assert plan.rows.shape == plan.cols.shape == (798,)
        assert plan.h_values.size == plan.c_values.size == 798
        assert plan.c_delta.shape == (798,)
        assert np.all(plan.h_values > 0.0)


class TestParityBlockAgreement:
    @pytest.mark.parametrize("twice_j", [100, 101, 200, 400])
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


def _point(model, twice_j, lam=None):
    from thermalqfi.bounds import bound_report

    scenario = build_scenario(model, twice_j, 0.7, 2.3, lam=lam)
    report = qfi_report(scenario.probe, scenario.h)
    return report, bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)


class TestBandPath:
    """Above DENSE_MAX_DIM the twisting and collective-spin models take J_z
    and J_x^2 from their bands, and every solve is half size."""

    @pytest.mark.parametrize("twice_j", [100, 101, 200, 400, 2000])
    def test_band_built_matrices_match_the_dense_product(self, twice_j):
        import thermalqfi.models as models
        from thermalqfi.operators import _symmetrize

        jx = spin_operators(twice_j)[0]
        dense = _symmetrize(jx @ jx)
        jz, scheme = models.model_encoding("oat", twice_j, 1.0)
        np.testing.assert_array_equal(jz.matrix, np.diag(m_values(twice_j)))
        assert np.abs(scheme.generator.matrix - dense).max() <= 1e-15 * np.abs(dense).max()
        dense += 0.6 * jz.matrix
        h = models.lmg_hamiltonian(twice_j, 0.6)
        assert np.abs(h.matrix - dense).max() <= 1e-15 * np.abs(dense).max()

    @pytest.mark.parametrize("twice_j, banded", [(80, False), (81, True), (400, True)])
    @pytest.mark.parametrize("model, lam", [("oat", None), ("lmg", 0.6)], ids=["oat", "lmg"])
    def test_no_dense_operator_or_product_above_the_threshold(self, model, lam, twice_j, banded, monkeypatch):
        import thermalqfi.models as models
        import thermalqfi.spin as spin

        def refuse(*args):
            raise AssertionError("dense construction")

        monkeypatch.setattr(spin, "spin_operators", refuse)
        monkeypatch.setattr(models, "spin_operators", refuse)
        monkeypatch.setattr(models, "_symmetrize", refuse)
        if banded:
            _point(model, twice_j, lam)
        else:
            with pytest.raises(AssertionError, match="dense construction"):
                _point(model, twice_j, lam)

    def test_oat_makes_only_real_half_size_width_solves(self, monkeypatch):
        eighs = record_solver_calls(monkeypatch, "eigh")
        eigvalshs = record_solver_calls(monkeypatch, "eigvalsh")
        _point("oat", 400)
        assert eighs == []
        # ||C|| and ||J_x^2||, two parity blocks each
        assert sorted(eigvalshs) == [(200, False), (200, False), (201, False), (201, False)]

    def test_lmg_keeps_two_real_half_size_eighs(self, monkeypatch):
        eighs = record_solver_calls(monkeypatch, "eigh")
        _point("lmg", 400, 0.6)
        assert eighs == [(201, False), (200, False)]


class TestExactSum:
    """qfi._exact_sum equals math.fsum bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.one_of(st.integers(1000, 1100), st.integers(1, 6000)),
        low=st.integers(-1074, 990),
        spread=st.integers(0, 2000),
        cancel=st.booleans(),
    )
    def test_equals_fsum(self, seed, length, low, spread, cancel):
        from thermalqfi.qfi import _exact_sum

        rng = np.random.default_rng(seed)
        high = min(low + spread, 996)  # |x| up to about 1e300
        x = rng.choice([-1.0, 1.0], size=length) * np.ldexp(rng.uniform(0.5, 1.0, size=length), rng.integers(low, high + 1, size=length))
        if cancel:  # every term meets its negation: the exact sum is zero
            x = np.concatenate((x, -x[::-1]))
        expected = math.fsum(x.tolist())
        got = _exact_sum(x)
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("length", [1023, 1024, 1025, 80000])
    def test_both_sides_of_the_threshold(self, length):
        from thermalqfi.qfi import EXACT_SUM_MIN_TERMS, _exact_sum

        assert EXACT_SUM_MIN_TERMS == 1024
        rng = np.random.default_rng(length)
        x = rng.normal(size=length) * 10.0 ** rng.uniform(-300, 300, size=length)
        x[::7] = 5e-324 * rng.integers(-9, 9, size=x[::7].size)  # subnormals
        assert _exact_sum(x) == math.fsum(x.tolist())

    def test_a_row_spanning_a_thousand_binary_orders(self):
        # the shape of an lmg row at 2J = 400 and beta about 4: 80,000
        # positive terms whose exponents fill about 1,000 buckets
        from thermalqfi.qfi import _exact_sum

        rng = np.random.default_rng(400)
        x = np.ldexp(rng.uniform(0.5, 1.0, size=80_000), rng.integers(-1000, 1, size=80_000))
        assert np.unique(np.frexp(x)[1]).size > 990
        assert repr(_exact_sum(x)) == repr(math.fsum(x.tolist()))

    def test_a_row_whose_exact_sum_is_subnormal(self):
        from thermalqfi.qfi import _exact_sum

        rng = np.random.default_rng(7)
        big = np.ldexp(rng.uniform(0.5, 1.0, size=1500), rng.integers(-1060, 900, size=1500))
        tiny = 5e-324 * rng.integers(1, 2**40, size=8).astype(float)  # subnormal terms, an exactly subnormal total
        x = rng.permutation(np.concatenate((big, -big, tiny, [-1e-310])))
        expected = math.fsum(x.tolist())
        assert 0.0 < abs(expected) < np.finfo(float).tiny
        assert repr(_exact_sum(x)) == repr(expected)

    @pytest.mark.parametrize(
        "special",
        [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf], [1e308] * 2, [-0.0]],
        ids=["inf", "-inf", "nan", "inf-inf", "overflow", "negative-zeros"],
    )
    def test_non_finite_and_overflowing_rows_behave_as_fsum(self, special):
        from thermalqfi.qfi import _exact_sum

        x = np.array(special * 2000 if special == [-0.0] else special + [1.0] * 2000)

        def outcome(f):
            try:
                return repr(f(x))
            except (ValueError, OverflowError) as exc:
                return f"{type(exc).__name__}: {exc}"

        assert outcome(_exact_sum) == outcome(lambda v: math.fsum(v.tolist()))

    @pytest.mark.parametrize("twice_j", [100, 400])
    def test_lmg_reports_do_not_depend_on_the_threshold(self, twice_j, monkeypatch):
        import thermalqfi.qfi as qfi

        report, bounds = _point("lmg", twice_j, 0.6)
        assert report.plan.rows.size >= qfi.EXACT_SUM_MIN_TERMS  # the kernel sums these rows
        monkeypatch.setattr(qfi, "EXACT_SUM_MIN_TERMS", 10**9)
        fsum_report, fsum_bounds = _point("lmg", twice_j, 0.6)
        assert repr(report) == repr(fsum_report)
        assert repr(bounds) == repr(fsum_bounds)



def _fsum_outcome(f):
    """What f() returns, by repr, or the exception it raises."""
    try:
        return repr(f())
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _padded(rows, m):
    """The given rows (each of at most m terms, padded with zeros) on top of
    random ones, enough rows for an array of LONG_SUM_MIN_ENTRIES terms."""
    from thermalqfi.qfi import LONG_SUM_MIN_ENTRIES

    k = max(len(rows) + 1, -(-LONG_SUM_MIN_ENTRIES // m))
    terms = np.random.default_rng(m).normal(size=(k, m))
    terms[: len(rows)] = 0.0
    for r, row in enumerate(rows):
        terms[r, : len(row)] = row
    return terms


# rows whose fsum lands on, or just off, a midpoint between two doubles,
# cancels exactly, is made of signed zeros, is subnormal, overflows (at the
# end or on the way) or holds infinities and NaN
SPECIAL_ROWS = {
    "midpoint-to-even": [1.0, 2.0**-53],
    "above-midpoint": [1.0, 2.0**-53, 2.0**-106],
    "below-midpoint": [1.0, 2.0**-53, -(2.0**-106)],
    "odd-midpoint": [1.0 + 2.0**-52, 2.0**-53],
    "one-ulp-from-midpoint": [1.0, 2.0**-53 - 2.0**-105],
    "cancels": [0.1, 0.7, -0.1, -0.7],
    "cancels-far-apart": [1e300, 1e-300, -1e300, -1e-300],
    "all-zero": [0.0, 0.0],
    "negative-zeros": [-0.0, -0.0],
    "mixed-zeros": [-0.0, 0.0, -0.0],
    "subnormal": [5e-324, 5e-324, -1e-323, 1.5e-323],
    "overflow": [1e308, 1e308],
    "intermediate-overflow": [1e308, 1e308, -1e308],
    "largest-double": [np.finfo(float).max, 1e291],
    "inf": [math.inf, 1.0],
    "-inf": [-math.inf, 1.0],
    "nan": [math.nan, 1.0],
    "inf-inf": [math.inf, -math.inf],
}


class TestLongSums:
    """qfi._fsum_rows equals one math.fsum per row bit for bit on every
    path, and _long_sums certifies no row whose double is not fsum's."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 80),
        m=st.one_of(st.integers(1, 40), st.integers(100, 130), st.integers(1000, 1023)),
        low=st.integers(-1074, 1010),
        spread=st.integers(0, 2100),
        signs=st.sampled_from(["positive", "mixed", "cancel"]),
    )
    def test_equals_fsum(self, seed, k, m, low, spread, signs):
        from thermalqfi.qfi import _fsum_rows, _long_sums

        rng = np.random.default_rng(seed)
        high = min(low + spread, 1023)  # up to near overflow, where a row's fsum may raise
        terms = np.ldexp(rng.uniform(0.5, 1.0, size=(k, m)), rng.integers(low, high + 1, size=(k, m)))
        if signs != "positive":
            terms *= rng.choice([-1.0, 1.0], size=(k, m))
        if signs == "cancel":  # every term meets its negation in the other half of its row
            terms[:, m // 2 : 2 * (m // 2)] = -terms[:, : m // 2][:, ::-1]
        expected = _fsum_outcome(lambda: [math.fsum(row.tolist()) for row in terms])
        assert _fsum_outcome(lambda: _fsum_rows(terms)) == expected
        d, certified = _long_sums(terms)
        for r in np.flatnonzero(certified):
            assert repr(d[r].item()) == repr(math.fsum(terms[r].tolist()))

    @pytest.mark.parametrize("m", [4, 121])
    @pytest.mark.parametrize("name", list(SPECIAL_ROWS))
    def test_special_rows_behave_as_fsum(self, name, m):
        from thermalqfi.qfi import _fsum_rows

        row = SPECIAL_ROWS[name]
        terms = _padded([row, row[::-1]], m)
        expected = _fsum_outcome(lambda: [math.fsum(r.tolist()) for r in terms])
        assert _fsum_outcome(lambda: _fsum_rows(terms)) == expected

    def test_both_sides_of_the_crossover(self, monkeypatch):
        import thermalqfi.qfi as qfi

        calls = []
        long_sums = qfi._long_sums
        monkeypatch.setattr(qfi, "_long_sums", lambda terms: calls.append(terms.shape) or long_sums(terms))
        rng = np.random.default_rng(5)
        entries = qfi.LONG_SUM_MIN_ENTRIES
        # fsum per row, fsum per row, together, _exact_sum, fsum per row, together
        shapes = [(1, 1000), (2, entries // 2 - 1), (3, entries // 3 + 1), (2, 1024), (entries // 11, 11), (entries // 11 + 1, 11)]
        for shape in shapes:
            terms = rng.normal(size=shape) * 10.0 ** rng.uniform(-20, 20, size=shape)
            assert repr(qfi._fsum_rows(terms)) == repr([math.fsum(row.tolist()) for row in terms])
        assert calls == ([shapes[2], shapes[5]] if qfi.LONG_SUMS else [])


# SHA-256 of render_csv(run_sweep(config)) of each figure config, as the
# benchmark records them (one BLAS thread, x86-64)
FIGURE_CSV_DIGESTS = {
    "fig2a": "da7bcd11b8507bf4d2d36bf82c203bb01eee54ff41feaff4f502730a02d4ba13",
    "fig2b": "a893be15a7d22841d0667a9b10f7bd66d6aad68ef38bd3d4d78d27afbce12748",
    "fig3a": "9299ce4314c250e22c12d992cd54c7bd63117bfe6c7b3b13816c4710ed158c9f",
    "fig3b": "9617fd65dfa8a77da88d655387c61c0ec80e7dfe65113db5da2fcaa21b6ea2a6",
}


def _figure_sweep(name):
    from thermalqfi.sweep import SweepConfig, figure_configs, run_sweep

    raw = figure_configs()[name]
    return run_sweep(SweepConfig.from_dict({k: v for k, v in raw.items() if k not in ("metadata", "output_path")}))


class TestLongSumPaths:
    def test_fig3b_support_sums_are_summed_together_in_two_chunks(self, monkeypatch):
        import thermalqfi.qfi as qfi

        if not qfi.LONG_SUMS:
            pytest.skip("long double has no more precision than double here")
        calls = []
        long_sums = qfi._long_sums
        monkeypatch.setattr(qfi, "_long_sums", lambda terms: calls.append(terms.shape) or long_sums(terms))
        rows = _figure_sweep("fig3b")
        # the general, SLD, second-moment and weighted sums, every row, in at most two chunks each
        assert sum(k for k, _ in calls) == 4 * len(rows) == 400
        assert len(calls) <= 4 * 2

    @pytest.mark.parametrize("fallback", ["guard-off", "no-certificate"])
    def test_figures_and_criterion_4_do_not_depend_on_the_path(self, fallback, monkeypatch):
        import hashlib

        import thermalqfi.qfi as qfi
        from thermalqfi import verify
        from thermalqfi.sweep import render_csv

        seed = verify.DEFAULT_SEED
        expected = (repr(list(verify._random_reports(seed))), verify.check_bound_chain(seed))
        uncertified = []
        if fallback == "guard-off":  # as where long double is double
            monkeypatch.setattr(qfi, "LONG_SUMS", False)
        else:  # every row of every batched array goes through fsum on its own
            long_sums = qfi._long_sums

            def failing(terms):
                sums, certified = long_sums(terms)
                uncertified.append(len(terms))
                return sums, np.zeros_like(certified)

            monkeypatch.setattr(qfi, "_long_sums", failing)
        for name, digest in FIGURE_CSV_DIGESTS.items():
            assert hashlib.sha256(render_csv(_figure_sweep(name)).encode()).hexdigest() == digest, name
        assert (repr(list(verify._random_reports(seed))), verify.check_bound_chain(seed)) == expected
        assert bool(uncertified) == (fallback == "no-certificate" and qfi.LONG_SUMS)


def _point_at(model, twice_j, lam=None):
    from thermalqfi.bounds import bound_report

    scenario = build_scenario(model, twice_j, 1.7, 2.3, lam=lam)
    report = qfi_report(scenario.probe, scenario.h)
    return bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=report)


def _patch_everywhere(monkeypatch, module, name, replacement):
    """Patch module.name and every thermalqfi module attribute bound to it."""
    import sys

    original = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("thermalqfi") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)
    return original


class TestNoRescans:
    """A compute point scans and detects nothing it built itself: every
    matrix of a model point is born a record, and a parity operator stays
    as its two half blocks."""

    @pytest.mark.parametrize("model, lam", [("oat", None), ("lmg", 1.0)], ids=["oat", "lmg"])
    def test_a_compute_point_at_400_scans_and_detects_nothing(self, monkeypatch, model, lam):
        import thermalqfi.operators as operators

        calls = []
        for name in ("_hermitian", "operator_form", "_is_tridiagonal", "_off_diagonal"):
            original = getattr(operators, name)
            monkeypatch.setattr(operators, name, lambda *a, _o=original, _n=name: calls.append(_n) or _o(*a))
        cached = operators.Hermitian.matrix

        def no_dense_blocks(self):
            assert self.form != "blocks" or len(self.parts) == 1, "a parity operator was made dense"
            return cached.__get__(self, type(self))

        monkeypatch.setattr(operators.Hermitian, "matrix", property(no_dense_blocks))
        bounds = _point_at(model, 400, lam)
        assert bounds.ordering_ok and calls == []
        # a user array is scanned once and its form detected once, by the gate
        operators.as_hermitian(spin_operators(400)[0])
        assert calls.count("_hermitian") == 1 and calls.count("operator_form") == 1


def _forms(record):
    """(form, tridiagonal flags, real blocks) of a record, a stack as a whole."""
    real = [not np.iscomplexobj(p) for p in record.parts] if record.form == "blocks" else []
    return record.form, record.tridiagonal, real


def _detected_forms(m):
    """_forms of what the gate's detection finds on an array; on a stack,
    detection on the whole stack: on the entries nonzero in any member,
    real and imaginary parts apart, which is all that detection reads."""
    import thermalqfi.operators as operators

    if m.ndim == 3:
        m = (m.real != 0).any(axis=0) + 1j * (m.imag != 0).any(axis=0)
    return _forms(operators.operator_form(m.copy()))


def _record_forms(monkeypatch):
    """Wrap every consumer of an operator record to compare each record it
    is given with what the gate's detection finds on the record's dense
    array, a stack as a whole; the mismatches and the count of records
    checked are collected. A record's dense array is built from its
    parts, so a record whose parts hold the wrong matrix is caught by
    _model_record_mismatches, not here."""
    import thermalqfi.operators as operators
    import thermalqfi.qfi as qfi_module

    seen = {"checked": 0, "mismatches": []}
    dense = operators.Hermitian.matrix.func  # the dense array, not cached in the record

    def check(x, where):
        if not isinstance(x, operators.Hermitian):
            return
        expected = _detected_forms(dense(x))
        seen["checked"] += 1
        if _forms(x) != expected:
            seen["mismatches"].append((where, x.shape, _forms(x), expected))

    consumers = [
        (qfi_module, "_squares", 2),
        (operators, "seminorm", 1), (operators, "_widths", 1), (operators, "eigendecompose", 1),
        (operators, "commutator_i", 2),
    ]
    for module, name, count in consumers:
        original = getattr(module, name)

        def wrapped(*args, _o=original, _n=name, _k=count):
            for x in args[:_k]:
                check(x, _n)
            return _o(*args)

        _patch_everywhere(monkeypatch, module, name, wrapped)
    to_eigenbasis = operators.SpectralDecomposition.to_eigenbasis

    def basis(self, h):
        check(h, "to_eigenbasis")
        return to_eigenbasis(self, h)

    monkeypatch.setattr(operators.SpectralDecomposition, "to_eigenbasis", basis)
    return seen


def _model_record_mismatches(twice_js):
    """(2J, name) of every model record whose dense array differs, bit for
    bit, from the dense product it stands for: J_x, J_y and J_z of
    spin_operators, and J_x^2 = _symmetrize(J_x @ J_x). The reference for
    the records up to DENSE_MAX_DIM, where the figure and verify bytes
    rest on those products."""
    import thermalqfi.models as models
    from thermalqfi.operators import _symmetrize
    from thermalqfi.spin import spin_operator_forms

    mismatches = []
    for twice_j in twice_js:
        jx, jy, jz = spin_operators(twice_j)
        jx2 = _symmetrize(jx @ jx)
        records = (*spin_operator_forms(twice_j), *models._jz_jx_squared(twice_j))
        for name, record, expected in zip(("J_x", "J_y", "J_z", "J_z", "J_x^2"), records, (jx, jy, jz, jz, jx2)):
            if record.matrix.tobytes() != expected.tobytes():
                mismatches.append((twice_j, name))
    return mismatches


def _run_form_configs():
    from thermalqfi import verify
    from thermalqfi.sweep import SweepConfig, figure_configs, run_sweep, run_sweeps

    for raw in figure_configs().values():
        run_sweep(SweepConfig.from_dict({k: v for k, v in raw.items() if k != "metadata"}))
    for variants, twice_js in ((verify.GRID_VARIANTS, verify.GRID_TWICE_J), (verify.GRID_VARIANTS[:2], verify.WIDE_TWICE_J)):
        for twice_j in twice_js:
            run_sweeps([verify._grid_config(model, twice_j, lam) for model, lam in variants])
    list(verify._random_reports(verify.DEFAULT_SEED))  # criterion 4's stacks
    for twice_j in (100, 101, 400):
        for model, lam in (("oat", None), ("lmg", 1.0), ("lmg", -0.7)):
            _point_at(model, twice_j, lam)


class TestCarriedForms:
    """Every record that reaches a consumer carries the form the gate's
    detection finds on its dense array, a stack the form detection finds
    on the whole stack: on the four figure sweeps, the verify grids
    (2J <= 81, so one dense block or diagonal, as detection found them
    before records existed), criterion 4's stacks and compute points at
    2J = 100, 101 and 400."""

    def test_model_records_are_their_dense_products(self):
        from thermalqfi.operators import DENSE_MAX_DIM

        assert _model_record_mismatches(range(1, DENSE_MAX_DIM)) == []

    def test_carried_forms_equal_the_detected_ones(self, monkeypatch):
        seen = _record_forms(monkeypatch)
        _run_form_configs()
        assert seen["checked"] > 300
        assert seen["mismatches"] == []

    def test_h_and_c_reach_the_plan_in_one_layout(self, monkeypatch):
        # the plan reads one support for both: C_ij = i (E_i - E_j) h_ij
        # lives on h's off-diagonal pairs, and both come in one form, block
        # count and set of tridiagonal flags
        import thermalqfi.qfi as qfi_module

        layouts = []
        squares = qfi_module._squares

        def recording(ht, ct):
            layouts.append(tuple((x.form, len(x.parts), x.tridiagonal) for x in (ht, ct)))
            return squares(ht, ct)

        monkeypatch.setattr(qfi_module, "_squares", recording)
        _run_form_configs()
        for axis in ("x", "z"):  # the linear model's band and diagonal forms
            scenario = build_scenario("linear", 100, 1.7, 2.3, axis=axis)
            qfi_report(scenario.probe, scenario.h)
        assert len(layouts) > 30
        assert [pair for pair in layouts if pair[0] != pair[1]] == []
        met = {layout for layout, _ in layouts}
        assert met == {
            ("diagonal", 1, ()), ("blocks", 1, (False,)), ("blocks", 1, (True,)),
            ("blocks", 2, (False, False)), ("blocks", 2, (True, True)),
        }

    @pytest.mark.parametrize("mutant", ["blocks-as-dense", "dense-as-diagonal"])
    def test_a_wrong_form_is_caught(self, monkeypatch, mutant):
        import thermalqfi.models as models
        import thermalqfi.operators as operators
        import thermalqfi.spin as spin

        if mutant == "blocks-as-dense":  # J_x^2 above 81 tagged one dense block
            monkeypatch.setattr(spin, "_blocks", lambda *a, **k: operators._blocks(operators._blocks(*a, **k).matrix))
        else:  # J_x^2 up to 81 tagged diagonal, though its array is dense
            monkeypatch.setattr(models, "_blocks", lambda m: operators._diagonal(np.diagonal(m)))
        seen = _record_forms(monkeypatch)
        for twice_j in (10, 400):
            _point_at("oat", twice_j)
        # a record mislabelled in its detected form is caught by the form
        # check; one whose parts lose entries, by the dense reference
        assert seen["mismatches"] if mutant == "blocks-as-dense" else _model_record_mismatches([10])


class TestEvenChunks:
    def test_no_one_row_remainders_and_rows_unchanged(self, monkeypatch):
        import thermalqfi.qfi as qfi_module
        import thermalqfi.sweep as sweep_module
        from thermalqfi.sweep import SweepConfig, figure_configs, run_sweep

        chunks, calls = [], []
        generator_sums, route_sums = qfi_module._generator_sums, qfi_module.route_sums
        monkeypatch.setattr(qfi_module, "_generator_sums", lambda p, *a: chunks.append(len(p)) or generator_sums(p, *a))
        monkeypatch.setattr(sweep_module, "route_sums", lambda *a: calls.append(a) or route_sums(*a))
        # the chunk floor of 2^13 terms takes fig2a's 19 rows in one chunk and
        # fig3b's 100 in two (they were [10, 9] and [10] * 10 without it)
        for name, expected in (("fig2a", [19]), ("fig3b", [50, 50])):
            chunks.clear(), calls.clear()
            run_sweep(SweepConfig.from_dict({k: v for k, v in figure_configs()[name].items() if k != "metadata"}))
            assert chunks == expected, name
            # each row equals its own k = 1 evaluator call on the same plan
            (plan, p, betas), = calls
            whole = route_sums(plan, p, betas)
            rows = [route_sums(plan, p[r : r + 1], betas[r : r + 1]) for r in range(len(p))]
            assert repr(whole) == repr(type(whole)(*([row[i][0] for row in rows] for i in range(len(whole)))))
