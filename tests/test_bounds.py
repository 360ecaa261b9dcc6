import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thermalqfi.bounds import (
    BoundReport,
    UnsupportedEncodingError,
    bound_report,
    gap_bounds,
    minimum_gap,
    noncommutativity,
    product_bound,
    scheme_product_bound,
    seminorm_bound,
    variance_bound,
)
from thermalqfi.encoding import ExplicitGenerator, NumericUnitary, evolution_unitary
from thermalqfi.models import build_scenario
from thermalqfi.operators import commutator_i, variance
from thermalqfi.qfi import QfiReport, qfi_general, qfi_report
from thermalqfi.spin import spin_operators
from thermalqfi.thermal import gibbs_state

from conftest import hermitian_pairs, random_hermitian


class TestVarianceBound:
    @pytest.mark.parametrize("beta,t", [(0.5, 1.0), (2.0, 1.0), (1.3, 3.14)])
    def test_qubit_value(self, beta, t):
        # Var[J_y] = 1/4 on the thermal qubit, so the bound is beta^2 t^2 / 4
        scenario = build_scenario("linear", 1, beta, t)
        assert variance_bound(scenario.probe, scenario.h) == pytest.approx(
            beta**2 * t**2 / 4.0, rel=1e-12
        )

    def test_commuting_scenario_vanishes(self):
        scenario = build_scenario("linear", 4, 1.1, 2.0, axis="z")
        assert variance_bound(scenario.probe, scenario.h) <= 1e-14
        assert qfi_general(scenario.probe, scenario.h) == 0.0

    def test_dominates_qfi_on_grid(self):
        for twice_j in (1, 3, 6):
            for beta in (0.2, 1.1, 4.0):
                scenario = build_scenario("linear", twice_j, beta, 1.0)
                f = qfi_general(scenario.probe, scenario.h)
                assert f <= variance_bound(scenario.probe, scenario.h) + 1e-9
                # oracle: the dense Tr[rho C^2] - Tr[rho C]^2 route
                c = commutator_i(scenario.probe.hamiltonian, scenario.h.h)
                assert beta**2 * variance(c, scenario.probe.density_matrix()) == pytest.approx(
                    variance_bound(scenario.probe, scenario.h), rel=1e-12
                )


class TestSeminormBound:
    def test_linear_model_formula(self):
        # ||i[J_z, t J_x]|| = t ||J_y|| = 2Jt
        twice_j, beta, t = 6, 1.4, 2.0
        scenario = build_scenario("linear", twice_j, beta, t)
        expected = beta**2 * t**2 * twice_j**2 / 4.0
        assert seminorm_bound(scenario.probe, scenario.h) == pytest.approx(expected, rel=1e-10)

    def test_oat_spin1(self):
        # exact anticommutator width 2 at J = 1
        scenario = build_scenario("oat", 2, 1.0, 1.0)
        assert seminorm_bound(scenario.probe, scenario.h) == pytest.approx(1.0, rel=1e-9)

    def test_identity_generator_gives_zero(self):
        _, _, jz = spin_operators(2)
        probe = gibbs_state(jz, 1.0)
        assert seminorm_bound(probe, np.eye(3, dtype=complex)) == 0.0

    def test_dominates_variance_bound(self):
        for twice_j in (2, 5):
            scenario = build_scenario("oat", twice_j, 2.0, 1.0)
            assert variance_bound(scenario.probe, scenario.h) <= seminorm_bound(
                scenario.probe, scenario.h
            ) + 1e-9


class TestProductBound:
    def test_oat_integer_spin_is_j_sixth(self):
        beta, t = 1.3, 0.7
        for twice_j in (2, 4, 6):  # integer J: ||J_x^2|| = J^2 exactly
            j = twice_j / 2.0
            scenario = build_scenario("oat", twice_j, beta, t)
            value = scheme_product_bound(scenario.probe, scenario.scheme)
            assert value == pytest.approx(beta**2 * t**2 * j**6, rel=1e-10)

    def test_linear_model_value(self):
        beta, t, twice_j = 0.9, 1.1, 8
        j = twice_j / 2.0
        scenario = build_scenario("linear", twice_j, beta, t)
        value = scheme_product_bound(scenario.probe, scenario.scheme)
        assert value == pytest.approx(4.0 * beta**2 * t**2 * j**4, rel=1e-10)

    def test_zero_time(self):
        jx, _, jz = spin_operators(2)
        assert product_bound(jz, jx, 1.5, 0.0) == 0.0

    def test_numeric_unitary_unsupported(self):
        jx, _, jz = spin_operators(2)
        probe = gibbs_state(jz, 1.0)
        scheme = NumericUnitary(lambda lam: evolution_unitary(lam * jx, 1.0), lam=0.5)
        message = "^numeric-unitary encodings expose no dH/dlambda; the product bound is undefined$"
        with pytest.raises(UnsupportedEncodingError, match=message):
            scheme_product_bound(probe, scheme)

    def test_unknown_scheme_type_rejected(self):
        probe = gibbs_state(spin_operators(2)[2], 1.0)
        with pytest.raises(TypeError, match="^unknown encoding scheme type: object$") as excinfo:
            scheme_product_bound(probe, object())
        assert excinfo.type is TypeError

    def test_dominates_seminorm_bound(self):
        for twice_j in (2, 4, 7):
            scenario = build_scenario("linear", twice_j, 1.7, 2.0)
            prod = scheme_product_bound(scenario.probe, scenario.scheme)
            assert seminorm_bound(scenario.probe, scenario.h) <= prod + 1e-9


class TestGapBounds:
    @pytest.mark.parametrize("twice_j", [1, 2, 5, 11])
    def test_jz_gap_is_one(self, twice_j):
        scenario = build_scenario("linear", twice_j, 1.0, 1.0)
        assert gap_bounds(scenario.probe, scenario.h).min_gap == pytest.approx(1.0, abs=1e-12)

    def test_qubit_gap_seminorm_dominates_qfi(self):
        t = 1.4
        scenario = build_scenario("linear", 1, 2.0, t)
        bounds = gap_bounds(scenario.probe, scenario.h)
        assert bounds.gap_seminorm_bound == pytest.approx(t * t, rel=1e-10)
        f = qfi_general(scenario.probe, scenario.h)
        assert f == pytest.approx(t * t * math.tanh(1.0) ** 2, rel=1e-10)
        assert f <= bounds.gap_seminorm_bound

    def test_oat_spin1_gap_seminorm(self):
        scenario = build_scenario("oat", 2, 1.0, 1.0)
        assert gap_bounds(scenario.probe, scenario.h).gap_seminorm_bound == pytest.approx(4.0, rel=1e-9)

    def test_chain_ordering(self):
        scenario = build_scenario("lmg", 6, 1.1, 2.0, lam=1.0)
        bounds = gap_bounds(scenario.probe, scenario.h)
        f = qfi_general(scenario.probe, scenario.h)
        assert f <= bounds.convexity_bound + 1e-9
        assert bounds.convexity_bound <= bounds.gap_variance_bound + 1e-9
        assert bounds.gap_variance_bound <= bounds.gap_seminorm_bound + 1e-9

    def test_fully_degenerate_hamiltonian_rejected(self):
        jx, _, _ = spin_operators(2)
        probe = gibbs_state(np.eye(3, dtype=complex), 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            gap_bounds(probe, jx)

    def test_minimum_gap_ignores_subthreshold_splittings(self):
        energies = np.array([0.0, 1e-12, 1.0])
        assert minimum_gap(energies, threshold=1e-9) == pytest.approx(1.0 - 1e-12)


class TestNoncommutativity:
    def test_zero_for_commuting_pair(self):
        _, _, jz = spin_operators(3)
        assert noncommutativity(jz, jz) == 0.0

    def test_zero_noncommutativity_implies_zero_qfi(self):
        scenario = build_scenario("linear", 5, 2.0, 1.7, axis="z")
        assert noncommutativity(scenario.probe.hamiltonian, scenario.h.h) <= 1e-12
        assert qfi_general(scenario.probe, scenario.h) <= 1e-12

    def test_linear_model_value(self):
        twice_j, t = 6, 2.0
        scenario = build_scenario("linear", twice_j, 1.0, t)
        assert noncommutativity(scenario.probe.hamiltonian, scenario.h.h) == pytest.approx(
            t * twice_j, rel=1e-10
        )


class TestBoundReport:
    def test_linear_scenario_ordering_ok(self):
        scenario = build_scenario("linear", 4, 1.0, 1.0)
        report = bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        assert isinstance(report, BoundReport)
        assert report.ordering_ok
        assert report.product_bound is not None
        assert report.min_gap == pytest.approx(1.0)

    def test_commuting_scenario_all_zero(self):
        scenario = build_scenario("linear", 3, 1.2, 1.0, axis="z")
        report = bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        assert report.ordering_ok
        assert report.f == 0.0
        assert report.variance_bound <= 1e-14
        assert report.noncommutativity <= 1e-12

    def test_numeric_unitary_scheme_omits_product_bound(self):
        jx, _, jz = spin_operators(2)
        probe = gibbs_state(jz, 1.0)
        scheme = NumericUnitary(lambda lam: evolution_unitary(lam * 1.5 * jx, 1.0), lam=0.5)
        report = bound_report(probe, scheme)
        assert report.product_bound is None
        assert report.ordering_ok

    def test_f_is_the_sld_route_at_high_temperature(self):
        """At 2J = 200, beta = 1e-6 the general route has lost about eps/beta^2
        (5e-5 relative) and overshoots the variance bound; the SLD route,
        a sum of nonnegative terms, keeps its digits and the chain holds."""
        scenario = build_scenario("oat", 200, 1e-6, 1.0)
        report = bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        assert repr(report.f) == repr(qfi_report(scenario.probe, scenario.h).f_sld)
        assert report.ordering_ok

    def test_f_is_the_sld_route_on_a_random_scenario(self):
        rng = np.random.default_rng(11)
        hamiltonian, generator = (random_hermitian(rng, 6) for _ in range(2))
        probe = gibbs_state(hamiltonian, 0.7)
        report = bound_report(probe, ExplicitGenerator(generator, 1.3))
        assert repr(report.f) == repr(qfi_report(probe, 1.3 * generator).f_sld)

    @given(hermitian_pairs(max_dim=8), st.floats(min_value=0.05, max_value=10.0))
    @settings(max_examples=100)
    def test_random_scenarios_ordering(self, pair, beta):
        hamiltonian, generator = pair
        probe = gibbs_state(hamiltonian, beta)
        report = bound_report(probe, ExplicitGenerator(generator, 1.1))
        assert report.ordering_ok


class TestOrderingSlack:
    def test_small_f_breaking_a_small_bound_by_1e_6_relative_fails(self):
        # the linear qubit at beta = 0.1, t = 0.05: every bound is below 3e-3,
        # so a slack of 1e-9 absolute would forgive F above one by 1e-6 relative
        scenario = build_scenario("linear", 1, 0.1, 0.05)
        honest = bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        tightest = min(
            honest.variance_bound, honest.seminorm_bound, honest.product_bound,
            honest.convexity_bound, honest.gap_variance_bound, honest.gap_seminorm_bound,
        )
        assert honest.ordering_ok and tightest < 1e-5

        def ordering_ok(f):
            claimed = QfiReport(f_general=f, f_thermal=f, f_sld=f, max_pairwise_rel_diff=0.0, pure_state_flag=False)
            return bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=claimed).ordering_ok

        assert ordering_ok(tightest)
        assert not ordering_ok(tightest * (1.0 + 1e-6))

    def test_sld_rounding_at_high_temperature_is_forgiven(self):
        # at beta = 1e-9 each p_i - p_j keeps the few-eps error of its
        # weights while shrinking like beta: the SLD route of the oat spin-3/2
        # lands about 1e-7 relative above beta^2 Var[C], which it cannot exceed
        scenario = build_scenario("oat", 3, 1e-9, 0.5)
        report = bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        assert report.f > report.variance_bound * (1.0 + 1e-8)
        assert report.ordering_ok

        def ordering_ok(f):
            claimed = QfiReport(f_general=f, f_thermal=f, f_sld=f, max_pairwise_rel_diff=0.0, pure_state_flag=False)
            return bound_report(scenario.probe, scenario.scheme, h=scenario.h, qfi_result=claimed).ordering_ok

        # a breach well beyond that rounding error still fails
        assert not ordering_ok(report.variance_bound * (1.0 + 1e-5))
