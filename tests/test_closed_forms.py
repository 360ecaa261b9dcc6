import math

import numpy as np
import pytest

from thermalqfi.bounds import variance_bound
from thermalqfi.closed_forms import (
    coth,
    large_j_linear_approx,
    linear_qfi_closed,
    linear_variance_closed,
    oat_eta,
    oat_qfi_closed,
    oat_seminorm_semiclassical,
    oat_variance_closed,
)
from thermalqfi.models import build_scenario, closed_forms_for
from thermalqfi.operators import seminorm
from thermalqfi.qfi import qfi_general, qfi_report
from thermalqfi.spin import oat_commutator, spin_operators
from thermalqfi.thermal import beta_from_polarization, gibbs_state, partition_moment_ratio

GRID_TWICE_J = (1, 2, 3, 4, 6, 10)
GRID_BETA = (0.1, 0.5, 1.1, 2.0, 5.0)
GRID_T = (0.5, 1.0, 3.14)


class TestLinearQfi:
    def test_vanishes_at_infinite_temperature(self):
        assert linear_qfi_closed(5, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 7.0])
    def test_qubit_reduction(self, beta):
        # hand reduction at J = 1/2: coth(b) - coth(b/2)/2 = tanh(b/2)/2
        assert linear_qfi_closed(1, beta, 1.0) == pytest.approx(math.tanh(0.5 * beta) ** 2, rel=1e-12)

    def test_frozen_qubit_value(self):
        assert abs(linear_qfi_closed(1, 2.0, 1.0) - 0.5800256583859735) <= 1e-10

    def test_matches_pipeline_on_grid(self):
        for twice_j in GRID_TWICE_J:
            for beta in GRID_BETA:
                for t in GRID_T:
                    scenario = build_scenario("linear", twice_j, beta, t)
                    pipeline = qfi_general(scenario.probe, scenario.h)
                    closed = linear_qfi_closed(twice_j, beta, t)
                    assert abs(closed - pipeline) <= 1e-8 * max(1.0, abs(closed), abs(pipeline))

    def test_monotone_in_polarization(self):
        values = [
            linear_qfi_closed(10, beta_from_polarization(p), 1.0)
            for p in np.arange(0.05, 0.96, 0.05)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_large_argument_stability(self):
        # beta*J far beyond exp overflow: coth saturates, no overflow
        value = linear_qfi_closed(200, 50.0, 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(200.0, rel=1e-6)


class TestLinearVariance:
    @pytest.mark.parametrize("beta,t", [(0.4, 1.0), (1.0, 2.0), (3.0, 0.5)])
    def test_qubit_collapses_to_quarter(self, beta, t):
        # sinh(3x) = 3 sinh x + 4 sinh^3 x collapses the bracket to 1/4
        assert linear_variance_closed(1, beta, t) == pytest.approx(beta**2 * t**2 / 4.0, rel=1e-12)

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 6, 10, 27])
    def test_partition_ratio_identity(self, twice_j):
        # oracle: beta^2 t^2 (J(J+1) - Z2/Z)/2 from the partition sums
        j = twice_j / 2.0
        for beta in (0.2, 1.1, 4.0):
            expected = beta**2 * 0.5 * (j * (j + 1.0) - partition_moment_ratio(twice_j, beta))
            assert linear_variance_closed(twice_j, beta, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_matches_numeric_bound_on_grid(self):
        for twice_j in GRID_TWICE_J:
            for beta in GRID_BETA:
                for t in GRID_T:
                    scenario = build_scenario("linear", twice_j, beta, t)
                    numeric = variance_bound(scenario.probe, scenario.h)
                    closed = linear_variance_closed(twice_j, beta, t)
                    assert abs(closed - numeric) <= 1e-8 * max(1.0, abs(closed), abs(numeric))

    def test_large_spin_asymptote(self):
        # Var[J_y] ~ (2J+1) coth(b/2)/4 - coth^2(b/2)/4 for large J
        twice_j, beta = 200, 1.0
        var = linear_variance_closed(twice_j, beta, 1.0) / beta**2
        approx = 0.25 * (twice_j + 1.0) * coth(0.5 * beta) - 0.25 * coth(0.5 * beta) ** 2
        assert var == pytest.approx(approx, rel=1e-2)

    def test_high_temperature_limit_is_maximally_mixed_variance(self):
        # Tr[J_y^2]/d = J(J+1)/3 at beta -> 0
        twice_j, beta, t = 8, 1e-3, 1.0
        j = twice_j / 2.0
        expected = beta**2 * t**2 * j * (j + 1.0) / 3.0
        assert linear_variance_closed(twice_j, beta, t) == pytest.approx(expected, rel=1e-5)


def _oat_eta_literal(twice_j, beta):
    # the csch/sinh pair form, usable away from overflow and cancellation
    j = twice_j / 2.0
    jp = j + 0.5
    return (
        3.0
        - 4.0 * j * (j + 1.0)
        + (
            j * (2.0 * j - 1.0) * math.sinh(beta * (jp + 1.0))
            + (j + 1.0) * (2.0 * j + 3.0) * math.sinh(beta * (jp - 1.0))
        )
        / math.sinh(beta * jp)
    )


class TestOatClosedForms:
    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
    def test_qubit_identically_zero(self, beta):
        assert oat_qfi_closed(1, beta, 1.0) == 0.0
        assert oat_variance_closed(1, beta, 1.0) == 0.0

    @pytest.mark.parametrize("twice_j", [2, 3, 4, 10, 19])
    @pytest.mark.parametrize("beta", [0.5, 1.1, 3.0, 8.0])
    def test_eta_matches_literal_form(self, twice_j, beta):
        assert oat_eta(twice_j, beta) == pytest.approx(_oat_eta_literal(twice_j, beta), rel=1e-10)

    def test_eta_vanishes_at_high_temperature(self):
        # eta = O(beta^4); at beta = 1e-3 and J = 5 that is ~1e-10
        assert abs(oat_eta(10, 1e-3)) <= 1e-8
        assert oat_qfi_closed(10, 1e-3, 1.0) <= 1e-3

    def test_spin3_matches_pipeline(self):
        scenario = build_scenario("oat", 6, 1.0, 1.0)
        pipeline = qfi_general(scenario.probe, scenario.h)
        assert oat_qfi_closed(6, 1.0, 1.0) == pytest.approx(pipeline, rel=1e-10)

    def test_variance_matches_pipeline_spot(self):
        scenario = build_scenario("oat", 4, 1.5, 1.0)
        numeric = variance_bound(scenario.probe, scenario.h)
        assert oat_variance_closed(4, 1.5, 1.0) == pytest.approx(numeric, rel=1e-10)

    def test_matches_pipeline_on_grid(self):
        for twice_j in GRID_TWICE_J:
            for beta in GRID_BETA:
                for t in GRID_T:
                    scenario = build_scenario("oat", twice_j, beta, t)
                    pipeline = qfi_general(scenario.probe, scenario.h)
                    closed = oat_qfi_closed(twice_j, beta, t)
                    assert abs(closed - pipeline) <= 1e-8 * max(1.0, abs(closed), abs(pipeline))

    def test_quadratic_time_scaling(self):
        assert oat_variance_closed(4, 1.5, 2.0) == pytest.approx(
            4.0 * oat_variance_closed(4, 1.5, 1.0), rel=1e-14
        )
        assert oat_qfi_closed(4, 1.5, 3.0) == pytest.approx(9.0 * oat_qfi_closed(4, 1.5, 1.0), rel=1e-14)

    @pytest.mark.parametrize("twice_j", [4, 10])
    def test_interior_temperature_maximum(self, twice_j):
        # from J = 2 up the twisting QFI peaks at an interior polarization
        values = [
            oat_qfi_closed(twice_j, beta_from_polarization(p), 1.0)
            for p in np.arange(0.05, 0.96, 0.05)
        ]
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1
        assert values[peak] > max(values[0], values[-1])


class TestLowTemperature:
    """Past the overflow point of the original forms the bounded forms take
    over, finite for every beta and still matching the pipeline."""

    @pytest.mark.parametrize("twice_j", [2, 10, 200])
    @pytest.mark.parametrize("beta", [1e3, 1e4, 1e5])
    @pytest.mark.parametrize("model", ["oat", "linear"])
    def test_matches_pipeline(self, model, beta, twice_j):
        scenario = build_scenario(model, twice_j, beta, 1.3)
        report = qfi_report(scenario.probe, scenario.h)
        numeric = variance_bound(scenario.probe, scenario.h)
        qfi_form, variance_form = closed_forms_for(model, "x")
        assert qfi_form(twice_j, beta, 1.3) == pytest.approx(report.f_sld, rel=1e-8, abs=0.0)
        assert variance_form(twice_j, beta, 1.3) == pytest.approx(numeric, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("twice_j", [10, 200])
    def test_ground_state_limits(self, twice_j):
        # F -> t^2 J (2J - 1) and beta^2 Var[C] -> beta^2 t^2 J (2J - 1) for
        # the twisting model; Var[J_y] -> J/2 in the ground state
        j = twice_j / 2.0
        for beta in (300.0, 700.0, 1e3, 1e5):
            assert oat_qfi_closed(twice_j, beta, 1.0) == pytest.approx(j * (2.0 * j - 1.0), rel=1e-14)
            assert oat_variance_closed(twice_j, beta, 1.0) == pytest.approx(beta**2 * j * (2.0 * j - 1.0), rel=1e-14)
            assert linear_variance_closed(twice_j, beta, 1.0) == pytest.approx(beta**2 * j / 2.0, rel=1e-12)

    def test_switch_over_lies_above_the_overflow_free_range(self):
        # below beta = 350 no form switches, at any 2J up to the cap
        from thermalqfi import closed_forms

        assert closed_forms._OAT_VARIANCE_SWITCH > 355.0
        assert not closed_forms._oat_large_beta(2000, 690.0)
        assert closed_forms._oat_large_beta(2000, 700.0)


class TestSemiclassicalSeminorm:
    def test_estimate_values(self):
        assert oat_seminorm_semiclassical(2) == 2.0
        assert oat_seminorm_semiclassical(3) == 4.5

    def test_spin1_estimate_is_exact(self):
        assert seminorm(oat_commutator(2)) == pytest.approx(oat_seminorm_semiclassical(2), abs=1e-9)

    def test_spin_three_halves_ratio(self):
        ratio = seminorm(oat_commutator(3)) / oat_seminorm_semiclassical(3)
        assert ratio == pytest.approx(2.0 * math.sqrt(3.0) / 4.5, rel=1e-10)

    def test_upper_bound_and_trend(self):
        ratios = []
        for twice_j in (3, 4, 10, 20, 40, 80):
            exact = seminorm(oat_commutator(twice_j))
            estimate = oat_seminorm_semiclassical(twice_j)
            assert exact <= estimate + 1e-9
            ratios.append(exact / estimate)
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.98


class TestLargeJApprox:
    def test_low_temperature_saturates_standard_quantum_limit(self):
        twice_j, t = 100, 1.0
        assert large_j_linear_approx(twice_j, 50.0, t) == pytest.approx(twice_j * t * t, rel=1e-12)

    def test_matches_exact_at_moderate_spin(self):
        exact = linear_qfi_closed(100, 20.0, 1.0)
        approx = large_j_linear_approx(100, 20.0, 1.0)
        assert abs(exact - approx) / exact <= 1e-3

    def test_out_of_domain_at_high_temperature(self):
        # below beta ~ 1 the approximation turns negative: documented misuse
        assert large_j_linear_approx(100, 0.0, 1.0) < 0.0
