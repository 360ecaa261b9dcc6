import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thermalqfi.bounds import (
    BoundReport,
    UnsupportedEncodingError,
    bound_report,
    bound_scales,
    gap_bounds,
    minimum_gap,
    noncommutativity,
    product_bound,
    scheme_product_bound,
    seminorm_bound,
    variance_bound,
)
from thermalqfi.encoding import ExplicitGenerator, NumericUnitary
from thermalqfi.models import build_scenario, model_encoding
from thermalqfi.operators import commutator_i, eigendecompose, matrix_exp_scaled, seminorm, variance
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
                c = commutator_i(scenario.probe.hamiltonian, scenario.h.matrix)
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
        scheme = NumericUnitary(lambda lam: matrix_exp_scaled(lam * jx, -1j), lam=0.5)
        message = "^numeric-unitary encodings expose no dH/dlambda; the product bound is undefined$"
        with pytest.raises(UnsupportedEncodingError, match=message):
            scheme_product_bound(probe, scheme)

    def test_unknown_scheme_type_rejected(self):
        probe = gibbs_state(spin_operators(2)[2], 1.0)
        with pytest.raises(TypeError, match="^unknown encoding scheme type: object$") as excinfo:
            scheme_product_bound(probe, object())
        assert excinfo.type is TypeError

    @pytest.mark.parametrize("model, lam", [("linear", None), ("oat", None), ("lmg", -0.7)])
    def test_h_width_has_the_bits_of_the_probe_seminorm(self, model, lam):
        """||H|| is read off the probe decomposition; for the diagonal J_z
        of every model it is bit for bit seminorm(J_z), so no product bound
        or gap threshold of a model moves."""
        for twice_j in range(1, 401):
            jz, scheme = model_encoding(model, twice_j, 1.0, lam=lam)
            width = bound_scales(eigendecompose(jz), scheme).h_width
            assert float.hex(width) == float.hex(seminorm(jz)), twice_j

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


def _dense_minimum_gap(eigenvalues, threshold):
    """The minimum gap over the full (..., n, n) difference array: the
    reference for minimum_gap."""
    e = np.asarray(eigenvalues, dtype=float)
    gaps = np.abs(e[..., :, None] - e[..., None, :])
    above = np.where(gaps > np.asarray(threshold, dtype=float)[..., None, None], gaps, np.inf)
    smallest = above.min(axis=(-2, -1))
    if np.any(np.isinf(smallest)):
        raise ValueError("spectrum is fully degenerate; no nonzero gap exists")
    return smallest


def _gap_outcome(gap, eigenvalues, threshold):
    try:
        value = gap(eigenvalues, threshold)
    except ValueError as exc:
        return str(exc)
    return type(value), np.shape(value), _bits_of(value)


def _bits_of(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


class TestSortedMinimumGap:
    """minimum_gap walks each sorted spectrum instead of forming every
    pairwise difference, with the dense reference's values, shape and
    verdict."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.one_of(
            st.tuples(st.integers(1, 300)),
            st.tuples(st.integers(1, 6), st.integers(1, 40)),
        ),
        levels=st.integers(1, 300),
        splitting=st.sampled_from([0.0, 1e-15, 1e-13, 1e-10]),
        threshold=st.sampled_from(["zero", "relative", "tiny", "large", "per-spectrum"]),
    )
    def test_equals_the_dense_reference(self, seed, shape, levels, splitting, threshold):
        rng = np.random.default_rng(seed)
        # unsorted draws from a few levels: degenerate clusters, exact
        # duplicates and splittings around the threshold
        base = rng.normal(size=min(levels, shape[-1])) * 10.0 ** rng.uniform(-3, 3)
        e = rng.choice(base, size=shape) + splitting * rng.normal(size=shape)
        width = np.ptp(e, axis=-1)
        thresholds = {
            "zero": 0.0,
            "relative": 1e-9 * width,
            "tiny": 1e-300,
            "large": 0.3 * width,
            "per-spectrum": rng.choice([0.0, 1e-12, 1e-9], size=shape[:-1]),
        }
        t = thresholds[threshold]
        assert _gap_outcome(minimum_gap, e, t) == _gap_outcome(_dense_minimum_gap, e, t)

    @pytest.mark.parametrize(
        "energies, threshold",
        [
            ([3.0, -1.0, 2.0, 0.5], 0.0),
            ([1.0, 1.0, 1.0, 2.0, 2.0 + 1e-12, 0.0], 1e-9),
            ([0.0, 0.0], 0.0),
            ([5.0], 0.0),
            ([0.0, -0.0, 1.0], 0.0),
            ([[0.0, 1.0, 3.0], [2.0, 2.0, 2.5]], [0.0, 0.6]),
            ([0.0, 1.0, 3.0], [0.5, 1.5]),
            ([0.0, 1.0, 3.0], -1.0),
        ],
        ids=["unsorted", "clusters", "fully-degenerate", "one-level", "signed-zeros",
             "stack", "thresholds-broadcast", "negative-threshold"],
    )
    def test_edge_cases_equal_the_dense_reference(self, energies, threshold):
        assert _gap_outcome(minimum_gap, energies, threshold) == _gap_outcome(_dense_minimum_gap, energies, threshold)

    def test_no_pairwise_array(self):
        import tracemalloc

        e = np.random.default_rng(0).normal(size=2001)
        tracemalloc.start()
        try:
            minimum_gap(e, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * e.nbytes < 2001 * e.nbytes


class TestNoncommutativity:
    def test_zero_for_commuting_pair(self):
        _, _, jz = spin_operators(3)
        assert noncommutativity(jz, jz) == 0.0

    def test_zero_noncommutativity_implies_zero_qfi(self):
        scenario = build_scenario("linear", 5, 2.0, 1.7, axis="z")
        assert noncommutativity(scenario.probe.hamiltonian, scenario.h.matrix) <= 1e-12
        assert qfi_general(scenario.probe, scenario.h) <= 1e-12

    def test_linear_model_value(self):
        twice_j, t = 6, 2.0
        scenario = build_scenario("linear", twice_j, 1.0, t)
        assert noncommutativity(scenario.probe.hamiltonian, scenario.h.matrix) == pytest.approx(
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
        scheme = NumericUnitary(lambda lam: matrix_exp_scaled(lam * 1.5 * jx, -1j), lam=0.5)
        report = bound_report(probe, scheme)
        assert report.product_bound is None
        assert report.ordering_ok

    def test_a_plain_record(self):
        # built once per report from bound_rows' columns: a plain, mutable
        # and unhashable dataclass, whose replace, fields, vars, == and repr work
        scenario = build_scenario("oat", 4, 1.0, 1.0)
        report = bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        names = [
            "f", "variance_bound", "seminorm_bound", "product_bound", "convexity_bound", "gap_variance_bound",
            "gap_seminorm_bound", "min_gap", "noncommutativity", "ordering_ok",
        ]
        assert [f.name for f in dataclasses.fields(BoundReport)] == names
        assert list(vars(report)) == names and vars(report) == dataclasses.asdict(report)
        assert repr(report) == "BoundReport(" + ", ".join(f"{k}={v!r}" for k, v in vars(report).items()) + ")"
        assert report == bound_report(scenario.probe, scenario.scheme, h=scenario.h)
        failed = dataclasses.replace(report, ordering_ok=False)
        assert failed != report and report.ordering_ok is True
        assert dataclasses.replace(failed, ordering_ok=True) == report
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)

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
