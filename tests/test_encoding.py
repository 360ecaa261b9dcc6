import logging

import numpy as np
import pytest
from hypothesis import given, settings

import thermalqfi.encoding as encoding
from thermalqfi.encoding import (
    ExplicitGenerator,
    HamiltonianFamily,
    NumericUnitary,
    evolution_unitary,
    generator_explicit,
    generator_fd,
    generator_integral,
    transformed_generator,
)
from thermalqfi.models import lmg_hamiltonian
from thermalqfi.operators import Hermitian, hermiticity_defect, seminorm
from thermalqfi.qfi import qfi_general
from thermalqfi.spin import spin_operators
from thermalqfi.thermal import gibbs_state

from conftest import full_array_kernel, full_kernel_generator, hermitian_pairs, per_time_generator


class TestExplicit:
    def test_scales_generator(self):
        jx, _, _ = spin_operators(2)
        out = generator_explicit(jx, 2.0)
        np.testing.assert_array_equal(out.matrix, 2.0 * jx)

    def test_squared_generator_passes_through(self):
        jx, _, _ = spin_operators(4)
        jx2 = jx @ jx
        np.testing.assert_array_equal(generator_explicit(jx2, 1.0).matrix, jx2)

    def test_zero_time(self):
        jx, _, _ = spin_operators(1)
        assert np.max(np.abs(generator_explicit(jx, 0.0).matrix)) == 0.0

    def test_rejects_negative_time(self):
        jx, _, _ = spin_operators(1)
        with pytest.raises(ValueError):
            ExplicitGenerator(jx, -1.0)


class TestIntegral:
    def test_commuting_family_reduces_to_linear(self):
        _, _, jz = spin_operators(3)
        family = HamiltonianFamily(lambda lam: lam * jz, jz, lam=0.8, t=2.5)
        out = generator_integral(family)
        np.testing.assert_allclose(out.matrix, 2.5 * jz, atol=1e-12)

    def test_zero_time_gives_zero(self):
        _, _, jz = spin_operators(2)
        family = HamiltonianFamily(lambda lam: lmg_hamiltonian(2, lam), jz, lam=1.0, t=0.0)
        assert np.max(np.abs(generator_integral(family).matrix)) <= 1e-15

    def test_hermitian_output(self):
        _, _, jz = spin_operators(6)
        family = HamiltonianFamily(lambda lam: lmg_hamiltonian(6, lam), jz, lam=0.5, t=3.14)
        assert hermiticity_defect(generator_integral(family).matrix) == 0.0

    @pytest.mark.parametrize("twice_j,lam,t", [(2, 1.0, 1.0), (4, 0.5, 3.14), (8, 1.0, 2.0)])
    def test_against_finite_difference_oracle(self, twice_j, lam, t):
        _, _, jz = spin_operators(twice_j)
        family = HamiltonianFamily(lambda v: lmg_hamiltonian(twice_j, v), jz, lam=lam, t=t)
        spectral = generator_integral(family).matrix
        numeric = NumericUnitary(
            lambda v: evolution_unitary(lmg_hamiltonian(twice_j, v), t), lam=lam, fd_step=1e-5
        )
        fd = generator_fd(numeric).matrix
        scale = max(1.0, float(np.max(np.abs(spectral))))
        assert np.max(np.abs(fd - spectral)) / scale <= 1e-5

    @given(hermitian_pairs(max_dim=6))
    @settings(max_examples=40)
    def test_seminorm_bounded_by_time_and_derivative(self, pair):
        base, deriv = pair
        family = HamiltonianFamily(lambda lam: base + lam * deriv, deriv, lam=0.6, t=1.7)
        h = generator_integral(family).matrix
        assert seminorm(h) <= 1.7 * seminorm(deriv) + 1e-8


class TestBlockKernel:
    @pytest.mark.parametrize("twice_j", [100, 101])
    def test_block_kernel_has_the_bits_of_the_full_array_kernel(self, twice_j):
        jz = spin_operators(twice_j)[2]
        family = HamiltonianFamily(lambda lam: lmg_hamiltonian(twice_j, lam), jz, 0.6, 2.3)
        spectrum = encoding.encoding_spectrum(family)
        assert isinstance(spectrum.v_eig, tuple)  # J_z conserves parity
        blocked = transformed_generator(family).matrix
        # the diagonal J_z, scaled as the blocks are
        assert blocked.tobytes() == full_kernel_generator(family, 2.3).tobytes()

    def test_a_parity_mixing_derivative_keeps_the_full_kernel(self):
        jx, _, jz = spin_operators(100)
        family = HamiltonianFamily(lambda lam: lmg_hamiltonian(100, lam), jx, 0.6, 2.3)
        spectrum = encoding.encoding_spectrum(family)
        assert spectrum.decomposition.blocks is not None
        assert not isinstance(spectrum.v_eig, tuple)
        h = transformed_generator(family).matrix
        assert h[0::2, 1::2].any()  # J_x couples the two parities


class TestPhaseKernel:
    """The one-triangle kernel has the bits of the formula on every entry,
    signed zeros included."""

    @staticmethod
    def _assert_same_bits(delta, t):
        got, expected = encoding._phase_kernel(delta, t), full_array_kernel(delta, t)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("t", [0.0, 1e-12, 0.3, 2.7, 6.1])  # 1e-12: the series branch
    @pytest.mark.parametrize("lam", [1.0, -0.7])
    def test_lmg_parity_blocks_at_400(self, lam, t):
        family = HamiltonianFamily(lambda x: lmg_hamiltonian(400, x), spin_operators(400)[2], lam, 1.0)
        deltas = encoding.encoding_spectrum(family).delta
        assert [d.shape for d in deltas] == [(201, 201), (200, 200)]
        for delta in deltas:
            self._assert_same_bits(delta, t)

    def test_the_fig3a_stack_of_times(self):
        from thermalqfi.models import model_encoding

        _, scheme = model_encoding("lmg", 10, 1.0, lam=1.0)
        (delta,) = encoding.encoding_spectrum(scheme).delta  # a dense H(lambda) is one block
        assert delta.shape == (11, 11)
        self._assert_same_bits(delta, np.array([0.0, 1e-12, 0.3, 2.7, 6.1])[:, None, None])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12])
    def test_every_small_size_and_degenerate_levels(self, n):
        # odd and even n fold differently; equal levels give exact zeros off the diagonal
        levels = np.sort(np.random.default_rng(n).normal(size=n)).round(1) * 7.0
        delta = levels[:, None] - levels[None, :]
        for t in (0.0, 1e-12, 0.3, 2.7, np.array([0.0, 1e-12, 6.1])[:, None, None]):
            self._assert_same_bits(delta, t)


def _schemes():
    from thermalqfi.models import model_encoding

    schemes = {
        f"{model}-{twice_j}": model_encoding(model, twice_j, 1.0, axis=axis, lam=lam)[1]
        for model, axis, lam in (("linear", "y", None), ("oat", "x", None), ("lmg", "x", 0.6))
        for twice_j in (1, 10, 101)
    }
    jx = spin_operators(100)[0]  # H(lambda) splits by parity, J_x does not
    schemes["lmg-parity-mixing"] = HamiltonianFamily(lambda lam: lmg_hamiltonian(100, lam), jx, 0.6, 1.0)
    return schemes


SCHEMES = _schemes()


class TestGeneratorStack:
    """generator_stack gives every time of a grid in one stack, with the
    bits of the generator formed on arrays one time at a time: t A, or
    the full-array kernel."""

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_members_have_the_single_time_bits(self, name):
        scheme = SCHEMES[name]
        times = (0.0, 1e-12, 0.5, 3.14, 40.0)
        stack = encoding.generator_stack(scheme)(times)
        assert stack.shape[0] == len(times) and stack.matrix.dtype == np.complex128
        reference = per_time_generator(scheme)
        for h, t in zip(stack.matrix, times):
            assert h.tobytes() == reference(t).tobytes(), t

    def test_times_are_checked(self):
        stack = encoding.generator_stack(SCHEMES["oat-10"])
        with pytest.raises(ValueError, match="evolution time must be finite and >= 0"):
            stack([0.5, -1.0])

    def test_a_numeric_unitary_has_no_stack(self):
        numeric = NumericUnitary(lambda lam: evolution_unitary(lam * spin_operators(2)[0], 1.0), lam=0.4)
        with pytest.raises(TypeError, match="no time family"):
            encoding.generator_stack(numeric)


class TestFiniteDifference:
    def test_explicit_generator_recovered(self):
        jx, _, _ = spin_operators(2)
        t = 1.3
        numeric = NumericUnitary(lambda lam: evolution_unitary(lam * t * jx, 1.0), lam=0.4, fd_step=1e-5)
        h = generator_fd(numeric).matrix
        np.testing.assert_allclose(h, t * jx, rtol=1e-8, atol=1e-8)

    def test_parameter_independent_unitary(self):
        u = evolution_unitary(spin_operators(2)[0], 0.9)
        numeric = NumericUnitary(lambda lam: u, lam=0.0, fd_step=1e-5)
        assert np.max(np.abs(generator_fd(numeric).matrix)) <= 1e-10

    def test_step_halving_is_second_order(self):
        twice_j, lam, t = 4, 0.5, 3.14  # truncation well above the roundoff floor here
        _, _, jz = spin_operators(twice_j)
        family = HamiltonianFamily(lambda v: lmg_hamiltonian(twice_j, v), jz, lam=lam, t=t)
        spectral = generator_integral(family).matrix

        def gap(step):
            numeric = NumericUnitary(
                lambda v: evolution_unitary(lmg_hamiltonian(twice_j, v), t), lam=lam, fd_step=step
            )
            return float(np.max(np.abs(generator_fd(numeric).matrix - spectral)))

        ratio = gap(2e-4) / gap(1e-4)
        assert 3.0 <= ratio <= 5.0

    def test_rejects_non_unitary_evaluator(self):
        with pytest.raises(ValueError, match="unitary"):
            generator_fd(NumericUnitary(lambda lam: np.eye(2) * (1.0 + lam), lam=0.5, fd_step=1e-3))

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            NumericUnitary(lambda lam: np.eye(2), lam=0.0, fd_step=0.0)
        with pytest.raises(ValueError):
            NumericUnitary(lambda lam: np.eye(2), lam=0.0, fd_step=0.1)


class TestDispatchAndConventions:
    def test_dispatch_by_scheme_type(self):
        # each scheme takes its own route, and every route returns a record
        jx, _, jz = spin_operators(2)
        explicit = transformed_generator(ExplicitGenerator(jx, 1.0))
        fam = HamiltonianFamily(lambda lam: lmg_hamiltonian(2, lam), jz, lam=1.0, t=1.0)
        num = NumericUnitary(lambda lam: evolution_unitary(lam * jx, 1.0), lam=0.3)
        pairs = [(explicit, generator_explicit(jx, 1.0)), (transformed_generator(fam), generator_integral(fam))]
        pairs.append((transformed_generator(num), generator_fd(num)))
        for routed, direct in pairs:
            assert isinstance(routed, Hermitian)
            assert np.array_equal(routed.matrix, direct.matrix)
        assert np.array_equal(explicit.matrix, jx)
        with pytest.raises(TypeError):
            transformed_generator(object())

    def test_sign_convention_insensitivity(self):
        # U = exp(+iHt) maps h to -conj(h) in this real operator basis, so
        # |h_mn|^2, the spectrum, and the QFI are all unchanged
        twice_j, lam, t = 4, 0.5, 2.0
        probe = gibbs_state(spin_operators(twice_j)[2], 1.1)

        def unitary(sign):
            return NumericUnitary(
                lambda v: evolution_unitary(sign * lmg_hamiltonian(twice_j, v), t), lam=lam, fd_step=1e-5
            )

        h_minus = generator_fd(unitary(1.0)).matrix
        h_plus = generator_fd(unitary(-1.0)).matrix
        scale = np.max(np.abs(h_minus))
        np.testing.assert_allclose(np.abs(h_plus), np.abs(h_minus), atol=1e-8 * scale)
        np.testing.assert_allclose(
            np.real(np.diag(h_plus)), -np.real(np.diag(h_minus)), atol=1e-8 * scale
        )
        assert abs(seminorm(h_plus) - seminorm(h_minus)) <= 1e-8 * scale
        f_minus = qfi_general(probe, h_minus)
        f_plus = qfi_general(probe, h_plus)
        assert f_plus == pytest.approx(f_minus, rel=1e-8)


def _lmg_family(lam=1.0, t=1.0):
    return HamiltonianFamily(
        hamiltonian=lambda value: lmg_hamiltonian(4, value),
        dh_dlambda=spin_operators(4)[2],
        lam=lam,
        t=t,
    )


def _lmg_unitary(lam=1.0, t=1.0):
    return NumericUnitary(unitary=lambda value: evolution_unitary(lmg_hamiltonian(4, value), t), lam=lam)


class TestDebugResidue:
    """The symmetrized residue of the generators is measured only for the DEBUG log."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: generator_integral(_lmg_family()), "generator_integral: symmetrized residue"),
            (lambda: generator_fd(_lmg_unitary()), "generator_fd: anti-Hermitian residue"),
        ],
        ids=["integral", "fd"],
    )
    def test_logged_at_debug(self, caplog, build, message):
        with caplog.at_level(logging.DEBUG, logger="thermalqfi.encoding"):
            build()
        assert message in caplog.text

    @pytest.mark.parametrize(
        "build",
        [lambda: generator_integral(_lmg_family()), lambda: generator_fd(_lmg_unitary())],
        ids=["integral", "fd"],
    )
    def test_not_measured_without_debug(self, caplog, monkeypatch, build):
        expected = build().matrix

        def refuse(*args, **kwargs):
            raise AssertionError("residue measured with DEBUG off")

        monkeypatch.setattr(encoding, "hermiticity_defect", refuse)
        with caplog.at_level(logging.INFO, logger="thermalqfi.encoding"):
            got = build().matrix
        assert np.array_equal(got, expected)
