"""Unit tests for composite and tabulated delay-utilities."""

from __future__ import annotations

import math

import pytest

from repro.errors import UtilityDomainError
from repro.utility import (
    ExponentialUtility,
    MixtureUtility,
    ScaledUtility,
    ShiftedUtility,
    StepUtility,
    TabulatedUtility,
)


class TestScaledUtility:
    def test_scales_everything(self):
        base = ExponentialUtility(0.5)
        scaled = ScaledUtility(base, 3.0)
        assert scaled(2.0) == pytest.approx(3.0 * base(2.0))
        assert scaled.h0 == pytest.approx(3.0 * base.h0)
        assert scaled.expected_gain(1.0) == pytest.approx(
            3.0 * base.expected_gain(1.0)
        )
        assert scaled.phi(2.0, 0.1) == pytest.approx(3.0 * base.phi(2.0, 0.1))

    def test_phi_inverse_round_trip(self):
        scaled = ScaledUtility(ExponentialUtility(0.5), 3.0)
        x = 4.0
        assert scaled.phi_inverse(scaled.phi(x, 0.05), 0.05) == pytest.approx(x)

    def test_scaling_does_not_change_optimal_shape(self):
        # psi is scaled by the same constant, so the equilibrium condition
        # d_i phi(x_i) = const selects the same allocation.
        base = ExponentialUtility(0.5)
        scaled = ScaledUtility(base, 7.0)
        ratio = scaled.phi(1.0, 0.05) / base.phi(1.0, 0.05)
        assert scaled.phi(9.0, 0.05) / base.phi(9.0, 0.05) == pytest.approx(
            ratio
        )

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(UtilityDomainError):
            ScaledUtility(StepUtility(1.0), 0.0)


class TestShiftedUtility:
    def test_shifts_h_but_not_phi(self):
        base = StepUtility(2.0)
        shifted = ShiftedUtility(base, 5.0)
        assert shifted(1.0) == pytest.approx(base(1.0) + 5.0)
        assert shifted.h0 == pytest.approx(6.0)
        assert shifted.phi(3.0, 0.05) == pytest.approx(base.phi(3.0, 0.05))

    def test_expected_gain_shifted(self):
        base = StepUtility(2.0)
        shifted = ShiftedUtility(base, -1.0)
        assert shifted.expected_gain(0.7) == pytest.approx(
            base.expected_gain(0.7) - 1.0
        )

    def test_gain_never(self):
        shifted = ShiftedUtility(StepUtility(1.0), 2.0)
        assert shifted.gain_never == pytest.approx(2.0)


class TestMixtureUtility:
    def test_average_of_components(self):
        mix = MixtureUtility(
            [(0.25, StepUtility(1.0)), (0.75, ExponentialUtility(1.0))]
        )
        t = 0.5
        expected = 0.25 * 1.0 + 0.75 * math.exp(-0.5)
        assert mix(t) == pytest.approx(expected)

    def test_expected_gain_linear(self):
        step = StepUtility(2.0)
        exp = ExponentialUtility(0.5)
        mix = MixtureUtility([(0.5, step), (0.5, exp)])
        rate = 0.8
        assert mix.expected_gain(rate) == pytest.approx(
            0.5 * step.expected_gain(rate) + 0.5 * exp.expected_gain(rate)
        )

    def test_phi_linear(self):
        step = StepUtility(2.0)
        exp = ExponentialUtility(0.5)
        mix = MixtureUtility([(0.3, step), (0.7, exp)])
        assert mix.phi(4.0, 0.05) == pytest.approx(
            0.3 * step.phi(4.0, 0.05) + 0.7 * exp.phi(4.0, 0.05)
        )

    def test_generic_phi_inverse_works(self):
        mix = MixtureUtility(
            [(0.5, StepUtility(2.0)), (0.5, ExponentialUtility(0.5))]
        )
        x = 6.0
        value = mix.phi(x, 0.05)
        assert mix.phi_inverse(value, 0.05) == pytest.approx(x, rel=1e-6)

    def test_differential_combines(self):
        mix = MixtureUtility(
            [(0.5, StepUtility(2.0)), (0.5, ExponentialUtility(0.5))]
        )
        measure = mix.differential
        assert len(measure.atoms) == 1
        assert measure.atoms[0].mass == pytest.approx(0.5)
        assert measure.total_mass() == pytest.approx(1.0, rel=1e-8)

    def test_rejects_empty_or_bad_weights(self):
        with pytest.raises(UtilityDomainError):
            MixtureUtility([])
        with pytest.raises(UtilityDomainError):
            MixtureUtility([(0.0, StepUtility(1.0))])


class TestTabulatedUtility:
    def make(self):
        return TabulatedUtility([0.0, 1.0, 3.0], [1.0, 0.4, 0.0])

    def test_interpolation(self):
        u = self.make()
        assert u(0.5) == pytest.approx(0.7)
        assert u(2.0) == pytest.approx(0.2)
        assert u(10.0) == pytest.approx(0.0)  # constant beyond last knot

    def test_limits(self):
        u = self.make()
        assert u.h0 == 1.0
        assert u.gain_never == 0.0

    def test_laplace_against_quadrature(self):
        from repro.utility.base import DelayUtility

        u = self.make()
        for rate in (0.3, 1.0, 4.0):
            numeric = u.differential.laplace(rate)
            assert u.laplace_c(rate) == pytest.approx(numeric, rel=1e-7)

    def test_phi_against_quadrature(self):
        from repro.utility.base import DelayUtility

        u = self.make()
        for x in (0.0, 1.0, 6.0):
            numeric = DelayUtility.phi(u, x, 0.8)
            assert u.phi(x, 0.8) == pytest.approx(numeric, rel=1e-7)

    def test_expected_gain_consistent(self):
        u = self.make()
        rate = 1.2
        assert u.expected_gain(rate) == pytest.approx(
            u.h0 - u.laplace_c(rate), rel=1e-9
        )

    def test_validation(self):
        with pytest.raises(UtilityDomainError):
            TabulatedUtility([0.0], [1.0])  # too few samples
        with pytest.raises(UtilityDomainError):
            TabulatedUtility([0.5, 1.0], [1.0, 0.5])  # must start at 0
        with pytest.raises(UtilityDomainError):
            TabulatedUtility([0.0, 1.0], [0.5, 1.0])  # increasing
        with pytest.raises(UtilityDomainError):
            TabulatedUtility([0.0, 0.0], [1.0, 0.5])  # not increasing times

    def test_survey_shaped_curve_usable_in_qcr_pipeline(self):
        # A "measured impatience" curve still yields a usable reaction fn.
        u = TabulatedUtility(
            [0.0, 5.0, 15.0, 60.0], [1.0, 0.9, 0.35, 0.0]
        )
        psi_values = [u.psi(y, 50, 0.05) for y in (2.0, 10.0, 40.0)]
        assert all(v >= 0 for v in psi_values)
        assert any(v > 0 for v in psi_values)
