"""Property-based tests for delay-utility invariants (hypothesis)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utility import (
    DelayUtility,
    ExponentialUtility,
    MixtureUtility,
    NegLogUtility,
    PowerUtility,
    ScaledUtility,
    ShiftedUtility,
    StepUtility,
    TabulatedUtility,
    power_family,
)

# Parameter strategies kept in numerically comfortable ranges.
taus = st.floats(min_value=0.01, max_value=100.0)
nus = st.floats(min_value=0.01, max_value=10.0)
alphas = st.floats(min_value=-3.0, max_value=1.9).filter(
    lambda a: abs(a - 1.0) > 1e-3
)
rates = st.floats(min_value=1e-3, max_value=100.0)
counts = st.floats(min_value=1e-2, max_value=200.0)


def family_strategy():
    return st.one_of(
        taus.map(StepUtility),
        nus.map(ExponentialUtility),
        alphas.map(power_family),
    )


@given(utility=family_strategy(), t1=rates, t2=rates)
def test_h_monotone_non_increasing(utility, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert float(utility(lo)) >= float(utility(hi)) - 1e-12


@given(utility=family_strategy(), r1=rates, r2=rates)
def test_expected_gain_monotone_in_rate(utility, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    assert utility.expected_gain(lo) <= utility.expected_gain(hi) + 1e-9


@given(utility=family_strategy(), x1=counts, x2=counts)
def test_phi_monotone_decreasing(utility, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert utility.phi(lo, 0.05) >= utility.phi(hi, 0.05) - 1e-12


@given(utility=family_strategy(), x=counts)
def test_phi_non_negative(utility, x):
    # phi is a positive integral but may underflow to exactly 0 for
    # extreme deadline/count combinations (e.g. exp(-mu*tau*x) -> 0).
    assert utility.phi(x, 0.05) >= 0


@settings(max_examples=50)
@given(utility=family_strategy(), x=st.floats(min_value=0.1, max_value=50.0))
def test_phi_inverse_round_trip(utility, x):
    mu = 0.05
    value = utility.phi(x, mu)
    recovered = utility.phi_inverse(value, mu)
    assert recovered == pytest.approx(x, rel=1e-4, abs=1e-6)


@given(
    utility=family_strategy(),
    y=st.floats(min_value=0.5, max_value=500.0),
)
def test_psi_identity(utility, y):
    """Property 2: psi(y) = (S/y) phi(S/y)."""
    s, mu = 50, 0.05
    expected = (s / y) * utility.phi(s / y, mu)
    assert utility.psi(y, s, mu) == pytest.approx(expected, rel=1e-9)


@given(utility=family_strategy())
def test_expected_gain_bounded_by_h0(utility):
    gain = utility.expected_gain(1.0)
    assert gain <= utility.h0 + 1e-9
    assert gain >= utility.gain_never - 1e-9


@settings(max_examples=30)
@given(tau=taus, rate=rates)
def test_step_gain_is_deadline_probability(tau, rate):
    """E[1{Y<=tau}] = P(Y <= tau) for Y ~ Exp(rate)."""
    utility = StepUtility(tau)
    assert utility.expected_gain(rate) == pytest.approx(
        1.0 - math.exp(-rate * tau), rel=1e-12
    )


@settings(max_examples=30)
@given(alpha=st.floats(min_value=-2.0, max_value=0.9), scale=st.floats(min_value=0.5, max_value=3.0))
def test_power_gain_scaling_law(alpha, scale):
    """E[h(Y)] under rate r scales as r^(alpha-1) for the power family."""
    utility = PowerUtility(alpha) if alpha != 1.0 else None
    if utility is None:
        return
    base = utility.expected_gain(1.0)
    scaled = utility.expected_gain(scale)
    assert scaled == pytest.approx(base * scale ** (alpha - 1.0), rel=1e-9)


@settings(max_examples=25)
@given(
    utility=family_strategy(),
    t=st.floats(min_value=0.05, max_value=20.0),
    dt=st.floats(min_value=0.01, max_value=5.0),
)
def test_differential_mass_matches_h_drop(utility, t, dt):
    """Integral of c over (t, t+dt] equals h(t) - h(t+dt)."""
    measure = utility.differential
    # Atoms exactly on the interval boundary make the half-open
    # convention ambiguous (measure-zero event); nudge past them.
    for atom in measure.atoms:
        if abs(atom.location - t) < 1e-9 or abs(atom.location - (t + dt)) < 1e-9:
            t = t * (1 + 1e-6) + 1e-6
            break
    # Difference of two smooth integrals — quadrature with a
    # discontinuous indicator weight can miss narrow slivers.
    mass = measure.total_mass(upper=t + dt) - measure.total_mass(upper=t)
    drop = float(utility(t)) - float(utility(t + dt))
    assert mass == pytest.approx(drop, rel=1e-4, abs=1e-6)


# ----------------------------------------------------------------------
# the array contract: h(array) == [h(float(t)) for t in array], bit for
# bit.  The engine logs delays in its event loop and evaluates every
# gain in one array call after it, which is only exact under this.
# ----------------------------------------------------------------------
#: One instance or more of every DelayUtility class.
ARRAY_CONTRACT_UTILITIES = [
    StepUtility(8.0),
    ExponentialUtility(0.05),
    *(PowerUtility(a) for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.5, 1.9)),
    NegLogUtility(),
    ScaledUtility(PowerUtility(0.5), 2.5),
    ShiftedUtility(ExponentialUtility(0.1), -0.5),
    MixtureUtility([(0.3, StepUtility(5.0)), (0.7, PowerUtility(-1.0))]),
    TabulatedUtility([0.0, 1.0, 10.0, 100.0], [1.0, 0.5, 0.1, 0.0]),
]

delays = st.lists(
    st.floats(min_value=1e-9, max_value=1e5), min_size=1, max_size=64
)


def test_array_contract_covers_every_class():
    shipped = {
        cls
        for cls in DelayUtility.__subclasses__()
        if cls.__module__.startswith("repro.")
    }
    assert len(shipped) == 8
    assert {type(u) for u in ARRAY_CONTRACT_UTILITIES} == shipped


def assert_array_matches_scalars(utility, ts):
    ts = np.asarray(ts, dtype=float)
    batched = np.asarray(utility(ts), dtype=float)
    one_by_one = np.array([float(utility(float(t))) for t in ts])
    assert batched.shape == ts.shape
    # Compare bit patterns: -0.0 vs 0.0 or a last-bit difference fails.
    assert np.array_equal(batched.view(np.int64), one_by_one.view(np.int64))


@pytest.mark.parametrize(
    "utility", ARRAY_CONTRACT_UTILITIES, ids=lambda u: u.name
)
@settings(max_examples=40, deadline=None)
@given(ts=delays)
def test_array_evaluation_is_elementwise_scalar(utility, ts):
    assert_array_matches_scalars(utility, ts)


@pytest.mark.parametrize(
    "utility", ARRAY_CONTRACT_UTILITIES, ids=lambda u: u.name
)
def test_array_evaluation_over_the_delay_range(utility):
    """Long arrays too: SIMD loops handle them in vector blocks."""
    ts = np.geomspace(1e-9, 1e5, 4099)
    assert_array_matches_scalars(utility, ts)
