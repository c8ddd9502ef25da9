"""Tests for Poisson / slotted contact generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contacts import (
    bernoulli_slot_trace,
    heterogeneous_poisson_trace,
    homogeneous_poisson_trace,
    pair_rate_matrix,
)
from repro.contacts.poisson import _pair_from_index
from repro.errors import ConfigurationError


class TestPairIndexing:
    def test_bijection(self):
        n = 9
        n_pairs = n * (n - 1) // 2
        a, b = _pair_from_index(np.arange(n_pairs), n)
        pairs = set(zip(a.tolist(), b.tolist()))
        assert len(pairs) == n_pairs
        assert all(0 <= x < y < n for x, y in pairs)

    def test_first_and_last(self):
        a, b = _pair_from_index(np.array([0, 5]), 4)
        assert (a[0], b[0]) == (0, 1)
        assert (a[1], b[1]) == (2, 3)


class TestHomogeneousPoisson:
    def test_volume(self):
        trace = homogeneous_poisson_trace(20, rate=0.1, duration=100.0, seed=1)
        expected = 0.1 * 190 * 100
        assert abs(len(trace) - expected) < 5 * np.sqrt(expected)

    def test_pairs_uniform(self):
        trace = homogeneous_poisson_trace(6, rate=1.0, duration=500.0, seed=2)
        counts = trace.pair_counts()[np.triu_indices(6, k=1)]
        assert counts.min() > 0.8 * counts.mean()

    def test_determinism(self):
        a = homogeneous_poisson_trace(5, 0.2, 50.0, seed=7)
        b = homogeneous_poisson_trace(5, 0.2, 50.0, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.node_a, b.node_a)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            homogeneous_poisson_trace(1, 0.1, 10.0)
        with pytest.raises(ConfigurationError):
            homogeneous_poisson_trace(5, -0.1, 10.0)
        with pytest.raises(ConfigurationError):
            homogeneous_poisson_trace(5, 0.1, 0.0)


class TestHeterogeneousPoisson:
    def test_rates_recovered(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 0] = 2.0
        rates[2, 3] = rates[3, 2] = 0.5
        trace = heterogeneous_poisson_trace(rates, duration=1000.0, seed=3)
        estimated = pair_rate_matrix(trace)
        assert estimated[0, 1] == pytest.approx(2.0, rel=0.1)
        assert estimated[2, 3] == pytest.approx(0.5, rel=0.2)
        assert estimated[0, 2] == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            heterogeneous_poisson_trace(np.ones((3, 2)), 10.0)
        asym = np.zeros((3, 3))
        asym[0, 1] = 1.0
        with pytest.raises(ConfigurationError):
            heterogeneous_poisson_trace(asym, 10.0)
        diag = np.zeros((3, 3))
        diag[0, 0] = 1.0
        with pytest.raises(ConfigurationError):
            heterogeneous_poisson_trace(diag, 10.0)
        with pytest.raises(ConfigurationError):
            heterogeneous_poisson_trace(np.zeros((3, 3)), 10.0)


class TestBernoulliSlots:
    def test_times_on_slot_boundaries(self):
        trace = bernoulli_slot_trace(10, rate=0.2, delta=0.5, n_slots=50, seed=4)
        remainder = np.mod(trace.times, 0.5)
        assert np.allclose(np.minimum(remainder, 0.5 - remainder), 0.0)

    def test_volume(self):
        trace = bernoulli_slot_trace(10, rate=0.2, delta=0.1, n_slots=2000, seed=5)
        expected = 45 * 0.02 * 2000
        assert abs(len(trace) - expected) < 5 * np.sqrt(expected)

    def test_pairs_distinct_within_slot(self):
        trace = bernoulli_slot_trace(6, rate=1.0, delta=0.5, n_slots=100, seed=6)
        for t in np.unique(trace.times):
            mask = trace.times == t
            pairs = list(
                zip(trace.node_a[mask].tolist(), trace.node_b[mask].tolist())
            )
            assert len(pairs) == len(set(pairs))

    def test_rejects_probability_above_one(self):
        with pytest.raises(ConfigurationError):
            bernoulli_slot_trace(5, rate=3.0, delta=0.5, n_slots=10)

    def test_slotted_approaches_poisson(self):
        """Discrete-time model converges to continuous (Section 3.4)."""
        slotted = bernoulli_slot_trace(
            15, rate=0.1, delta=0.02, n_slots=20000, seed=7
        )
        poisson = homogeneous_poisson_trace(15, 0.1, 400.0, seed=8)
        assert len(slotted) == pytest.approx(len(poisson), rel=0.1)


class TestPairIndexClosedForm:
    """The closed-form inverse must match naive enumeration exactly."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 50, 127, 200])
    def test_matches_naive_enumeration(self, n):
        naive = [(a, b) for a in range(n) for b in range(a + 1, n)]
        n_pairs = n * (n - 1) // 2
        assert len(naive) == n_pairs
        got_a, got_b = _pair_from_index(np.arange(n_pairs), n)
        assert list(zip(got_a.tolist(), got_b.tolist())) == naive

    def test_random_large_indices(self):
        n = 10**6
        n_pairs = n * (n - 1) // 2
        rng = np.random.default_rng(11)
        index = rng.integers(0, n_pairs, size=20000)
        # include both extremes and the triangular-number boundaries
        # where the float square root is most likely to land one off
        t = np.arange(1, 2000, dtype=np.int64)
        boundaries = n_pairs - 1 - t * (t + 1) // 2
        index = np.concatenate(
            ([0, 1, n_pairs - 2, n_pairs - 1], boundaries, index)
        )
        a, b = _pair_from_index(index, n)
        assert np.all((0 <= a) & (a < b) & (b < n))
        # invert: index of pair (a, b) in row-major upper-triangle order
        offsets = a * (2 * n - a - 1) // 2
        assert np.array_equal(offsets + (b - a - 1), index)

    def test_scalar_index(self):
        a, b = _pair_from_index(np.int64(0), 5)
        assert (int(a), int(b)) == (0, 1)
