"""Unit tests for the metrics collector and result record."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.metrics import MetricsCollector


def make_collector(**overrides):
    defaults = dict(
        duration=100.0,
        n_items=4,
        window_length=10.0,
        record_interval=25.0,
        track_items=(0, 2),
    )
    defaults.update(overrides)
    return MetricsCollector(**defaults)


class TestCollector:
    def test_window_binning(self):
        collector = make_collector()
        collector.record_fulfillment(5.0, 1.0, 2.0)
        collector.record_fulfillment(15.0, 1.0, 3.0)
        collector.record_fulfillment(15.5, 1.0, 1.0)
        assert collector.window_gains[0] == pytest.approx(2.0)
        assert collector.window_gains[1] == pytest.approx(4.0)
        assert collector.window_fulfillments[1] == 2

    def test_event_at_horizon_clamped_to_last_window(self):
        collector = make_collector()
        collector.record_fulfillment(100.0, 1.0, 5.0)
        assert collector.window_gains[-1] == pytest.approx(5.0)

    def test_abandonment_binning(self):
        collector = make_collector()
        collector.record_abandonment(42.0, -1.5)
        assert collector.window_gains[4] == pytest.approx(-1.5)
        assert collector.total_gain == pytest.approx(-1.5)

    def test_snapshot_tracking(self):
        collector = make_collector()
        counts = np.array([3, 1, 4, 1])
        collector.record_snapshot(0.0, counts, None)
        collector.record_snapshot(25.0, counts * 2, np.array([0, 0, 1, 0]))
        result = collector.build_result(counts, n_unfulfilled=0)
        assert result.snapshot_counts.shape == (2, 4)
        assert result.snapshot_tracked.shape == (2, 2)
        assert result.snapshot_tracked[0].tolist() == [3, 4]

    def test_snapshots_are_copies(self):
        collector = make_collector()
        counts = np.array([1, 1, 1, 1])
        collector.record_snapshot(0.0, counts, None)
        counts[0] = 99
        assert collector.snapshot_counts[0][0] == 1

    def test_preallocated_buffer_values_unchanged(self):
        # The snapshot store is a preallocated 2-D buffer; recorded
        # values must be exactly what a list of copies would have held.
        collector = make_collector()
        expected = []
        rng = np.random.default_rng(7)
        for k in range(5):
            counts = rng.integers(0, 10, size=4)
            expected.append(counts.copy())
            collector.record_snapshot(25.0 * k, counts, None)
        assert np.array_equal(collector.snapshot_counts, np.stack(expected))
        tracked = np.stack(expected)[:, [0, 2]]
        assert np.array_equal(collector.snapshot_tracked, tracked)
        result = collector.build_result(expected[-1], n_unfulfilled=0)
        assert np.array_equal(result.snapshot_counts, np.stack(expected))
        assert np.array_equal(result.snapshot_tracked, tracked)

    def test_buffer_grows_past_expected_capacity(self):
        # duration/record_interval predicts 100/25 + 2 = 6 snapshots;
        # recording far more must transparently grow the buffer.
        collector = make_collector()
        n = 50
        for k in range(n):
            collector.record_snapshot(
                2.0 * k, np.array([k, 0, k, 0]), np.array([k, 0, 0, 0])
            )
        assert collector.snapshot_counts.shape == (n, 4)
        assert collector.snapshot_counts[:, 0].tolist() == list(range(n))
        assert collector.snapshot_tracked[:, 0].tolist() == list(range(n))
        assert len(collector.snapshot_mandates) == n

    def test_record_interval_longer_than_duration(self):
        # The capacity formula must still allow the t=0 snapshot plus
        # the horizon flush (duration // record_interval == 0).
        collector = make_collector(record_interval=250.0)
        collector.record_snapshot(0.0, np.array([1, 1, 1, 1]), None)
        collector.record_snapshot(100.0, np.array([2, 2, 2, 2]), None)
        result = collector.build_result(np.array([2, 2, 2, 2]), 0)
        assert result.snapshot_counts.shape == (2, 4)
        assert result.snapshot_times.tolist() == [0.0, 100.0]

    @pytest.mark.parametrize(
        "bad", [0.0, -5.0, math.nan, math.inf, -math.inf]
    )
    def test_invalid_record_interval_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="record_interval"):
            make_collector(record_interval=bad)

    def test_tiny_record_interval_capacity(self):
        # Very fine sampling must not overflow the preallocated buffer.
        collector = make_collector(record_interval=1.0)
        for k in range(102):
            collector.record_snapshot(float(k), np.array([1, 1, 1, 1]), None)
        assert collector.snapshot_counts.shape[0] == 102

    def test_empty_run(self):
        collector = make_collector()
        result = collector.build_result(np.zeros(4, dtype=np.int64), 0)
        assert result.n_fulfilled == 0
        assert math.isnan(result.mean_delay)
        assert math.isnan(result.fulfillment_ratio)
        assert result.snapshot_counts.shape == (0, 4)
        assert result.snapshot_mandates is None


class TestResult:
    def build(self):
        collector = make_collector()
        collector.record_generated()
        collector.record_generated()
        collector.record_fulfillment(10.0, 4.0, 1.0)
        return collector.build_result(np.array([1, 1, 1, 1]), n_unfulfilled=1)

    def test_gain_rate(self):
        result = self.build()
        assert result.gain_rate == pytest.approx(1.0 / 100.0)

    def test_fulfillment_ratio(self):
        result = self.build()
        assert result.fulfillment_ratio == pytest.approx(0.5)

    def test_summary_keys(self):
        summary = self.build().summary()
        assert {"gain_rate", "mean_delay", "n_generated"} <= set(summary)

    def test_delay_percentiles(self):
        collector = make_collector()
        for delay in range(1, 101):
            collector.record_fulfillment(1.0, float(delay), 0.0)
        result = collector.build_result(np.zeros(4, dtype=np.int64), 0)
        assert result.median_delay == pytest.approx(50.5)
        assert result.p95_delay == pytest.approx(95.05)


class TestGainFold:
    """The engine logs fulfilments and credits their gains in one fold
    per run; the fold must reproduce the eager ``+=`` sums bit for bit."""

    @staticmethod
    def events():
        """Fulfilments (with their gains; some immediate), credited
        abandonments in event order, then end-of-run gains: magnitudes
        1e16 and 1.0 mix (1e16 + 1.0 rounds back to 1e16), with ``-0.0``
        and windows hit again and again."""
        rng = np.random.default_rng(3)
        magnitudes = np.array([1e16, 1.0, -0.0, 0.5, -1e16, 3.0])
        events = []
        t = 0.0
        for _ in range(300):
            t = min(t + float(rng.exponential(0.4)), 100.0)
            gain = float(magnitudes[rng.integers(len(magnitudes))])
            draw = rng.random()
            if draw < 0.2:
                events.append(("abandon", t, None, -0.5))
            elif draw < 0.3:
                events.append(("immediate", t, 0.0, gain))
            else:
                events.append(("fulfil", t, float(rng.exponential(2.0)), gain))
        tail = [1.0, 1e16, -0.0, 1.0, 0.25]
        return events, tail

    @staticmethod
    def log(collector, t, delay):
        """Log a fulfilment the way the engine's loops do, inline."""
        collector.delays.append(delay)
        collector.fulfill_times.append(t)

    @staticmethod
    def bits(value):
        return np.asarray(value, dtype=float).view(np.int64).tolist()

    def test_fold_matches_eager_sums(self):
        events, tail = self.events()
        eager = make_collector()
        logged = make_collector()
        gains = []
        for kind, t, delay, gain in events:
            if kind == "fulfil":
                eager.record_fulfillment(t, delay, gain)
                self.log(logged, t, delay)
                gains.append(gain)
            elif kind == "immediate":
                eager.record_fulfillment(t, delay, gain, immediate=True)
                logged.log_immediate(t)
                gains.append(gain)
            else:
                eager.record_abandonment(t, gain)
                logged.log_abandonment(t, gain)
        for gain in tail:  # settle's eager credit, one request at a time
            eager.total_gain += gain
            eager.window_gains[-1] += gain
        logged.fold_fulfillments(np.array(gains))
        logged.fold_end_of_run_gains(np.array(tail))
        assert self.bits(logged.total_gain) == self.bits(eager.total_gain)
        assert self.bits(logged.window_gains) == self.bits(eager.window_gains)
        assert logged.window_fulfillments == eager.window_fulfillments
        assert logged.n_fulfilled == eager.n_fulfilled
        assert logged.n_immediate == eager.n_immediate > 0
        assert logged.delays == eager.delays

    def test_pairwise_summation_would_differ(self):
        """``np.sum`` sums pairwise: on this input it rounds differently
        from the sequential sum, so a fold "simplified" to it fails."""
        events, tail = self.events()
        terms = [gain for _kind, _t, _delay, gain in events] + tail
        sequential = 0.0
        for gain in terms:
            sequential += gain
        assert float(np.sum(terms)) != sequential
        assert float(np.add.accumulate([0.0, *terms])[-1]) == sequential

    def test_abandonments_keep_their_place(self):
        """Abandonments are folded in where they were logged: after the
        fulfilments logged before them, before the ones logged after."""
        collector = make_collector()
        collector.log_abandonment(1.0, 1.0)
        collector.log_abandonment(1.0, 1e16)
        self.log(collector, 2.0, 1.0)
        collector.log_abandonment(3.0, -1e16)
        collector.fold_fulfillments(np.array([1.0]))
        # In order: ((1.0 + 1e16) + 1.0) - 1e16 == 0.0.  The fulfilment
        # first would give 2.0, the last abandonment before it 1.0.
        assert collector.total_gain == 0.0
        assert collector.n_fulfilled == 1
