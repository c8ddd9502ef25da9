"""Unit tests for the ContactTrace container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contacts import ContactTrace
from repro.errors import TraceFormatError


def make_trace():
    return ContactTrace(
        times=np.array([1.0, 2.0, 3.0, 7.0]),
        node_a=np.array([0, 2, 0, 1]),
        node_b=np.array([1, 1, 2, 3]),
        n_nodes=4,
        duration=10.0,
    )


class TestConstruction:
    def test_basic(self):
        trace = make_trace()
        assert len(trace) == 4
        assert trace.n_pairs == 6

    def test_canonical_pair_order(self):
        trace = ContactTrace(
            times=np.array([1.0]),
            node_a=np.array([3]),
            node_b=np.array([1]),
            n_nodes=4,
            duration=2.0,
        )
        assert trace.node_a[0] == 1
        assert trace.node_b[0] == 3

    def test_empty_trace_allowed(self):
        trace = ContactTrace(
            times=np.array([]),
            node_a=np.array([], dtype=np.int64),
            node_b=np.array([], dtype=np.int64),
            n_nodes=3,
            duration=5.0,
        )
        assert len(trace) == 0

    def test_rejects_unsorted(self):
        with pytest.raises(TraceFormatError):
            ContactTrace(
                times=np.array([2.0, 1.0]),
                node_a=np.array([0, 0]),
                node_b=np.array([1, 1]),
                n_nodes=2,
                duration=5.0,
            )

    def test_rejects_self_contact(self):
        with pytest.raises(TraceFormatError):
            ContactTrace(
                times=np.array([1.0]),
                node_a=np.array([1]),
                node_b=np.array([1]),
                n_nodes=3,
                duration=5.0,
            )

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(TraceFormatError):
            ContactTrace(
                times=np.array([1.0]),
                node_a=np.array([0]),
                node_b=np.array([5]),
                n_nodes=3,
                duration=5.0,
            )

    def test_rejects_times_past_duration(self):
        with pytest.raises(TraceFormatError):
            ContactTrace(
                times=np.array([6.0]),
                node_a=np.array([0]),
                node_b=np.array([1]),
                n_nodes=2,
                duration=5.0,
            )

    def test_rejects_single_node(self):
        with pytest.raises(TraceFormatError):
            ContactTrace(
                times=np.array([]),
                node_a=np.array([], dtype=np.int64),
                node_b=np.array([], dtype=np.int64),
                n_nodes=1,
                duration=5.0,
            )


class TestTransformations:
    def test_sliced(self):
        trace = make_trace().sliced(2.0, 8.0)
        assert len(trace) == 3
        assert trace.times[0] == pytest.approx(0.0)
        assert trace.duration == pytest.approx(6.0)

    def test_sliced_rejects_bad_window(self):
        with pytest.raises(TraceFormatError):
            make_trace().sliced(5.0, 3.0)

    def test_select_nodes_relabels(self):
        trace = make_trace().select_nodes([0, 1, 3])
        # kept events: (0,1) at t=1, (1,3) at t=7 -> relabeled (1,2).
        assert len(trace) == 2
        assert trace.n_nodes == 3
        assert trace.node_a.tolist() == [0, 1]
        assert trace.node_b.tolist() == [1, 2]

    def test_select_nodes_requires_two(self):
        with pytest.raises(TraceFormatError):
            make_trace().select_nodes([2])

    def test_time_scaled(self):
        trace = make_trace().time_scaled(2.0)
        assert trace.times[0] == pytest.approx(2.0)
        assert trace.duration == pytest.approx(20.0)
        assert trace.mean_pair_rate == pytest.approx(
            make_trace().mean_pair_rate / 2.0
        )

    def test_concatenate(self):
        trace = make_trace()
        joined = ContactTrace.concatenate([trace, trace])
        assert len(joined) == 8
        assert joined.duration == pytest.approx(20.0)
        assert joined.times[4] == pytest.approx(11.0)

    def test_concatenate_rejects_mismatched_nodes(self):
        other = ContactTrace(
            times=np.array([0.5]),
            node_a=np.array([0]),
            node_b=np.array([1]),
            n_nodes=2,
            duration=1.0,
        )
        with pytest.raises(TraceFormatError):
            ContactTrace.concatenate([make_trace(), other])


class TestSummaries:
    def test_pair_counts_symmetric(self):
        counts = make_trace().pair_counts()
        assert np.array_equal(counts, counts.T)
        assert counts[0, 1] == 1
        assert counts[1, 2] == 1
        assert counts.sum() == 2 * 4

    def test_node_contact_counts(self):
        counts = make_trace().node_contact_counts()
        assert counts.tolist() == [2, 3, 2, 1]

    def test_mean_pair_rate(self):
        trace = make_trace()
        assert trace.mean_pair_rate == pytest.approx(4 / (6 * 10.0))

    def test_iteration_yields_python_types(self):
        t, a, b = next(iter(make_trace()))
        assert isinstance(t, float)
        assert isinstance(a, int)
        assert isinstance(b, int)


class TestColumnViews:
    """Which trace transformations share columns with their source.

    ``sliced`` keeps the node columns as views and materializes only
    the re-based window times; relabeling, scaling and joining
    materialize only their outputs; and none of them writes to the
    source columns.
    """

    @pytest.fixture
    def trace(self):
        from repro.contacts import homogeneous_poisson_trace

        return homogeneous_poisson_trace(10, 0.3, 60.0, seed=13)

    def test_sliced_views_node_columns(self, trace):
        """Only the (re-based) window times are materialized."""
        window = trace.sliced(10.0, 40.0)
        assert len(window) > 0
        assert np.shares_memory(window.node_a, trace.node_a)
        assert np.shares_memory(window.node_b, trace.node_b)
        # the time column is re-based to 0, so it is a fresh array of
        # window length, never a copy of the full column
        assert not np.shares_memory(window.times, trace.times)
        assert len(window.times) < len(trace.times)

    def test_select_nodes_copies_only_subset(self, trace):
        sub = trace.select_nodes([0, 1, 2, 3])
        assert sub.n_nodes == 4
        assert len(sub) < len(trace)
        assert not np.shares_memory(sub.times, trace.times)
        assert not np.shares_memory(sub.node_a, trace.node_a)

    def test_transforms_leave_source_untouched(self, trace):
        columns = [c.copy() for c in (trace.times, trace.node_a, trace.node_b)]
        scaled = trace.time_scaled(2.0)
        assert scaled.duration == 2.0 * trace.duration
        trace.sliced(0.0, 30.0)
        trace.select_nodes([0, 1, 2])
        ContactTrace.concatenate([trace.sliced(0.0, 30.0), trace])
        for before, after in zip(
            columns, (trace.times, trace.node_a, trace.node_b)
        ):
            assert np.array_equal(before, after)

    def test_concatenate_materializes_fresh_arrays(self, trace):
        first = trace.sliced(0.0, 30.0)
        second = trace.sliced(30.0, 60.0)
        joined = ContactTrace.concatenate([first, second])
        assert len(joined) == len(first) + len(second)
        assert not np.shares_memory(joined.times, trace.times)
        assert not np.shares_memory(joined.node_a, trace.node_a)

    def test_time_scaled_scales_times_and_shares_nodes(self, trace):
        scaled = trace.time_scaled(1.5)
        assert np.array_equal(scaled.times, trace.times * 1.5)
        assert scaled.node_a is trace.node_a
        assert scaled.node_b is trace.node_b
