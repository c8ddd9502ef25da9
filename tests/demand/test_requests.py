"""Unit tests for request-schedule generation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.demand import (
    DemandModel,
    RequestSchedule,
    clustered_profile,
    generate_requests,
)
from repro.errors import ConfigurationError


class TestGeneration:
    def test_expected_volume(self):
        demand = DemandModel.pareto(10, total_rate=2.0)
        schedule = generate_requests(demand, 20, duration=500.0, seed=3)
        # Poisson(1000): within 5 sigma.
        assert abs(len(schedule) - 1000) < 5 * np.sqrt(1000)

    def test_times_sorted_in_range(self):
        demand = DemandModel.pareto(5)
        schedule = generate_requests(demand, 4, duration=100.0, seed=1)
        assert np.all(np.diff(schedule.times) >= 0)
        assert schedule.times[0] >= 0
        assert schedule.times[-1] <= 100.0

    def test_item_popularity_respected(self):
        demand = DemandModel.from_weights([9.0, 1.0], total_rate=5.0)
        schedule = generate_requests(demand, 10, duration=2000.0, seed=2)
        counts = schedule.per_item_counts(2)
        assert counts[0] / counts[1] == pytest.approx(9.0, rel=0.2)

    def test_uniform_nodes(self):
        demand = DemandModel.pareto(3, total_rate=5.0)
        schedule = generate_requests(demand, 5, duration=2000.0, seed=4)
        node_counts = np.bincount(schedule.nodes, minlength=5)
        assert node_counts.min() > 0.7 * node_counts.mean()

    def test_profile_respected(self):
        demand = DemandModel.uniform(2, total_rate=10.0)
        pi = np.array([[1.0, 0.0], [0.0, 1.0]])
        schedule = generate_requests(
            demand, 2, duration=300.0, profile=pi, seed=5
        )
        for t, item, node in schedule:
            assert item == node

    def test_clustered_profile_integration(self):
        demand = DemandModel.pareto(6, total_rate=10.0)
        pi = clustered_profile(6, 6, n_groups=2, bias=50.0)
        schedule = generate_requests(
            demand, 6, duration=500.0, profile=pi, seed=6
        )
        same_group = sum(
            1 for _, item, node in schedule if item % 2 == node % 2
        )
        assert same_group / len(schedule) > 0.9

    def test_determinism(self):
        demand = DemandModel.pareto(4)
        a = generate_requests(demand, 3, duration=50.0, seed=11)
        b = generate_requests(demand, 3, duration=50.0, seed=11)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.nodes, b.nodes)

    def test_rejects_bad_arguments(self):
        demand = DemandModel.pareto(4)
        with pytest.raises(ConfigurationError):
            generate_requests(demand, 0, duration=10.0)
        with pytest.raises(ConfigurationError):
            generate_requests(demand, 5, duration=0.0)


class TestSchedule:
    def make(self):
        return RequestSchedule(
            times=np.array([1.0, 2.0, 5.0]),
            items=np.array([0, 1, 0]),
            nodes=np.array([2, 0, 1]),
            duration=10.0,
        )

    def test_len_and_iter(self):
        schedule = self.make()
        assert len(schedule) == 3
        assert list(schedule)[1] == (2.0, 1, 0)

    def test_sliced(self):
        schedule = self.make().sliced(1.5, 5.0)
        assert len(schedule) == 1
        assert schedule.items.tolist() == [1]

    def test_per_item_counts(self):
        assert self.make().per_item_counts(3).tolist() == [2, 1, 0]

    def test_validation_unsorted(self):
        with pytest.raises(ConfigurationError):
            RequestSchedule(
                times=np.array([2.0, 1.0]),
                items=np.array([0, 0]),
                nodes=np.array([0, 0]),
                duration=5.0,
            )

    def test_validation_out_of_range(self):
        with pytest.raises(ConfigurationError):
            RequestSchedule(
                times=np.array([6.0]),
                items=np.array([0]),
                nodes=np.array([0]),
                duration=5.0,
            )

    def test_validation_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            RequestSchedule(
                times=np.array([1.0]),
                items=np.array([0, 1]),
                nodes=np.array([0]),
                duration=5.0,
            )


class TestDefaultDraw:
    def test_default_draw_is_pinned(self):
        """The default draw stays byte-identical for a given seed."""
        demand = DemandModel.pareto(8, total_rate=1.5)
        schedule = generate_requests(demand, 25, duration=200.0, seed=11)
        digest = hashlib.sha256()
        for column in (schedule.times, schedule.items, schedule.nodes):
            digest.update(np.ascontiguousarray(column).tobytes())
        assert len(schedule) == 277
        assert digest.hexdigest() == (
            "baf180687527afa150fd3abc7b68f18c4bc8236e2e449856fe206bebb6387ce5"
        )
