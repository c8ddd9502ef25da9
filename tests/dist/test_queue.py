"""Work-queue state machine: identity, claims budget, durable results."""

from __future__ import annotations

import io
import json

import pytest

from repro.demand import generate_requests
from repro.dist import FakeClock, QueueWorker, WorkQueue, WorkQueueExecutor
from repro.dist.executors import make_unit_records
from repro.errors import ConfigurationError
from repro.obs.log import set_log_stream
from repro.protocols import uni_protocol
from repro.sim import simulate
from repro.simcache import SimulationRunCache

from ..experiments.test_run_cache import CORRUPTIONS
from .conftest import RHO, make_spec, make_units, trace_factory

IDENTITY = {"base_seed": 7, "n_trials": 2, "protocols": ["OPT", "UNI"]}


def make_queue(root, protocols, *, clock=None, **kwargs):
    units = make_unit_records(make_units(protocols), list(protocols))
    return WorkQueue.create(
        root, units, identity=dict(IDENTITY), clock=clock, **kwargs
    )


class TestCreateAndAttach:
    def test_create_lays_out_units(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        assert queue.unit_ids == [
            "t00000-p000", "t00000-p001", "t00001-p000", "t00001-p001",
        ]
        record = queue.read_unit("t00001-p001")
        assert (record.trial, record.protocol) == (1, "UNI")
        assert record.seeds == (101, 201, 301)

    def test_attach_to_matching_queue_preserves_results(
        self, tmp_path, protocols
    ):
        first = make_queue(tmp_path / "q", protocols)
        again = make_queue(tmp_path / "q", protocols)
        assert again.unit_ids == first.unit_ids

    def test_attach_to_mismatched_identity_refuses(self, tmp_path, protocols):
        make_queue(tmp_path / "q", protocols)
        units = make_unit_records(make_units(protocols), list(protocols))
        with pytest.raises(ConfigurationError, match="different sweep"):
            WorkQueue.create(
                tmp_path / "q", units, identity={**IDENTITY, "base_seed": 8}
            )

    def test_open_of_non_queue_directory_refuses(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a sweep queue"):
            WorkQueue.open(tmp_path)

    def test_invalid_max_claims_rejected(self, tmp_path, protocols):
        with pytest.raises(ConfigurationError, match="max_claims"):
            make_queue(tmp_path / "q", protocols, max_claims=0)


class TestClaimsBudget:
    def test_budget_sums_requeues_and_failures(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        unit = queue.unit_ids[0]
        assert queue.claims_used(unit) == 0
        queue.record_requeue(unit)
        queue.record_failure(unit, worker="w0", claim=2, error="boom")
        assert queue.requeues(unit) == 1
        assert queue.failure_count(unit) == 1
        assert queue.claims_used(unit) == 2

    def test_budget_exhausted_unit_not_claimable(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols, max_claims=2)
        unit = queue.unit_ids[0]
        queue.record_failure(unit, worker="w0", claim=1, error="a")
        queue.record_failure(unit, worker="w0", claim=2, error="b")
        assert unit not in queue.claimable_units()

    def test_live_lease_excludes_unit(self, tmp_path, protocols):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", protocols, clock=clock, ttl=30.0)
        unit = queue.unit_ids[0]
        queue.leases.try_claim(unit, "w0", 1)
        assert unit not in queue.claimable_units()
        clock.advance(31.0)  # stale lease no longer blocks claiming
        assert unit in queue.claimable_units()

    def test_claimable_rotates_by_offset(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        assert queue.claimable_units(0)[0] == queue.unit_ids[0]
        assert queue.claimable_units(2)[0] == queue.unit_ids[2]
        assert set(queue.claimable_units(2)) == set(queue.unit_ids)


class TestResults:
    def test_publish_roundtrip_via_worker(
        self, tmp_path, demand, config, protocols
    ):
        queue = make_queue(tmp_path / "q", protocols)
        spec = make_spec(demand, config, protocols)
        worker = QueueWorker(queue, spec, "w0")
        assert worker.run_one() is True
        unit = queue.unit_ids[0]
        entry = queue.read_result(unit)
        assert entry is not None
        assert entry.meta["worker"] == "w0"
        assert entry.meta["claim"] == 1
        assert entry.meta["run_key"] is None  # no run cache in this spec
        assert entry.result.total_gain >= 0.0
        assert queue.is_done(unit)
        assert queue.leases.read(unit) is None  # released after publish

    def test_result_file_is_a_run_cache_entry(
        self, tmp_path, demand, config, protocols
    ):
        """A published result is a run-cache entry: same envelope, same
        result payload, with the unit id as its key."""
        queue = make_queue(tmp_path / "q", protocols)
        unit = queue.unit_ids[0]
        result = tiny_result(demand, config)
        queue.publish_result(unit, result, worker="w0", claim=1, timing={})
        with open(queue._result_path(unit), encoding="utf-8") as handle:
            data = json.load(handle)
        assert (data["format"], data["version"]) == ("repro-simcache-entry", 2)
        assert data["key"] == unit
        cache = SimulationRunCache(tmp_path / "cache")
        cache.put(unit, result)
        with open(cache._entry_path(unit), encoding="utf-8") as handle:
            cached = json.load(handle)
        assert cached["result"] == data["result"]


def tiny_result(demand, config):
    trace = trace_factory(3)
    requests = generate_requests(demand, trace.n_nodes, trace.duration, seed=4)
    protocol = uni_protocol(demand, trace.n_nodes, RHO)
    return simulate(trace, requests, config, protocol, seed=5)


def failing_spawn(index):
    raise OSError("fork: resource temporarily unavailable")


class TestCorruptResultInSweep:
    @pytest.mark.parametrize("corruption", ["non-utf8", "does-not-rebuild"])
    def test_corrupt_result_is_reported_lost_then_reruns(
        self, tmp_path, demand, config, protocols, corruption
    ):
        """Regression: these two corruptions used to crash the collector.

        A non-UTF-8 results file raised ``UnicodeDecodeError`` out of
        ``read_result``; an envelope whose result does not rebuild
        raised ``TypeError`` while collecting.  Now the unit is reported
        lost, and resuming the sweep on the same queue runs it again.
        """
        spec = make_spec(demand, config, protocols)
        units = make_units(protocols)

        def execute():
            records = []
            executor = WorkQueueExecutor(
                tmp_path / "q",
                n_workers=1,
                clock=FakeClock(start=1000.0),
                spawn=failing_spawn,
            )
            extras = executor.execute(
                units, spec, lambda *args, **kw: records.append(args)
            )
            return records, extras["dist"]["units"]

        first, _ = execute()
        assert all(result is not None for _, _, result, _, _ in first)
        unit = make_unit_records(units, list(protocols))[0].unit
        path = tmp_path / "q" / "results" / f"{unit}.json"
        CORRUPTIONS[corruption](path)

        stream = io.StringIO()
        set_log_stream(stream)
        try:
            second, attribution = execute()
        finally:
            set_log_stream(None)
        assert "discarding corrupt result entry" in stream.getvalue()
        lost = [r for r in second if r[2] is None]
        assert [(trial, name) for trial, name, *_ in lost] == [(0, "OPT")]
        assert attribution[unit]["status"] == "lost"
        assert not path.exists()

        third, attribution = execute()
        assert all(result is not None for _, _, result, _, _ in third)
        assert attribution[unit]["status"] == "published"
        assert third[0][2].total_gain == first[0][2].total_gain


class TestQuarantine:
    def test_quarantine_completes_a_unit(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        unit = queue.unit_ids[0]
        queue.record_failure(unit, worker="w0", claim=1, error="poison")
        queue.quarantine(unit, "poison")
        info = queue.read_quarantine(unit)
        assert info["reason"] == "poison"
        assert info["claims_used"] == 1
        assert info["failures"][0]["error"] == "poison"
        assert queue.is_done(unit)
        assert unit not in queue.claimable_units()

    def test_complete_requires_every_unit_done(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        assert not queue.complete()
        for unit in queue.unit_ids:
            queue.quarantine(unit, "parked")
        assert queue.complete()


class TestEvents:
    def test_log_event_validates_and_appends(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        queue.log_event("unit_claim", unit="u", worker="w0", claim=1)
        queue.log_event("unit_publish", unit="u", worker="w0")
        events = queue.read_events()
        assert [e["kind"] for e in events] == ["unit_claim", "unit_publish"]
        assert [e["seq"] for e in events] == [0, 1]

    def test_invalid_event_kind_rejected(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        with pytest.raises(ValueError, match="kind"):
            queue.log_event("not_a_kind", unit="u")

    def test_torn_final_line_tolerated(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        queue.log_event("unit_publish", unit="u", worker="w0")
        with open(tmp_path / "q" / "events.jsonl", "a") as handle:
            handle.write('{"kind": "unit_cl')  # SIGKILL mid-append
        assert [e["kind"] for e in queue.read_events()] == ["unit_publish"]

    def test_status_counts(self, tmp_path, protocols):
        queue = make_queue(tmp_path / "q", protocols)
        queue.quarantine(queue.unit_ids[0], "parked")
        status = queue.status()
        assert status["n_units"] == 4
        assert status["quarantined"] == 1
        assert status["pending"] == 3
        assert status["live_leases"] == []
