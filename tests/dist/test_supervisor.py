"""Supervision under a fake clock: reaping, quarantine, degradation."""

from __future__ import annotations

import pytest

from repro.dist import FakeClock, QueueWorker, Supervisor, WorkQueue
from repro.dist.executors import make_unit_records
from repro.errors import ConfigurationError, SimulationError

from .conftest import make_spec, make_units

TTL = 30.0
IDENTITY = {"base_seed": 7, "n_trials": 2}


def make_queue(tmp_path, protocols, *, clock, **kwargs):
    units = make_unit_records(make_units(protocols), list(protocols))
    kwargs.setdefault("ttl", TTL)
    return WorkQueue.create(
        tmp_path / "q", units, identity=dict(IDENTITY), clock=clock, **kwargs
    )


def failing_spawn(index):
    raise OSError("fork: resource temporarily unavailable")


def make_supervisor(queue, spec, *, clock, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("spawn", failing_spawn)
    return Supervisor(queue, spec=spec, clock=clock, **kwargs)


@pytest.fixture
def clock():
    return FakeClock(start=1000.0)


class TestReaping:
    def test_expired_lease_is_reaped_and_requeued(
        self, tmp_path, demand, config, protocols, clock
    ):
        queue = make_queue(tmp_path, protocols, clock=clock)
        spec = make_spec(demand, config, protocols)
        supervisor = make_supervisor(queue, spec, clock=clock)
        unit = queue.unit_ids[0]
        queue.leases.try_claim(unit, "ghost", 1)  # worker that got SIGKILLed

        assert supervisor.reap_expired() == []  # still live: nothing to do
        clock.advance(TTL + 1.0)
        assert supervisor.reap_expired() == [unit]

        assert queue.leases.read(unit) is None
        assert queue.requeues(unit) == 1
        kinds = [e["kind"] for e in queue.read_events()]
        assert kinds == ["unit_expire", "unit_requeue"]
        assert unit in queue.claimable_units()

    def test_reap_after_publish_does_not_requeue(
        self, tmp_path, demand, config, protocols, clock
    ):
        """A worker that died between publishing and releasing its lease."""
        queue = make_queue(tmp_path, protocols, clock=clock)
        spec = make_spec(demand, config, protocols)
        worker = QueueWorker(queue, spec, "w0", clock=clock)
        assert worker.run_one()
        unit = queue.unit_ids[0]
        queue.leases.try_claim(unit, "ghost", 2)  # crash re-ran a done unit
        clock.advance(TTL + 1.0)

        supervisor = make_supervisor(queue, spec, clock=clock)
        assert supervisor.reap_expired() == []  # reaped but NOT requeued
        assert queue.requeues(unit) == 0
        assert "unit_requeue" not in [
            e["kind"] for e in queue.read_events()
        ]


class TestQuarantine:
    def test_budget_exhausted_unit_is_parked(
        self, tmp_path, demand, config, protocols, clock
    ):
        queue = make_queue(tmp_path, protocols, clock=clock, max_claims=2)
        spec = make_spec(demand, config, protocols)
        supervisor = make_supervisor(queue, spec, clock=clock)
        unit = queue.unit_ids[0]
        queue.record_failure(unit, worker="w0", claim=1, error="poison A")
        queue.record_failure(unit, worker="w1", claim=2, error="poison B")

        assert supervisor.quarantine_exhausted() == [unit]
        info = queue.read_quarantine(unit)
        assert info["reason"] == "poison B"  # the freshest failure
        assert queue.is_done(unit)
        assert "unit_quarantine" in [e["kind"] for e in queue.read_events()]

    def test_within_budget_unit_is_left_alone(
        self, tmp_path, demand, config, protocols, clock
    ):
        queue = make_queue(tmp_path, protocols, clock=clock, max_claims=3)
        spec = make_spec(demand, config, protocols)
        supervisor = make_supervisor(queue, spec, clock=clock)
        queue.record_failure(
            queue.unit_ids[0], worker="w0", claim=1, error="flaky"
        )
        assert supervisor.quarantine_exhausted() == []

    def test_in_flight_final_claim_defers_quarantine(
        self, tmp_path, demand, config, protocols, clock
    ):
        queue = make_queue(tmp_path, protocols, clock=clock, max_claims=1)
        spec = make_spec(demand, config, protocols)
        supervisor = make_supervisor(queue, spec, clock=clock)
        unit = queue.unit_ids[0]
        queue.record_requeue(unit)  # budget spent ...
        queue.leases.try_claim(unit, "w1", 1)  # ... but a claim is live
        assert supervisor.quarantine_exhausted() == []
        clock.advance(TTL + 1.0)  # the claim died too
        assert supervisor.quarantine_exhausted() == [unit]


class TestDegradation:
    def test_spawn_failures_back_off_exponentially(
        self, tmp_path, demand, config, protocols, clock
    ):
        queue = make_queue(tmp_path, protocols, clock=clock)
        spec = make_spec(demand, config, protocols)
        supervisor = make_supervisor(
            queue, spec, clock=clock, spawn_backoff=0.25, spawn_max_backoff=1.0
        )
        supervisor._manage_workers()
        assert supervisor.spawn_failures == 1
        assert supervisor._next_spawn_at == clock.now() + 0.25
        clock.advance(0.3)
        supervisor._manage_workers()
        assert supervisor.spawn_failures == 2
        assert supervisor._next_spawn_at == clock.now() + 0.5
        clock.advance(10.0)
        supervisor._manage_workers()
        assert supervisor._next_spawn_at == clock.now() + 1.0  # capped

    def test_fully_degraded_supervisor_finishes_inline(
        self, tmp_path, demand, config, protocols, clock
    ):
        queue = make_queue(tmp_path, protocols, clock=clock)
        spec = make_spec(demand, config, protocols)
        supervisor = make_supervisor(queue, spec, clock=clock)
        supervisor.run()

        assert queue.complete()
        assert all(queue.has_result(unit) for unit in queue.unit_ids)
        assert supervisor.spawn_failures >= 1
        assert supervisor.inline_units == len(queue.unit_ids)
        workers = {
            queue.read_result(unit).meta["worker"]
            for unit in queue.unit_ids
        }
        assert workers == {"supervisor-inline"}

    def test_inline_execution_quarantines_poison_units(
        self, tmp_path, demand, config, protocols, clock
    ):
        def poison(tr, rq):
            raise RuntimeError("corrupted protocol input")

        protocols = dict(protocols, BAD=poison)
        queue = make_queue(tmp_path, protocols, clock=clock, max_claims=2)
        spec = make_spec(demand, config, protocols)
        supervisor = make_supervisor(queue, spec, clock=clock)
        supervisor.run()

        assert queue.complete()  # the poison unit never wedged the sweep
        bad = [u for u in queue.unit_ids if u.endswith("-p002")]
        good = [u for u in queue.unit_ids if not u.endswith("-p002")]
        assert all(queue.is_quarantined(unit) for unit in bad)
        assert all(queue.has_result(unit) for unit in good)
        for unit in bad:
            info = queue.read_quarantine(unit)
            assert "corrupted protocol input" in info["reason"]
            assert info["claims_used"] == 2


class TestRaisePolicy:
    def test_step_raises_on_recorded_failure(
        self, tmp_path, demand, config, protocols, clock
    ):
        queue = make_queue(tmp_path, protocols, clock=clock)
        spec = make_spec(demand, config, protocols, on_error="raise")
        supervisor = make_supervisor(
            queue, spec, clock=clock, on_error="raise"
        )
        queue.record_failure(
            queue.unit_ids[0], worker="w0", claim=1, error="boom"
        )
        with pytest.raises(SimulationError, match="boom"):
            supervisor.step()


def test_invalid_worker_count_rejected(
    tmp_path, demand, config, protocols, clock
):
    queue = make_queue(tmp_path, protocols, clock=clock)
    spec = make_spec(demand, config, protocols)
    with pytest.raises(ConfigurationError, match="n_workers"):
        Supervisor(queue, spec=spec, n_workers=0, clock=clock)
