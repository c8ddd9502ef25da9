"""The workqueue backend end to end: bit-identity, crashes, resume.

The chaos test here is the backbone of the fault-tolerance story: a
worker is SIGKILLed mid-sweep and the sweep must still finish with
statistics bit-identical to serial execution, with the crash visible in
the lifecycle event log (``unit_expire`` / ``unit_requeue``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.experiments import run_comparison
from repro.dist import WorkQueueExecutor
from repro.protocols import uni_protocol

from .conftest import RHO, trace_factory

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the workqueue backend's in-process spawner needs fork",
)


def sweep(demand, config, protocols, **kwargs):
    kwargs.setdefault("n_trials", 2)
    kwargs.setdefault("base_seed", 11)
    return run_comparison(
        trace_factory=trace_factory,
        demand=demand,
        config=config,
        protocols=protocols,
        run_cache=False,
        **kwargs,
    )


def assert_identical(a, b):
    assert set(a.stats) == set(b.stats)
    for name in a.stats:
        assert np.array_equal(
            a.stats[name].gain_rates, b.stats[name].gain_rates
        ), name
        for x, y in zip(a.stats[name].results, b.stats[name].results):
            assert x.total_gain == y.total_gain
            assert x.n_fulfilled == y.n_fulfilled
            assert np.array_equal(x.final_counts, y.final_counts)


class TestBitIdentity:
    def test_workqueue_matches_serial(self, demand, config, protocols):
        serial = sweep(demand, config, protocols, executor="serial")
        queued = sweep(
            demand,
            config,
            protocols,
            executor=WorkQueueExecutor(n_workers=2),
        )
        assert_identical(serial, queued)

    def test_manifest_attributes_every_unit(self, demand, config, protocols):
        result = sweep(
            demand,
            config,
            protocols,
            executor=WorkQueueExecutor(n_workers=2),
        )
        dist = result.manifest["dist"]
        assert dist["backend"] == "workqueue"
        assert len(dist["units"]) == 2 * len(protocols)
        for info in dist["units"].values():
            assert info["status"] == "published"
            assert info["worker"]
            assert info["claim"] >= 1
        assert dist["events"]["unit_publish"] == len(dist["units"])
        workers = {r.worker for r in result.telemetry}
        assert workers <= {"w0", "w1", "supervisor-inline"}
        assert workers  # attribution flows into telemetry too


class TestChaos:
    def test_sigkilled_worker_is_absorbed(
        self, tmp_path, demand, config, protocols
    ):
        """SIGKILL a live worker mid-sweep; completion stays bit-identical."""
        marker = str(tmp_path / "killed-once")
        parent = os.getpid()

        def assassin_uni(tr, rq):
            if os.getpid() != parent:
                try:  # exactly one worker process dies, mid-claim
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return uni_protocol(demand, tr.n_nodes, RHO)

        serial = sweep(demand, config, protocols, executor="serial")
        chaos_protocols = dict(protocols, UNI=assassin_uni)
        result = sweep(
            demand,
            config,
            chaos_protocols,
            executor=WorkQueueExecutor(n_workers=2, ttl=2.0),
        )

        assert os.path.exists(marker)  # a worker really was killed
        assert not result.failures
        assert_identical(serial, result)
        dist = result.manifest["dist"]
        assert dist["events"].get("unit_expire", 0) >= 1
        assert dist["events"].get("unit_requeue", 0) >= 1
        assert all(
            info["status"] == "published" for info in dist["units"].values()
        )
        recovered = [
            info
            for info in dist["units"].values()
            if info["requeues"] >= 1
        ]
        assert recovered  # the killed unit is visibly re-claimed
        assert all(info["claim"] >= 2 for info in recovered)


class TestResume:
    def test_lost_result_is_reexecuted_on_attach(
        self, tmp_path, demand, config, protocols
    ):
        root = tmp_path / "queue"
        first = sweep(
            demand,
            config,
            protocols,
            executor=WorkQueueExecutor(str(root), n_workers=1, ttl=5.0),
        )
        results_dir = root / "results"
        victim = sorted(results_dir.iterdir())[0]
        victim.unlink()

        resumed = sweep(
            demand,
            config,
            protocols,
            executor=WorkQueueExecutor(str(root), n_workers=1, ttl=5.0),
        )
        assert_identical(first, resumed)
        # Exactly one extra publish: only the lost unit was re-executed.
        from repro.dist import WorkQueue

        events = WorkQueue.open(str(root)).read_events()
        publishes = [e for e in events if e["kind"] == "unit_publish"]
        assert len(publishes) == 2 * len(protocols) + 1
