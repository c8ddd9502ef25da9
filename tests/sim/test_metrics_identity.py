"""Metrics collection must never change what a run computes.

The metrics plane's core invariant: a metrics-enabled run is
bit-identical to a disabled one — across the plain fast paths, request
expiry, and tracing — because aggregation only *observes* the hot
loops.  Also covers what enabling buys: per-chunk counters that
reconcile exactly with the run's event count, and manifests carrying
the phase-timing breakdown plus an embedded metrics snapshot.
"""

from __future__ import annotations

import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.obs import Tracer
from repro.obs import metrics as obs_metrics
from repro.protocols import QCR, uni_protocol
from repro.sim import Simulation, SimulationConfig
from repro.simcache.store import result_to_dict
from repro.utility import StepUtility

N_NODES, N_ITEMS, RHO = 10, 6, 2
DURATION = 300.0


@pytest.fixture(autouse=True)
def _fresh_registry():
    obs_metrics.reset_registry()
    obs_metrics.set_enabled(None)
    yield
    obs_metrics.reset_registry()
    obs_metrics.set_enabled(None)


def workload(seed=5):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(N_NODES, 0.12, DURATION, seed=seed)
    requests = generate_requests(demand, N_NODES, DURATION, seed=seed + 1)
    return demand, trace, requests


def run_once(*, metrics_on, protocol="qcr", timeout=None, traced=False):
    obs_metrics.reset_registry()
    obs_metrics.set_enabled(metrics_on)
    demand, trace, requests = workload()
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=StepUtility(8.0),
        record_interval=50.0,
        request_timeout=timeout,
    )
    if protocol == "qcr":
        proto = QCR(StepUtility(8.0), 0.12)
    else:
        proto = uni_protocol(demand, N_NODES, RHO)
    sim = Simulation(
        trace,
        requests,
        config,
        proto,
        seed=11,
        tracer=Tracer.in_memory() if traced else None,
        collect_manifest=True,
    )
    return sim.run()


def strip_manifest(result):
    data = result_to_dict(result)
    data.pop("manifest", None)
    return data


@pytest.mark.parametrize("protocol", ["qcr", "uni"])
def test_metrics_on_off_bit_identical(protocol):
    on = run_once(metrics_on=True, protocol=protocol)
    off = run_once(metrics_on=False, protocol=protocol)
    assert strip_manifest(on) == strip_manifest(off)


def test_metrics_on_off_bit_identical_with_timeout():
    on = run_once(metrics_on=True, timeout=4.0)
    off = run_once(metrics_on=False, timeout=4.0)
    assert on.n_expired > 0
    assert strip_manifest(on) == strip_manifest(off)


def test_metrics_on_off_bit_identical_while_traced():
    on = run_once(metrics_on=True, traced=True)
    off = run_once(metrics_on=False, traced=True)
    assert strip_manifest(on) == strip_manifest(off)


def test_chunk_counters_reconcile_with_event_count():
    result = run_once(metrics_on=True)
    snap = obs_metrics.registry().snapshot()
    n_events = result.manifest["n_events"]
    total = snap["repro_sim_chunk_events_total"]["series"][0]["value"]
    assert total == n_events
    hist = snap["repro_sim_chunk_events"]["series"][0]
    assert hist["sum"] == pytest.approx(float(n_events))
    assert hist["count"] == snap["repro_sim_chunks_total"]["series"][0]["value"]
    runs = snap["repro_sim_runs_total"]["series"][0]
    assert runs["labels"] == {"protocol": "QCR"}
    assert runs["value"] == 1.0


def test_manifest_carries_phases_and_metrics():
    result = run_once(metrics_on=True)
    manifest = result.manifest
    assert set(manifest["phases"]) >= {"merge", "run", "settle"}
    assert all(value >= 0.0 for value in manifest["phases"].values())
    # "merge" happens at construction time, before run()'s wall timer
    # starts; the in-run phases must fit inside the recorded wall time.
    in_run = manifest["phases"]["run"] + manifest["phases"]["settle"]
    assert in_run <= manifest["wall_s"] + 1e-6
    summary = manifest["metrics"]
    assert summary["n_events"] == manifest["n_events"]
    assert summary["n_fulfilled"] == result.n_fulfilled
    assert summary["final_replicas"] == int(result.final_counts.sum())


def test_manifest_summary_present_even_when_metrics_disabled():
    result = run_once(metrics_on=False)
    # The embedded per-run summary rides the manifest (provenance),
    # not the registry, so it survives disabled collection...
    assert result.manifest["metrics"]["n_fulfilled"] == result.n_fulfilled
    assert result.manifest["phases"]
    # ...while the process registry stays untouched.
    assert len(obs_metrics.registry()) == 0


def test_replica_counters_track_accounting():
    result = run_once(metrics_on=True)
    snap = obs_metrics.registry().snapshot()
    adds = snap["repro_sim_replica_adds_total"]["series"][0]["value"]
    drops = snap["repro_sim_replica_drops_total"]["series"][0]["value"]
    assert adds >= 0.0 and drops >= 0.0
    # Net adds minus drops lands exactly on the final replica total
    # minus what the initial allocation placed.
    initial = result.manifest["metrics"]["final_replicas"] - (adds - drops)
    assert initial >= 0
