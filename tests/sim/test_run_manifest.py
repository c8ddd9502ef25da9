"""The run manifest's embedded counters and phase timings.

Every manifest carries the phase-timing breakdown and a counter summary
built from the run's :class:`~repro.sim.metrics.MetricsCollector`; the
tracer's replica events account exactly for the manifest's final
replica total.
"""

from __future__ import annotations

import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.obs import Tracer
from repro.obs import events as trace_events
from repro.protocols import QCR
from repro.sim import Simulation, SimulationConfig
from repro.utility import StepUtility

N_NODES, N_ITEMS, RHO = 10, 6, 2
DURATION = 300.0


class _DroppingQCR(QCR):
    """QCR that also drops a replica from one side of every contact it
    handles, so some later insertions fill a free slot instead of
    evicting."""

    def after_contact(self, sim, t, a, b):
        super().after_contact(sim, t, a, b)
        if a.cache is not None:
            for item in sorted(a.cache):
                if sim.remove_copy(a, item):
                    break


def build_sim(seed=5, tracer=None, protocol=QCR):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(N_NODES, 0.12, DURATION, seed=seed)
    requests = generate_requests(demand, N_NODES, DURATION, seed=seed + 1)
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=StepUtility(8.0),
        record_interval=50.0,
    )
    return Simulation(
        trace,
        requests,
        config,
        protocol(StepUtility(8.0), 0.12),
        seed=11,
        tracer=tracer,
        collect_manifest=True,
    )


def test_manifest_carries_phases_and_metrics():
    result = build_sim().run()
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


@pytest.mark.parametrize("protocol", [QCR, _DroppingQCR])
@pytest.mark.parametrize("seed", [5, 8])
def test_replica_events_account_for_final_replicas(seed, protocol):
    tracer = Tracer.in_memory()
    sim = build_sim(seed=seed, tracer=tracer, protocol=protocol)
    initial = int(sim.counts.sum())
    result = sim.run()
    events = tracer.sink.events
    adds = [e for e in events if e["kind"] == trace_events.REPLICA_ADD]
    evictions = sum(1 for e in adds if e["evicted"] is not None)
    drops = sum(1 for e in events if e["kind"] == trace_events.REPLICA_DROP)
    assert evictions > 0
    if protocol is _DroppingQCR:
        assert drops > 0 and evictions < len(adds)
    final = result.manifest["metrics"]["final_replicas"]
    assert initial + len(adds) - evictions - drops == final
