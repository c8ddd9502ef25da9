"""Engine tracing: event schema, accounting identities, zero overhead.

The tentpole guarantees under test:

* a traced run emits schema-valid, sequenced lifecycle events whose
  counts reconcile exactly with the aggregate metrics;
* tracing changes nothing observable — traced and untraced runs (and
  the frozen reference engine) produce identical results modulo the
  manifest, which is provenance metadata by design;
* a disabled tracer costs nothing: the engine drops its reference, the
  static-protocol contact fast path stays on, and no manifest is
  collected unless asked for.
"""

from __future__ import annotations

import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.obs import MemorySink, NullSink, Tracer, events
from repro.protocols import QCR, uni_protocol
from repro.sim import Simulation, SimulationConfig, simulate
from repro.sim._reference import ReferenceSimulation
from repro.simcache.store import result_to_dict
from repro.utility import StepUtility

N_NODES, N_ITEMS, RHO = 8, 5, 2
UTILITY = StepUtility(8.0)


def workload(seed=3, duration=300.0):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(N_NODES, 0.12, duration, seed=seed)
    requests = generate_requests(demand, N_NODES, duration, seed=seed + 1)
    return demand, trace, requests


def config(**overrides):
    params = dict(
        n_items=N_ITEMS, rho=RHO, utility=UTILITY, record_interval=50.0
    )
    params.update(overrides)
    return SimulationConfig(**params)


def run_traced(protocol_builder, *, cfg=None, seed=3):
    demand, trace, requests = workload(seed=seed)
    tracer = Tracer.in_memory()
    sim = Simulation(
        trace,
        requests,
        cfg or config(),
        protocol_builder(demand),
        seed=seed + 2,
        tracer=tracer,
    )
    result = sim.run()
    return result, tracer.sink.events, sim


# ----------------------------------------------------------------------
# schema and framing
# ----------------------------------------------------------------------
def test_traced_run_emits_schema_valid_sequenced_events():
    result, trace_events, _ = run_traced(lambda d: QCR(UTILITY, 0.12))
    assert len(trace_events) > 10
    for event in trace_events:
        events.validate_event(event)
    assert [e["seq"] for e in trace_events] == list(range(len(trace_events)))
    assert trace_events[0]["kind"] == events.RUN_START
    assert trace_events[1]["kind"] == events.ALLOC
    assert trace_events[-1]["kind"] == events.RUN_END
    assert trace_events[0]["protocol"] == "QCR"
    assert sum(trace_events[1]["counts"]) <= N_NODES * RHO


def test_run_end_summary_matches_result():
    result, trace_events, _ = run_traced(lambda d: QCR(UTILITY, 0.12))
    summary = trace_events[-1]["summary"]
    assert summary["n_generated"] == result.n_generated
    assert summary["total_gain"] == pytest.approx(result.total_gain)
    assert summary["gain_rate"] == pytest.approx(result.gain_rate)


# ----------------------------------------------------------------------
# lifecycle accounting reconciles with the aggregate metrics
# ----------------------------------------------------------------------
def kind_counts(trace_events):
    counts = {}
    for event in trace_events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return counts


def test_lifecycle_counts_reconcile_with_metrics():
    result, trace_events, _ = run_traced(
        lambda d: QCR(UTILITY, 0.12),
        cfg=config(request_timeout=20.0),
    )
    counts = kind_counts(trace_events)
    assert counts.get(events.FULFILL, 0) == (
        result.n_fulfilled - result.n_immediate
    )
    assert counts.get(events.IMMEDIATE, 0) == result.n_immediate
    assert counts.get(events.ABANDON, 0) == result.n_expired
    assert counts.get(events.UNFULFILLED, 0) == result.n_unfulfilled
    # Every request left the system exactly one way.
    n_requests = counts.get(events.REQUEST, 0)
    assert n_requests == (
        counts.get(events.FULFILL, 0)
        + counts.get(events.ABANDON, 0)
        + counts.get(events.UNFULFILLED, 0)
    )


def test_fulfill_delays_are_consistent():
    _, trace_events, _ = run_traced(lambda d: QCR(UTILITY, 0.12))
    fulfills = [e for e in trace_events if e["kind"] == events.FULFILL]
    assert fulfills
    for event in fulfills:
        assert event["delay"] >= 0.0
        assert event["counter"] >= 1
        assert 0 <= event["item"] < N_ITEMS


# ----------------------------------------------------------------------
# tracing is observationally free
# ----------------------------------------------------------------------
def comparable(result):
    data = result_to_dict(result)
    data.pop("manifest", None)
    return data


@pytest.mark.parametrize(
    "builder",
    [
        pytest.param(lambda d: uni_protocol(d, N_NODES, RHO), id="static"),
        pytest.param(lambda d: QCR(UTILITY, 0.12), id="qcr"),
    ],
)
def test_traced_equals_untraced(builder):
    demand, trace, requests = workload()
    untraced = Simulation(
        trace, requests, config(), builder(demand), seed=5
    ).run()
    traced, _, _ = run_traced(builder, seed=3)
    # Same seeds: reconstruct with the same seed for a fair comparison.
    traced = Simulation(
        trace,
        requests,
        config(),
        builder(demand),
        seed=5,
        tracer=Tracer.in_memory(),
    ).run()
    assert untraced.manifest is None
    assert traced.manifest is not None
    assert comparable(untraced) == comparable(traced)


def test_traced_engine_matches_frozen_reference():
    demand, trace, requests = workload()
    reference = ReferenceSimulation(
        trace, requests, config(), QCR(UTILITY, 0.12), seed=5
    ).run()
    traced = Simulation(
        trace,
        requests,
        config(),
        QCR(UTILITY, 0.12),
        seed=5,
        tracer=Tracer.in_memory(),
    ).run()
    assert comparable(reference) == comparable(traced)


def test_identical_runs_produce_identical_traces():
    _, first, _ = run_traced(lambda d: QCR(UTILITY, 0.12))
    _, second, _ = run_traced(lambda d: QCR(UTILITY, 0.12))
    assert first == second


# ----------------------------------------------------------------------
# disabled tracer: the satellite fast-path guarantees
# ----------------------------------------------------------------------
def test_disabled_tracer_resolves_to_none():
    demand, trace, requests = workload()
    for tracer in (None, Tracer.disabled(), Tracer(NullSink())):
        sim = Simulation(
            trace,
            requests,
            config(),
            uni_protocol(demand, N_NODES, RHO),
            seed=5,
            tracer=tracer,
        )
        assert sim.tracer is None
        assert sim._hook_free_contact  # PR 2 static-protocol fast path
        assert sim.run().manifest is None


def test_active_tracer_keeps_static_fast_path():
    """SEEN is a query edge, not a raw contact: the no-outstanding
    no-op short-circuit survives tracing."""
    demand, trace, requests = workload()
    sim = Simulation(
        trace,
        requests,
        config(),
        uni_protocol(demand, N_NODES, RHO),
        seed=5,
        tracer=Tracer.in_memory(),
    )
    assert sim.tracer is not None
    assert sim._hook_free_contact
    sim.run()


def test_null_sink_never_receives_events():
    demand, trace, requests = workload()
    sink = NullSink()
    emitted = []
    sink.emit = lambda event: emitted.append(event)  # type: ignore
    Simulation(
        trace,
        requests,
        config(),
        QCR(UTILITY, 0.12),
        seed=5,
        tracer=Tracer(sink),
    ).run()
    assert emitted == []


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
def test_manifest_opt_in_without_tracer():
    demand, trace, requests = workload()
    result = simulate(
        trace,
        requests,
        config(),
        uni_protocol(demand, N_NODES, RHO),
        seed=5,
        manifest=True,
    )
    manifest = result.manifest
    assert manifest is not None
    assert manifest["config_fingerprint"] == config().fingerprint()
    assert manifest["seed"] == 5
    assert manifest["protocol"] == "UNI"
    assert manifest["wall_s"] >= 0.0
    assert manifest["cpu_s"] >= 0.0
    assert manifest["n_events"] == len(trace.times) + len(requests.times)
    assert "python" in manifest["environment"]


def test_simulate_accepts_tracer():
    demand, trace, requests = workload()
    sink = MemorySink()
    result = simulate(
        trace,
        requests,
        config(),
        QCR(UTILITY, 0.12),
        seed=5,
        tracer=Tracer(sink),
    )
    assert sink.n_emitted > 0
    assert result.manifest is not None


def test_config_fingerprint_is_stable_and_semantic():
    base = config()
    assert base.fingerprint() == config().fingerprint()
    assert base.fingerprint() != config(rho=RHO + 1).fingerprint()
    assert len(base.fingerprint()) == 16
