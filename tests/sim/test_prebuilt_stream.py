"""Prebuilt (trial-shared) event streams: bit-identity and validation.

The sweep amortization layer merges each trial's contact/request
events once and hands the read-only stream to every protocol's run.
The engine treats a prebuilt stream as untrusted input — it validates
object identity and config equivalence before using it — and the
results must be bit-identical to an inline merge in every mode: plain
and traced (in memory and JSONL).
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.demand import generate_requests
from repro.errors import ConfigurationError
from repro.experiments import homogeneous_scenario, standard_protocols
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.tracer import Tracer
from repro.sim import SimulationConfig, build_event_stream, simulate
from repro.sim.engine import Simulation
from repro.simcache.store import result_to_dict
from repro.utility import StepUtility

PROTOCOL_NAMES = ("OPT", "QCR", "SQRT", "PROP", "UNI")


@pytest.fixture(scope="module")
def scenario():
    return homogeneous_scenario(
        StepUtility(8.0), duration=120.0, record_interval=30.0
    )


@pytest.fixture(scope="module")
def workload(scenario):
    trace = scenario.trace_factory(5)
    requests = generate_requests(
        scenario.demand, trace.n_nodes, trace.duration, seed=6
    )
    return trace, requests


def run_pair(scenario, trace, requests, name, *, tracer=None):
    """One protocol run with a prebuilt stream and one without."""
    factory = standard_protocols(scenario, include=(name,))[name]
    stream = build_event_stream(trace, requests, scenario.config)

    def once(prebuilt, trc):
        return simulate(
            trace,
            requests,
            scenario.config,
            factory(trace, requests),
            seed=7,
            tracer=trc,
            prebuilt_events=prebuilt,
        )

    return once(None, tracer[0] if tracer else None), once(
        stream, tracer[1] if tracer else None
    )


def assert_results_identical(a, b):
    da, db = result_to_dict(a), result_to_dict(b)
    da.pop("manifest", None)
    db.pop("manifest", None)
    assert da == db


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_prebuilt_plain_bit_identical(scenario, workload, name):
    fresh, prebuilt = run_pair(scenario, *workload, name)
    assert_results_identical(fresh, prebuilt)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_prebuilt_traced_bit_identical(scenario, workload, name):
    sinks = (MemorySink(), MemorySink())
    fresh, prebuilt = run_pair(
        scenario, *workload, name, tracer=tuple(map(Tracer, sinks))
    )
    assert_results_identical(fresh, prebuilt)
    assert sinks[0].events == sinks[1].events
    assert sinks[0].events  # the tracer actually saw the run


def test_prebuilt_traced_jsonl_identical(scenario, workload, tmp_path):
    """JSONL tracing: both the results and the emitted JSONL event
    sequences must match byte for byte (the tracer's view of the event
    order is exactly what the prebuilt merge must reproduce).
    """
    fresh_path = tmp_path / "fresh.jsonl"
    pre_path = tmp_path / "prebuilt.jsonl"
    with open(fresh_path, "w") as fh, open(pre_path, "w") as ph:
        fresh, prebuilt = run_pair(
            scenario,
            *workload,
            "QCR",
            tracer=(Tracer(JsonlSink(fh)), Tracer(JsonlSink(ph))),
        )
    assert_results_identical(fresh, prebuilt)
    assert fresh_path.read_bytes() == pre_path.read_bytes()
    assert fresh_path.read_text().splitlines()  # the tracer saw the run


def test_prebuilt_stream_is_reusable_and_read_only(scenario, workload):
    """One stream serves many runs; event columns are not mutated."""
    trace, requests = workload
    stream = build_event_stream(trace, requests, scenario.config)
    assert np.array_equal(stream.requesting_nodes, np.unique(requests.nodes))
    before = stream.event_times.copy()
    results = []
    for name in ("OPT", "UNI"):
        factory = standard_protocols(scenario, include=(name,))[name]
        for _ in range(2):
            results.append(
                simulate(
                    trace,
                    requests,
                    scenario.config,
                    factory(trace, requests),
                    seed=7,
                    prebuilt_events=stream,
                )
            )
    assert np.array_equal(stream.event_times, before)
    assert_results_identical(results[0], results[1])
    assert_results_identical(results[2], results[3])


# ----------------------------------------------------------------------
# validation: the engine trusts nothing about a prebuilt stream
# ----------------------------------------------------------------------
def make_sim(scenario, trace, requests, stream, **kwargs):
    factory = standard_protocols(scenario, include=("UNI",))["UNI"]
    return Simulation(
        trace,
        requests,
        scenario.config,
        factory(trace, requests),
        seed=7,
        prebuilt_events=stream,
        **kwargs,
    )


def test_prebuilt_rejects_foreign_trace(scenario, workload):
    trace, requests = workload
    other_trace = scenario.trace_factory(99)
    stream = build_event_stream(other_trace, requests, scenario.config)
    with pytest.raises(ConfigurationError, match="trace"):
        make_sim(scenario, trace, requests, stream)


def test_prebuilt_rejects_foreign_requests(scenario, workload):
    trace, requests = workload
    other_requests = generate_requests(
        scenario.demand, trace.n_nodes, trace.duration, seed=99
    )
    stream = build_event_stream(trace, other_requests, scenario.config)
    with pytest.raises(ConfigurationError, match="request"):
        make_sim(scenario, trace, requests, stream)


def test_prebuilt_rejects_config_mismatch(scenario, workload):
    trace, requests = workload
    other_config = SimulationConfig(
        n_items=scenario.config.n_items,
        rho=scenario.config.rho,
        utility=StepUtility(99.0),
    )
    stream = build_event_stream(trace, requests, other_config)
    with pytest.raises(ConfigurationError, match="config"):
        make_sim(scenario, trace, requests, stream)


def test_prebuilt_rejects_missing_payloads_for_plain_run(scenario, workload):
    trace, requests = workload
    stream = build_event_stream(
        trace, requests, scenario.config, payloads=False
    )
    with pytest.raises(ConfigurationError, match="payload"):
        make_sim(scenario, trace, requests, stream)


def test_payloadless_stream_fine_for_traced_run(scenario, workload):
    """Traced runs never consume payload columns, so a payload-free
    stream is sufficient — and payload-bearing streams are a superset
    accepted everywhere."""
    trace, requests = workload
    stream = build_event_stream(
        trace, requests, scenario.config, payloads=False
    )
    sink = MemorySink()
    sim = make_sim(scenario, trace, requests, stream, tracer=Tracer(sink))
    sim.run()
    assert sink.n_emitted > 0

