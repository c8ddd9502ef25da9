"""Golden digest of one traced run's full event sequence.

The equivalence tests compare :class:`SimulationResult` objects, which
say nothing about the order or content of the emitted lifecycle events.
This test pins them: a small QCR run with a step-utility timeout,
crash/recover/replica-loss faults and random contact drops is traced to
memory, and a sha256 over every event (kind, ``float.hex`` of its time,
and every field, type-tagged) must match the recorded digest.  Any
change to what the instrumented loop emits, or in which order, moves
the digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.faults import FaultSchedule
from repro.obs import Tracer, events
from repro.protocols import QCR
from repro.sim import Simulation, SimulationConfig
from repro.utility import StepUtility

N_NODES, N_ITEMS, RHO = 10, 6, 2
DURATION, RATE, TAU = 300.0, 0.1, 8.0

GOLDEN_DIGEST = (
    "3c5fdbb710d0c6116ccbe5463f1462340bebf581a554123b5dca779d39301f3c"
)
GOLDEN_N_EVENTS = 2888


def _encode(value, out):
    if isinstance(value, (bool, np.bool_)):
        out.append("b:1" if value else "b:0")
    elif isinstance(value, (int, np.integer)):
        out.append(f"i:{int(value)}")
    elif isinstance(value, (float, np.floating)):
        out.append(f"f:{float(value).hex()}")
    elif isinstance(value, str):
        out.append(f"s:{value}")
    elif value is None:
        out.append("n:")
    elif isinstance(value, (list, tuple)):
        out.append(f"l:{len(value)}")
        for element in value:
            _encode(element, out)
    elif isinstance(value, dict):
        out.append(f"d:{len(value)}")
        for key in sorted(value):
            out.append(f"k:{key}")
            _encode(value[key], out)
    else:  # pragma: no cover - a new field type must be encoded explicitly
        raise TypeError(f"unencodable trace field {value!r}")


def trace_digest(trace_events):
    """sha256 over (kind, time, fields) of every event, in order."""
    digest = hashlib.sha256()
    for event in trace_events:
        out = [f"s:{event['kind']}", f"f:{float(event['t']).hex()}"]
        fields = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "kind", "t")
        }
        _encode(fields, out)
        digest.update("\x1f".join(out).encode())
        digest.update(b"\x1e")
    return digest.hexdigest()


def traced_events():
    utility = StepUtility(TAU)
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=3.0)
    trace = homogeneous_poisson_trace(N_NODES, RATE, DURATION, seed=21)
    requests = generate_requests(demand, N_NODES, DURATION, seed=22)
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=utility,
        record_interval=50.0,
        request_timeout=5.0,
    )
    faults = FaultSchedule.crash_wave(
        100.0, [0, 1, 2], recover_at=160.0, drop_prob=0.2, seed=7
    ) + FaultSchedule.replica_loss(rate=0.05, duration=DURATION, seed=9)
    tracer = Tracer.in_memory()
    Simulation(
        trace,
        requests,
        config,
        QCR(utility, RATE),
        seed=23,
        faults=faults,
        tracer=tracer,
    ).run()
    return tracer.sink.events


def test_workload_exercises_every_lifecycle_branch():
    kinds = {event["kind"] for event in traced_events()}
    for kind in (
        events.REQUEST,
        events.SEEN,
        events.FULFILL,
        events.IMMEDIATE,
        events.ABANDON,
        events.CONTACT_DROP,
        events.CRASH,
        events.RECOVER,
        events.LOST,
        events.OFFLINE,
        events.REPLICA_ADD,
        events.REPLICA_DROP,
        events.UNFULFILLED,
    ):
        assert kind in kinds, kind


def test_traced_event_sequence_matches_golden_digest():
    trace_events = traced_events()
    assert len(trace_events) == GOLDEN_N_EVENTS
    assert trace_digest(trace_events) == GOLDEN_DIGEST
