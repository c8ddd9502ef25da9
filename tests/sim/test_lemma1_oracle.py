"""Lemma 1 as an independent oracle for the engine's static runs.

Under homogeneous Poisson contacts (rate ``mu`` per pair) and a static
allocation with ``x_i`` copies of item ``i``, a request for ``i`` from
a node that does not hold it waits for the first meeting with any of
the ``x_i`` holders: an ``Exp(x_i * mu)`` time (paper, Lemma 1).  An
item with no copy is never served.  None of this goes through
``sim/_reference.py``, which shares its machinery with the engine.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.obs import Tracer
from repro.obs import events as trace_events
from repro.protocols import StaticAllocation
from repro.sim import Simulation, SimulationConfig
from repro.utility import StepUtility

from ._bitwise import assert_bit_identical

N_NODES, MU = 20, 0.05
COUNTS = (6, 4, 3, 2, 1, 0, 0)
#: Requests stop 300 time units before the trace ends: a request for a
#: one-copy item is then left unserved with probability
#: ``exp(-MU * 300)`` ~ 3e-7, so censoring cannot bias the delays.
REQUEST_HORIZON, TRACE_HORIZON = 1200.0, 1500.0
#: Family-wise false-rejection rate of the per-item KS tests,
#: Bonferroni-split over the items that have copies.
ALPHA = 0.01


def build(tracer=None):
    n_items = len(COUNTS)
    demand = DemandModel(rates=np.full(n_items, 0.5))
    trace = homogeneous_poisson_trace(N_NODES, MU, TRACE_HORIZON, seed=41)
    requests = generate_requests(demand, N_NODES, REQUEST_HORIZON, seed=42)
    config = SimulationConfig(n_items=n_items, rho=1, utility=StepUtility(20.0))
    return Simulation(
        trace,
        requests,
        config,
        StaticAllocation(counts=np.asarray(COUNTS)),
        seed=43,
        tracer=tracer,
    )


def test_static_delays_follow_lemma1():
    tracer = Tracer.in_memory()
    traced = build(tracer)
    result = traced.run()
    plain = build()
    assert_bit_identical(result, plain.run())
    assert np.array_equal(traced.counts, COUNTS)

    delays = {item: [] for item in range(len(COUNTS))}
    for event in tracer.sink.events:
        if event["kind"] == trace_events.FULFILL:
            delays[event["item"]].append(event["delay"])
    servable = [item for item, x in enumerate(COUNTS) if x > 0]
    level = ALPHA / len(servable)
    for item in servable:
        sample = np.asarray(delays[item])
        assert len(sample) >= 300, item
        scale = 1.0 / (COUNTS[item] * MU)
        p_value = stats.kstest(sample, "expon", args=(0.0, scale)).pvalue
        assert p_value > level, (item, p_value)
    # The oracle has power: the pooled delays, each scaled by its
    # item's rate ``x_i * mu``, are Exp(1), and a 10% rate error either
    # way is rejected at the same family-wise level.
    pooled = np.concatenate(
        [np.asarray(delays[item]) * COUNTS[item] * MU for item in servable]
    )
    assert stats.kstest(pooled, "expon").pvalue > ALPHA
    for rate in (0.9, 1.1):
        wrong = stats.kstest(pooled, "expon", args=(0.0, 1.0 / rate))
        assert wrong.pvalue < ALPHA, rate

    # Nothing for a servable item is left waiting; every request for a
    # zero-copy item is, on the plain loop's parked path as well.
    requested = np.bincount(plain.requests.items, minlength=len(COUNTS))
    for item, x in enumerate(COUNTS):
        waiting = sum(
            len(node.outstanding.get(item, ())) for node in plain.nodes
        )
        if x == 0:
            assert delays[item] == []
            assert waiting == requested[item] > 0
        else:
            assert waiting == 0
    assert result.n_unfulfilled == sum(
        requested[item] for item, x in enumerate(COUNTS) if x == 0
    )
