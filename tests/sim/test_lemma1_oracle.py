"""Lemma 1 as an independent oracle for the engine's static runs.

Under homogeneous Poisson contacts (rate ``mu`` per pair) and a static
allocation with ``x_i`` copies of item ``i``, a request for ``i`` from
a node that does not hold it waits for the first meeting with any of
the ``x_i`` holders: an ``Exp(x_i * mu)`` time (paper, Lemma 1).  With
per-pair rates ``mu_{m,n}`` and a per-node allocation ``x_{i,m}``, the
same argument gives node ``n`` an ``Exp(sum_m x_{i,m} mu_{m,n})`` wait
— the Fig. 5 OPT path.  An item with no copy is never served.  None of
this goes through ``sim/_reference.py``, which shares its machinery
with the engine.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.allocation import place_copies
from repro.contacts import heterogeneous_poisson_trace, homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.obs import Tracer
from repro.obs import events as trace_events
from repro.protocols import StaticAllocation
from repro.sim import Simulation, SimulationConfig
from repro.utility import StepUtility

from ._bitwise import assert_bit_identical, spy_static_kernel

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


def test_static_delays_follow_lemma1(monkeypatch):
    tracer = Tracer.in_memory()
    traced = build(tracer)
    result = traced.run()
    plain = build()
    verdicts = spy_static_kernel(monkeypatch)
    assert_bit_identical(result, plain.run())
    assert verdicts == [True]
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
    # zero-copy item is, in the static kernel's outstanding dicts too.
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


#: The heterogeneous oracle: per-pair rates drawn in [0.01, 0.1], so
#: the slowest wait (one holder) has rate at least 0.01, and requests
#: stop 2,000 time units before the trace ends: censoring probability
#: at most exp(-20).
HET_NODES, HET_RHO = 12, 2
HET_COUNTS = (6, 5, 4, 3, 2, 1, 0)
HET_REQUEST_HORIZON, HET_TRACE_HORIZON = 2400.0, 4400.0


def fresh_waits(events):
    """``(item, node, delay)`` of each fulfilled request born while its
    node had no request pending for its item.

    Requests that join a pending batch are served with it: their waits
    overlap the batch's and are correlated, which KS does not allow.
    Fresh requests of one item wait on disjoint stretches of the pair
    processes, so their waits are independent.
    """
    pending = {}
    waits = []
    for event in events:
        key = (event.get("node"), event.get("item"))
        if event["kind"] == trace_events.REQUEST:
            pending.setdefault(key, []).append(not pending.get(key))
        elif event["kind"] == trace_events.FULFILL:
            if pending[key].pop(0):
                waits.append((key[1], key[0], event["delay"]))
    return waits


def test_heterogeneous_static_delays_follow_lemma1(monkeypatch):
    """Per item, each independent wait times its own rate
    ``sum_m x_{i,m} mu_{m,n}`` is Exp(1).  The delays are the static
    kernel's: bit-identical to the traced loop's, whose events
    attribute them to items and nodes."""
    rng = np.random.default_rng(51)
    upper = np.triu(rng.uniform(0.01, 0.1, size=(HET_NODES, HET_NODES)), 1)
    mu = upper + upper.T
    allocation = place_copies(
        np.asarray(HET_COUNTS), HET_NODES, HET_RHO, seed=52
    )
    n_items = len(HET_COUNTS)
    # rates[i, n]: the total rate at which node n meets holders of i.
    rates = allocation @ mu
    trace = heterogeneous_poisson_trace(mu, HET_TRACE_HORIZON, seed=53)
    demand = DemandModel(rates=np.full(n_items, 0.5))
    requests = generate_requests(
        demand, HET_NODES, HET_REQUEST_HORIZON, seed=54
    )
    config = SimulationConfig(
        n_items=n_items, rho=HET_RHO, utility=StepUtility(20.0)
    )

    def run(tracer=None):
        return Simulation(
            trace,
            requests,
            config,
            StaticAllocation(allocation=allocation),
            seed=55,
            tracer=tracer,
        ).run()

    tracer = Tracer.in_memory()
    traced = run(tracer)
    verdicts = spy_static_kernel(monkeypatch)
    assert_bit_identical(traced, run())
    assert verdicts == [True]

    waits = fresh_waits(tracer.sink.events)
    assert all(item != n_items - 1 for item, _, _ in waits)
    scaled = {
        item: np.asarray(
            [d * rates[i, n] for i, n, d in waits if i == item]
        )
        for item in range(n_items - 1)
    }
    level = ALPHA / len(scaled)
    for item, sample in scaled.items():
        assert len(sample) >= 300, item
        p_value = stats.kstest(sample, "expon").pvalue
        assert p_value > level, (item, p_value)
    # Power: a 10% rate error is rejected, and so is the homogeneous
    # model that gives every requester the item's mean rate.
    pooled = np.concatenate(list(scaled.values()))
    for rate in (0.9, 1.1):
        wrong = stats.kstest(pooled, "expon", args=(0.0, 1.0 / rate))
        assert wrong.pvalue < ALPHA, rate
    homogeneous = [d * rates[i].mean() for i, _, d in waits]
    assert stats.kstest(homogeneous, "expon").pvalue < ALPHA
