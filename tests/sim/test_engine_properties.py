"""Property-based engine invariants over random workloads (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.contacts import bernoulli_slot_trace, homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.protocols import (
    QCR,
    PassiveReplication,
    QCRConfig,
    dom_protocol,
    uni_protocol,
)
from repro.sim import Simulation, SimulationConfig, simulate
from repro.sim._reference import ReferenceSimulation
from repro.utility import ShiftedUtility, StepUtility

from ._bitwise import assert_bit_identical

N_NODES, N_ITEMS, RHO = 6, 5, 2
DURATION, TAU = 120.0, 8.0


@st.composite
def workloads(draw):
    trace_seed = draw(st.integers(min_value=0, max_value=10_000))
    request_seed = draw(st.integers(min_value=0, max_value=10_000))
    sim_seed = draw(st.integers(min_value=0, max_value=10_000))
    rate = draw(st.floats(min_value=0.02, max_value=0.3))
    demand_rate = draw(st.floats(min_value=0.1, max_value=2.0))
    protocol_kind = draw(
        st.sampled_from(["qcr", "qcrwom", "passive", "uni", "dom"])
    )
    # No timeout, a timeout shorter than the deadline (most requests
    # for uncached items expire), or one past the horizon (the expiry
    # floor is consulted but nothing can expire).
    timeout = draw(
        st.one_of(
            st.none(),
            st.floats(min_value=0.5, max_value=TAU - 0.5),
            st.floats(min_value=DURATION, max_value=4 * DURATION),
        )
    )
    # A negative never-fulfilled gain credits every expiry, through the
    # generic (non-step) fulfil path.
    abandon_gain = draw(st.sampled_from([0.0, -0.5]))
    return (
        trace_seed,
        request_seed,
        sim_seed,
        rate,
        demand_rate,
        protocol_kind,
        timeout,
        abandon_gain,
    )


#: A short-timeout DOM workload with credited expiries, pinned so every
#: run of the suite covers expiry whatever hypothesis draws.
EXPIRING = (1, 2, 3, 0.2, 2.0, "dom", 2.0, -0.5)


def build(workload, cls=Simulation):
    (
        trace_seed,
        request_seed,
        sim_seed,
        rate,
        demand_rate,
        kind,
        timeout,
        abandon_gain,
    ) = workload
    utility = StepUtility(TAU)
    if abandon_gain:
        utility = ShiftedUtility(utility, abandon_gain)
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=demand_rate)
    trace = homogeneous_poisson_trace(N_NODES, rate, DURATION, seed=trace_seed)
    requests = generate_requests(demand, N_NODES, DURATION, seed=request_seed)
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=utility,
        record_interval=30.0,
        request_timeout=timeout,
    )
    if kind == "qcr":
        protocol = QCR(utility, rate)
    elif kind == "qcrwom":
        protocol = QCR(utility, rate, QCRConfig(mandate_routing=False))
    elif kind == "passive":
        protocol = PassiveReplication()
    elif kind == "dom":
        protocol = dom_protocol(demand, N_NODES, RHO)
    else:
        protocol = uni_protocol(demand, N_NODES, RHO)
    return cls(trace, requests, config, protocol, seed=sim_seed)


@settings(max_examples=60, deadline=None)
@given(workload=workloads())
@example(workload=EXPIRING)
def test_matches_reference(workload):
    """The optimized loops reproduce the frozen reference engine."""
    expected = build(workload, ReferenceSimulation).run()
    actual = build(workload).run()
    assert_bit_identical(expected, actual)


def test_expiring_example_expires():
    """The pinned example really expires (and fulfils) requests."""
    result = build(EXPIRING).run()
    assert result.n_expired > 0
    assert result.n_fulfilled > 0


@settings(max_examples=40, deadline=None)
@given(workload=workloads())
def test_replica_accounting_consistent(workload):
    """The engine's counts vector always equals the caches' contents."""
    sim = build(workload)
    result = sim.run()
    recounted = np.zeros(N_ITEMS, dtype=np.int64)
    for node in sim.nodes:
        if node.cache is None:
            continue
        for item in node.cache:
            recounted[item] += 1
    assert np.array_equal(result.final_counts, recounted)
    assert np.array_equal(sim.counts, recounted)


@settings(max_examples=40, deadline=None)
@given(workload=workloads())
@example(workload=EXPIRING)
def test_bookkeeping_identities(workload):
    """Generated = fulfilled(non-immediate) + expired + outstanding +
    skipped; gains decompose over windows."""
    sim = build(workload)
    result = sim.run()
    outstanding = sum(node.n_outstanding() for node in sim.nodes)
    assert result.n_generated == (
        result.n_fulfilled
        + result.n_skipped_self
        + result.n_expired
        + outstanding
    )
    assert result.n_unfulfilled == outstanding
    assert result.window_gains.sum() == pytest.approx(result.total_gain)
    assert result.window_fulfillments.sum() == result.n_fulfilled
    assert len(result.delays) == result.n_fulfilled
    assert np.all(result.delays >= 0)


@settings(max_examples=30, deadline=None)
@given(workload=workloads())
def test_caches_never_overflow(workload):
    sim = build(workload)
    sim.run()
    for node in sim.nodes:
        if node.cache is not None:
            assert len(node.cache) <= RHO


def test_slotted_trace_matches_continuous():
    """Paper §3.4: discrete-time dynamics approach the continuous model.

    Run the same workload on a Poisson trace and on a fine-grained
    slotted Bernoulli trace with matching rate; average utilities agree.
    """
    utility = StepUtility(8.0)
    demand = DemandModel.pareto(10, omega=1.0, total_rate=3.0)
    duration, rate = 1500.0, 0.08
    config = SimulationConfig(n_items=10, rho=2, utility=utility)
    gains = {}
    for label, trace in (
        (
            "continuous",
            homogeneous_poisson_trace(20, rate, duration, seed=1),
        ),
        (
            "slotted",
            bernoulli_slot_trace(
                20, rate, delta=0.25, n_slots=int(duration / 0.25), seed=2
            ),
        ),
    ):
        requests = generate_requests(demand, 20, duration, seed=3)
        result = simulate(
            trace, requests, config, QCR(utility, rate), seed=4
        )
        gains[label] = result.gain_rate
    assert gains["slotted"] == pytest.approx(gains["continuous"], rel=0.1)
