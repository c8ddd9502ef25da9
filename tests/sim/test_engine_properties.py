"""Property-based engine invariants over random workloads (hypothesis)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.contacts import bernoulli_slot_trace, homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.faults import FaultSchedule
from repro.obs import Tracer
from repro.protocols import (
    QCR,
    PassiveReplication,
    QCRConfig,
    StaticAllocation,
    dom_protocol,
    uni_protocol,
)
from repro.sim import Simulation, SimulationConfig, simulate
from repro.sim._reference import ReferenceSimulation
from repro.utility import (
    ExponentialUtility,
    PowerUtility,
    ShiftedUtility,
    StepUtility,
)

from ._bitwise import assert_bit_identical, outstanding_order

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
        st.sampled_from(
            [
                "qcr",
                "qcrwom",
                "qcr-adaptive",
                "passive",
                "uni",
                "dom",
                "sparse",
            ]
        )
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
    # Which engine loop runs: the plain loops (fault-free, untraced) or
    # the instrumented loop, entered by fault injection, tracing, or both.
    mode = draw(
        st.sampled_from(["plain", "faulted", "traced", "traced-faulted"])
    )
    # Step gains are 0/1 and sum exactly in any order; exponential and
    # power ``truncate`` gains do not, so they make settle order
    # visible.  Power gains are the paper's waiting costs (Fig. 4's
    # alpha panel); alpha = 1.5 has h(0+) = inf, so its runs skip
    # self-requests, and same-instant fulfilments meet the non-finite
    # gain guard.
    utility_kind = draw(st.sampled_from(["step", "exp", "power"]))
    if utility_kind == "power":
        alpha = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.5]))
        utility_kind = ("power", alpha)
    return (
        trace_seed,
        request_seed,
        sim_seed,
        rate,
        demand_rate,
        protocol_kind,
        timeout,
        abandon_gain,
        mode,
        utility_kind,
    )


#: A short-timeout DOM workload with credited expiries, pinned so every
#: run of the suite covers expiry whatever hypothesis draws.
EXPIRING = (1, 2, 3, 0.2, 2.0, "dom", 2.0, -0.5, "plain", "step")
#: Adaptive QCR (a contact hook that is never idle) under faults and
#: tracing, pinned so the instrumented loop always meets that hook mode.
ADAPTIVE_FAULTED = (4, 5, 6, 0.2, 1.5, "qcr-adaptive", 5.0, 0.0,
                    "traced-faulted", "step")
#: Uncredited plain DOM runs: requests for the items DOM does not cache
#: are parked outside ``outstanding`` and settled at the horizon.  One
#: without a timeout (every parked request survives), one with a short
#: timeout (parked requests expire at settle), and the same two on the
#: exponential utility, whose ``truncate`` gains make settle order
#: observable — the untimed one parks, the timed one keeps every
#: request in ``outstanding`` (see ``Simulation._parks_dead_requests``).
PARKED = (7, 8, 9, 0.2, 2.0, "dom", None, 0.0, "plain", "step")
PARKED_EXPIRING = (7, 8, 9, 0.2, 2.0, "dom", 2.0, 0.0, "plain", "step")
PARKED_EXP = (7, 8, 9, 0.2, 2.0, "dom", None, 0.0, "plain", "exp")
DOM_EXP_EXPIRING = (7, 8, 9, 0.2, 2.0, "dom", 2.0, 0.0, "plain", "exp")
#: Every node caches DOM's items, so DOM never leaves a live request
#: outstanding next to a parked one.  A sparse static allocation (one
#: holder for items 1 and 2, none for 3 and 4) does, so its settle
#: merge has live and parked keys to interleave.
SPARSE_COUNTS = (2, 1, 1, 0, 0)
#: Settling the untimed one's parked keys after every live key changes
#: the total gain's last bits.
SPARSE_PARKED_EXP = (10, 11, 12, 0.1, 2.0, "sparse", None, 0.0, "plain",
                     "exp")
SPARSE_PARKED_EXPIRING = (10, 11, 12, 0.05, 2.0, "sparse", 6.0, 0.0,
                          "plain", "step")
#: The shape of Fig. 4's alpha panel: plain loop, h(t) = -t (alpha = 0),
#: no timeout, ``truncate``.  Every gain is folded after the loop, and
#: DOM parks its never-servable requests for settle.
FIG4_ALPHA = (13, 14, 15, 0.2, 2.0, "dom", None, 0.0, "plain",
              ("power", 0.0))


def fault_schedule(seed):
    """Churn, random replica losses and contact drops over the run."""
    churn = FaultSchedule.node_churn(
        N_NODES,
        crash_rate=0.01,
        mean_downtime=15.0,
        duration=DURATION,
        seed=seed,
        drop_prob=0.2,
    )
    return churn + FaultSchedule.replica_loss(
        rate=0.03, duration=DURATION, seed=seed + 1
    )


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
        mode,
        utility_kind,
    ) = workload
    if utility_kind == "step":
        utility = StepUtility(TAU)
    elif utility_kind == "exp":
        utility = ExponentialUtility(1.0 / TAU)
    else:
        utility = PowerUtility(utility_kind[1])
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
        self_request_policy=(
            "immediate" if math.isfinite(utility.h0) else "skip"
        ),
    )
    if kind == "qcr":
        protocol = QCR(utility, rate)
    elif kind == "qcrwom":
        protocol = QCR(utility, rate, QCRConfig(mandate_routing=False))
    elif kind == "qcr-adaptive":
        protocol = QCR(utility, rate, QCRConfig(adaptive_mu=True))
    elif kind == "passive":
        protocol = PassiveReplication()
    elif kind == "dom":
        protocol = dom_protocol(demand, N_NODES, RHO)
    elif kind == "sparse":
        protocol = StaticAllocation(counts=SPARSE_COUNTS)
    else:
        protocol = uni_protocol(demand, N_NODES, RHO)
    faults = fault_schedule(sim_seed) if mode.endswith("faulted") else None
    tracer = (
        Tracer.in_memory()
        if mode.startswith("traced") and cls is Simulation
        else None
    )
    return cls(
        trace,
        requests,
        config,
        protocol,
        seed=sim_seed,
        faults=faults,
        tracer=tracer,
    )


@settings(max_examples=60, deadline=None)
@given(workload=workloads())
@example(workload=EXPIRING)
@example(workload=ADAPTIVE_FAULTED)
@example(workload=PARKED)
@example(workload=PARKED_EXPIRING)
@example(workload=PARKED_EXP)
@example(workload=DOM_EXP_EXPIRING)
@example(workload=SPARSE_PARKED_EXP)
@example(workload=SPARSE_PARKED_EXPIRING)
@example(workload=FIG4_ALPHA)
def test_matches_reference(workload):
    """The optimized loops reproduce the frozen reference engine."""
    expected = build(workload, ReferenceSimulation).run()
    actual = build(workload).run()
    assert_bit_identical(expected, actual)


def test_expiring_example_expires():
    """The pinned example really expires (and fulfils) requests, and
    its credited expiries are logged and folded by the plain loop."""
    sim = build(EXPIRING)
    result = sim.run()
    assert result.n_expired > 0
    assert result.n_fulfilled > 0
    assert sim.metrics._abandon_log


def test_fig4_alpha_example_folds_power_gains():
    """The pinned alpha-panel example fulfils requests at waiting-cost
    gains and settles parked ones at the horizon."""
    sim = build(FIG4_ALPHA)
    assert sim._parks_dead_requests()
    result = sim.run()
    assert result.n_fulfilled > 0
    assert result.n_unfulfilled > 0
    assert result.total_gain < 0


PARKING_EXAMPLES = [
    PARKED,
    PARKED_EXPIRING,
    PARKED_EXP,
    SPARSE_PARKED_EXP,
    SPARSE_PARKED_EXPIRING,
]


@pytest.mark.parametrize("workload", PARKING_EXAMPLES, ids=str)
def test_parked_examples_park_and_survive(workload):
    """The pinned examples really take the parking path: they request
    zero-copy items, and some of those requests reach the horizon.  In
    the sparse ones live requests reach it too, on the same nodes."""
    sim = build(workload)
    assert sim._parks_dead_requests()
    result = sim.run()
    dead = np.flatnonzero(sim.counts == 0)
    assert np.isin(sim.requests.items, dead).any()
    survivors = [
        item
        for node in sim.nodes
        for item in node.outstanding
        if sim.counts[item] == 0
    ]
    assert survivors
    if workload[6] is not None:
        assert result.n_expired > 0
    if workload[5] == "sparse":
        assert any(
            sim.counts[item] == 0
            and any(sim.counts[other] > 0 for other in node.outstanding)
            for node in sim.nodes
            for item in node.outstanding
        )


def test_timed_exponential_dom_keeps_outstanding():
    """Non-step timed ``truncate`` runs cannot be settled order-free, so
    they keep every request in ``outstanding``."""
    assert not build(DOM_EXP_EXPIRING)._parks_dead_requests()


@pytest.mark.parametrize(
    "workload", [*PARKING_EXAMPLES, DOM_EXP_EXPIRING], ids=str
)
def test_settled_state_matches_reference(workload):
    """After the run every node holds the reference's outstanding
    requests: in the same dict order without a timeout, as the same
    dict with one.  Each survivor's stashed birth count plus the
    reference's per-meeting count is the node's total number of server
    meetings."""
    sim = build(workload)
    sim.run()
    reference = build(workload, ReferenceSimulation)
    reference.run()
    actual, expected = outstanding_order(sim), outstanding_order(reference)
    if workload[6] is None:
        assert actual == expected
    else:
        assert [dict(node) for node in actual] == [
            dict(node) for node in expected
        ]
    trace = sim.trace
    is_server = np.zeros(trace.n_nodes, dtype=bool)
    is_server[sim.server_ids] = True
    meetings = np.bincount(
        trace.node_a[is_server[trace.node_b]], minlength=trace.n_nodes
    ) + np.bincount(
        trace.node_b[is_server[trace.node_a]], minlength=trace.n_nodes
    )
    for node, ref_node in zip(sim.nodes, reference.nodes):
        for item, request_list in node.outstanding.items():
            for request, ref_request in zip(
                request_list, ref_node.outstanding[item]
            ):
                assert (
                    request.counter + ref_request.counter
                    == meetings[node.node_id]
                )


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
@example(workload=PARKED)
@example(workload=PARKED_EXPIRING)
@example(workload=PARKED_EXP)
@example(workload=SPARSE_PARKED_EXP)
@example(workload=SPARSE_PARKED_EXPIRING)
def test_bookkeeping_identities(workload):
    """Generated = fulfilled(non-immediate) + expired + outstanding +
    skipped + lost to crashes; gains decompose over windows."""
    sim = build(workload)
    result = sim.run()
    outstanding = sum(node.n_outstanding() for node in sim.nodes)
    assert result.n_generated == (
        result.n_fulfilled
        + result.n_skipped_self
        + result.n_expired
        + result.n_requests_lost
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
