"""Property-based engine invariants over random workloads (hypothesis)."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.contacts import bernoulli_slot_trace, homogeneous_poisson_trace
from repro.demand import DemandModel, RequestSchedule, generate_requests
from repro.experiments import Scenario, standard_protocols
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
from repro.sim.events import build_event_stream
from repro.utility import (
    ExponentialUtility,
    PowerUtility,
    ShiftedUtility,
    StepUtility,
)

from ._bitwise import (
    assert_bit_identical,
    outstanding_order,
    spy_static_kernel,
)

N_NODES, N_ITEMS, RHO = 6, 5, 2
#: Protocol kinds built through ``standard_protocols``: SQRT, PROP and the
#: Theorem-2 OPT, which compute their allocations in ``initialize``.
SUITE_KINDS = ("sqrt", "prop", "opt")
DURATION, TAU = 120.0, 8.0
#: The dedicated-node layout: servers and clients are disjoint.
SERVERS, CLIENTS = (0, 1, 2), (3, 4, 5)


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
                "sqrt",
                "prop",
                "dom",
                "opt",
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
    # Which engine loop runs: the plain loops (untraced) or the
    # instrumented loop, entered by tracing.
    mode = draw(st.sampled_from(["plain", "traced"]))
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
    # Every node both serves and requests, or the populations are
    # disjoint (servers never request, clients never hold a copy).
    nodes = draw(st.sampled_from(["shared", "dedicated"]))
    # Poisson contacts, or slotted ones stamped on the integer instants
    # that the requests are floored onto, so requests and contacts
    # share instants (a request sorts before a contact at its time).
    trace_kind = draw(st.sampled_from(["poisson", "slotted"]))
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
        nodes,
        trace_kind,
    )


#: A short-timeout DOM workload with credited expiries, pinned so every
#: run of the suite covers expiry whatever hypothesis draws.
EXPIRING = (1, 2, 3, 0.2, 2.0, "dom", 2.0, -0.5, "plain", "step")
#: Adaptive QCR (a contact hook that is never idle) under tracing,
#: pinned so the instrumented loop always meets that hook mode.
ADAPTIVE_TRACED = (4, 5, 6, 0.2, 1.5, "qcr-adaptive", 5.0, 0.0, "traced",
                   "step")
#: Uncredited plain DOM runs, which the static kernel resolves: the
#: requests for items DOM does not cache can never be served.  One
#: without a timeout (every such request survives), one with a short
#: timeout (they expire), and the same two on the exponential utility,
#: whose ``truncate`` gains make the settle order — the post-run dict
#: order — observable.
PARKED = (7, 8, 9, 0.2, 2.0, "dom", None, 0.0, "plain", "step")
PARKED_EXPIRING = (7, 8, 9, 0.2, 2.0, "dom", 2.0, 0.0, "plain", "step")
PARKED_EXP = (7, 8, 9, 0.2, 2.0, "dom", None, 0.0, "plain", "exp")
DOM_EXP_EXPIRING = (7, 8, 9, 0.2, 2.0, "dom", 2.0, 0.0, "plain", "exp")
#: Every node caches DOM's items, so DOM never leaves a servable request
#: outstanding next to a never-servable one.  A sparse static
#: allocation (one holder for items 1 and 2, none for 3 and 4) does, so
#: its post-run dicts interleave both kinds of keys.
SPARSE_COUNTS = (2, 1, 1, 0, 0)
#: Settling the untimed one's never-servable keys after every other key
#: changes the total gain's last bits.
SPARSE_PARKED_EXP = (10, 11, 12, 0.1, 2.0, "sparse", None, 0.0, "plain",
                     "exp")
SPARSE_PARKED_EXPIRING = (10, 11, 12, 0.05, 2.0, "sparse", 6.0, 0.0,
                          "plain", "step")
#: The shape of Fig. 4's alpha panel: plain loop, h(t) = -t (alpha = 0),
#: no timeout, ``truncate``.  Every gain is folded after the run, and
#: DOM's never-servable requests wait for settle.
FIG4_ALPHA = (13, 14, 15, 0.2, 2.0, "dom", None, 0.0, "plain",
              ("power", 0.0))


def build(workload, cls=Simulation, stream=None):
    """The workload's simulation; on *stream*'s trace and requests, with
    the stream prebuilt, when given.  Workloads without the two layout
    axes (the pinned examples) run shared nodes on Poisson contacts."""
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
        *layout,
    ) = workload
    nodes, trace_kind = layout or ("shared", "poisson")
    if utility_kind == "step":
        utility = StepUtility(TAU)
    elif utility_kind == "exp":
        utility = ExponentialUtility(1.0 / TAU)
    else:
        utility = PowerUtility(utility_kind[1])
    if abandon_gain:
        utility = ShiftedUtility(utility, abandon_gain)
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=demand_rate)
    dedicated = nodes == "dedicated"
    if stream is not None:
        trace, requests = stream.trace, stream.requests
    else:
        if trace_kind == "slotted":
            trace = bernoulli_slot_trace(
                N_NODES, rate, delta=1.0, n_slots=int(DURATION),
                seed=trace_seed,
            )
        else:
            trace = homogeneous_poisson_trace(
                N_NODES, rate, DURATION, seed=trace_seed
            )
        raw = generate_requests(demand, N_NODES, DURATION, seed=request_seed)
        requests = RequestSchedule(
            times=(
                np.floor(raw.times) if trace_kind == "slotted" else raw.times
            ),
            items=raw.items,
            nodes=(
                raw.nodes % len(CLIENTS) + CLIENTS[0]
                if dedicated
                else raw.nodes
            ),
            duration=raw.duration,
        )
    n_servers = len(SERVERS) if dedicated else N_NODES
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=utility,
        record_interval=30.0,
        request_timeout=timeout,
        self_request_policy=(
            "immediate" if math.isfinite(utility.h0) else "skip"
        ),
        servers=SERVERS if dedicated else None,
        clients=CLIENTS if dedicated else None,
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
        protocol = dom_protocol(demand, n_servers, RHO)
    elif kind in SUITE_KINDS:
        # The figure sweeps' protocols: the suite's factory, handed the
        # server count as the trace shape it builds for.
        scenario = Scenario(
            name="property",
            trace_factory=lambda seed: trace,
            demand=demand,
            config=config,
            mu_estimate=rate,
            heterogeneous=False,
            n_nodes=n_servers,
        )
        name = kind.upper()
        factory = standard_protocols(scenario, include=(name,))[name]
        protocol = factory(
            SimpleNamespace(n_nodes=n_servers, duration=DURATION), requests
        )
    elif kind == "sparse":
        protocol = StaticAllocation(counts=SPARSE_COUNTS)
    else:
        protocol = uni_protocol(demand, n_servers, RHO)
    tracer = (
        Tracer.in_memory() if mode == "traced" and cls is Simulation else None
    )
    return cls(
        trace,
        requests,
        config,
        protocol,
        seed=sim_seed,
        tracer=tracer,
        prebuilt_events=stream,
    )


@settings(max_examples=60, deadline=None)
@given(workload=workloads())
@example(workload=EXPIRING)
@example(workload=ADAPTIVE_TRACED)
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


@settings(max_examples=25, deadline=None)
@given(workload=workloads())
def test_static_protocols_share_one_stream(workload):
    """Static protocols on one prebuilt stream each match the
    reference: the kernel's per-trial indexes, built on the first run,
    carry nothing of its allocation into the later ones."""
    workload = (*workload[:8], "plain", *workload[9:])
    first = build(workload)
    stream = build_event_stream(first.trace, first.requests, first.config)
    for kind in ("dom", "sparse", *SUITE_KINDS):
        run = (*workload[:5], kind, *workload[6:])
        sim = build(run, stream=stream)
        reference = build(run, ReferenceSimulation, stream=stream)
        assert_bit_identical(reference.run(), sim.run())
        assert outstanding_order(sim) == outstanding_order(reference)
    assert "pairs" in stream.memo


def test_expiring_example_expires():
    """The pinned example really expires (and fulfils) requests, and
    its credited expiries are logged and folded by the plain loop."""
    sim = build(EXPIRING)
    result = sim.run()
    assert result.n_expired > 0
    assert result.n_fulfilled > 0
    assert sim.metrics._abandon_log


def test_fig4_alpha_example_folds_power_gains(monkeypatch):
    """The pinned alpha-panel example fulfils requests at waiting-cost
    gains and settles never-servable ones at the horizon, all in
    closed form."""
    verdicts = spy_static_kernel(monkeypatch)
    sim = build(FIG4_ALPHA)
    result = sim.run()
    assert verdicts == [True]
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
def test_parked_examples_park_and_survive(workload, monkeypatch):
    """The pinned examples really take the static kernel: they request
    zero-copy items, and some of those requests reach the horizon.  In
    the sparse ones servable requests reach it too, on the same nodes."""
    verdicts = spy_static_kernel(monkeypatch)
    sim = build(workload)
    result = sim.run()
    assert verdicts == [True]
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


def test_timed_exponential_dom_keeps_outstanding(monkeypatch):
    """A non-step timed ``truncate`` run makes the post-run dict order
    observable; the static kernel resolves it all the same, leaving
    survivors in ``outstanding`` in the reference's order."""
    verdicts = spy_static_kernel(monkeypatch)
    sim = build(DOM_EXP_EXPIRING)
    reference = build(DOM_EXP_EXPIRING, ReferenceSimulation)
    assert_bit_identical(reference.run(), sim.run())
    assert verdicts == [True]
    assert any(node.outstanding for node in sim.nodes)
    assert outstanding_order(sim) == outstanding_order(reference)


@pytest.mark.parametrize(
    "workload", [*PARKING_EXAMPLES, DOM_EXP_EXPIRING], ids=str
)
def test_settled_state_matches_reference(workload):
    """After the run every node holds the reference's outstanding
    requests, in the same dict order, with a timeout or without.  Each
    survivor's stashed birth count plus the reference's per-meeting
    count is the node's total number of server meetings."""
    sim = build(workload)
    sim.run()
    reference = build(workload, ReferenceSimulation)
    reference.run()
    assert outstanding_order(sim) == outstanding_order(reference)
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
    """Generated = fulfilled + skipped + expired + outstanding; gains
    decompose over windows."""
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
