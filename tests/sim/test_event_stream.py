"""The pre-merged event stream: ordering properties and the frozen
reference engine's equivalence to the optimized one."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contacts import ContactTrace, homogeneous_poisson_trace
from repro.demand import DemandModel, RequestSchedule, generate_requests
from repro.protocols import (
    QCR,
    PassiveReplication,
    ReplicationProtocol,
    uni_protocol,
)
from repro.sim import Simulation, SimulationConfig
from repro.sim._reference import ReferenceSimulation
from repro.sim.events import (
    EVENT_CONTACT,
    EVENT_REQUEST,
    server_slot_payloads,
)
from repro.simcache.store import result_to_dict
from repro.utility import StepUtility

N_NODES, N_ITEMS, RHO = 6, 5, 2
UTILITY = StepUtility(8.0)


# ----------------------------------------------------------------------
# property: the merged stream is the two sorted streams, interleaved
# with the request -> contact tie rule
# ----------------------------------------------------------------------
@st.composite
def colliding_workloads(draw):
    """Workloads drawn on a coarse time grid so same-time ties abound."""
    grid = [float(g) for g in range(11)]
    contact_times = sorted(
        draw(st.lists(st.sampled_from(grid), min_size=1, max_size=15))
    )
    request_times = sorted(
        draw(st.lists(st.sampled_from(grid), min_size=0, max_size=15))
    )
    return contact_times, request_times


def build_sim(contact_times, request_times):
    duration = 10.0
    trace = ContactTrace(
        times=np.array(contact_times),
        node_a=np.zeros(len(contact_times), dtype=np.int64),
        node_b=np.ones(len(contact_times), dtype=np.int64),
        n_nodes=N_NODES,
        duration=duration,
    )
    requests = RequestSchedule(
        times=np.array(request_times),
        items=np.zeros(len(request_times), dtype=np.int64),
        nodes=np.full(len(request_times), 2, dtype=np.int64),
        duration=duration,
    )
    config = SimulationConfig(n_items=N_ITEMS, rho=RHO, utility=UTILITY)
    return Simulation(trace, requests, config, PassiveReplication(), seed=0)


@settings(max_examples=60, deadline=None)
@given(workload=colliding_workloads())
def test_merged_stream_ordering(workload):
    contact_times, request_times = workload
    sim = build_sim(*workload)
    times = sim._stream.event_times
    kinds = sim._stream.event_kinds

    # Complete: every source event appears exactly once.
    assert len(times) == len(contact_times) + len(request_times)
    assert [
        t for t, k in zip(times, kinds) if k == EVENT_CONTACT
    ] == contact_times
    assert [
        t for t, k in zip(times, kinds) if k == EVENT_REQUEST
    ] == request_times

    # Sorted by time; ties resolved request < contact.
    for k in range(1, len(times)):
        assert times[k - 1] <= times[k]
        if times[k - 1] == times[k]:
            assert kinds[k - 1] <= kinds[k]


class _OneCopyAtNode1(ReplicationProtocol):
    """Static protocol: item 0 lives only at node 1, nothing else."""

    name = "ONECOPY"

    def initialize(self, sim):
        allocation = np.zeros(
            (sim.config.n_items, sim.n_servers), dtype=np.int64
        )
        allocation[0, 1] = 1
        sim.set_initial_allocation(allocation)


def test_same_time_request_applies_before_contact():
    # A request at t=5 precedes the t=5 contact, which serves it with
    # zero delay.
    duration = 10.0
    trace = ContactTrace(
        times=np.array([5.0]),
        node_a=np.array([0]),
        node_b=np.array([1]),
        n_nodes=3,
        duration=duration,
    )
    requests = RequestSchedule(
        times=np.array([5.0]),
        items=np.array([0]),
        nodes=np.array([0]),
        duration=duration,
    )
    config = SimulationConfig(n_items=2, rho=1, utility=UTILITY)
    sim = Simulation(trace, requests, config, _OneCopyAtNode1(), seed=0)
    assert 0 in sim.nodes[1].cache
    result = sim.run()
    assert result.n_fulfilled == 1
    assert list(result.delays) == [0.0]


# ----------------------------------------------------------------------
# the frozen pre-optimization engine stays bit-identical
# ----------------------------------------------------------------------
def run_both(protocol_builder, *, request_timeout=None, seed=3):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(N_NODES, 0.15, 200.0, seed=seed)
    requests = generate_requests(demand, N_NODES, 200.0, seed=seed + 1)
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=UTILITY,
        request_timeout=request_timeout,
        record_interval=50.0,
    )
    results = []
    for cls in (Simulation, ReferenceSimulation):
        protocol = protocol_builder(demand)
        sim = cls(trace, requests, config, protocol, seed=seed + 2)
        results.append(sim.run())
    return results


@pytest.mark.parametrize(
    "builder",
    [
        pytest.param(lambda d: uni_protocol(d, N_NODES, RHO), id="uni"),
        pytest.param(lambda d: PassiveReplication(), id="passive"),
        pytest.param(lambda d: QCR(UTILITY, 0.15), id="qcr"),
    ],
)
def test_reference_engine_equivalence(builder):
    optimized, reference = run_both(builder)
    assert result_to_dict(optimized) == result_to_dict(reference)


def test_reference_engine_equivalence_with_timeout():
    optimized, reference = run_both(
        lambda d: QCR(UTILITY, 0.15), request_timeout=25.0
    )
    assert result_to_dict(optimized) == result_to_dict(reference)


# ----------------------------------------------------------------------
# server_slot_payloads against a per-event meeting counter
# ----------------------------------------------------------------------
def brute_force_payloads(kinds, arg_a, arg_b, is_server, requester):
    """Walk the stream event by event: a requester's meeting count rises
    by one per contact with a server (from zero); a contact carries each
    side's new count (``-1`` when that side does not count), a request
    its node's count at creation.  Every counted direction slot is
    listed as ``node * len(kinds) + position``, sorted."""
    counts = np.zeros(len(is_server), dtype=np.int64)
    payload_x = np.full(len(kinds), -1, dtype=np.int64)
    payload_y = np.full(len(kinds), -1, dtype=np.int64)
    slots = []
    for p, (kind, a, b) in enumerate(zip(kinds, arg_a, arg_b)):
        if kind == EVENT_REQUEST:
            payload_x[p] = counts[b]
        elif kind == EVENT_CONTACT:
            if is_server[b] and requester[a]:
                counts[a] += 1
                payload_x[p] = counts[a]
                slots.append(int(a) * len(kinds) + p)
            if is_server[a] and requester[b]:
                counts[b] += 1
                payload_y[p] = counts[b]
                slots.append(int(b) * len(kinds) + p)
    slot_key = np.array(sorted(slots), dtype=np.int64)
    return payload_x, payload_y, slot_key


def random_block(rng, n_nodes, pool, shape, n_events=4000):
    """A random sorted-stream block of the given *shape*: ``mixed``
    (random servers, requesters and kinds), ``dedicated`` (a few servers
    that never request, clients that never serve, and only some clients
    requesting), ``contacts`` (no request rows) or ``requests`` (no
    contact rows)."""
    probs = {
        "mixed": [0.2, 0.8],
        "dedicated": [0.2, 0.8],
        "contacts": [0.0, 1.0],
        "requests": [1.0, 0.0],
    }[shape]
    kinds = rng.choice(
        [EVENT_REQUEST, EVENT_CONTACT], size=n_events, p=probs
    ).astype(np.int64)
    arg_a = rng.choice(pool, size=n_events)
    arg_b = rng.choice(pool, size=n_events)
    same = arg_a == arg_b
    arg_b[same] = np.where(arg_a[same] == pool[0], pool[1], pool[0])
    is_request = kinds == EVENT_REQUEST
    is_server = np.zeros(n_nodes, dtype=bool)
    requester = np.zeros(n_nodes, dtype=bool)
    if shape == "dedicated":
        servers = pool[: max(2, len(pool) // 4)]
        clients = pool[len(servers):]
        is_server[servers] = True
        askers = rng.choice(
            clients, size=max(1, len(clients) // 2), replace=False
        )
        arg_b[is_request] = rng.choice(askers, size=is_request.sum())
    else:
        is_server[pool] = rng.random(len(pool)) < 0.5
        requester[rng.choice(pool, size=max(1, len(pool) // 3))] = True
    # Request rows carry an item id in arg_a, possibly past the node range.
    arg_a[is_request] = rng.integers(0, n_nodes + 50, size=is_request.sum())
    requester[arg_b[is_request]] = True
    return kinds, arg_a, arg_b, is_server, requester


@pytest.mark.parametrize("n_nodes", [7, 70_000])
def test_plain_payloads_match_brute_force(n_nodes):
    """Both payload columns and the server-slot key equal a per-event
    walk, on random blocks of every shape.  Up to 65,536 nodes the grouping sorts 16-bit
    keys; above, the int64 ids themselves (70,000 nodes pins that
    fallback: a 16-bit key would alias node ids 65,536 apart)."""
    rng = np.random.default_rng(n_nodes)
    if n_nodes > 1 << 16:
        # Pairs of node ids 65,536 apart: a 16-bit key would merge each.
        low = rng.choice(n_nodes - (1 << 16), size=20, replace=False)
        pool = np.concatenate([low, low + (1 << 16)])
    else:
        pool = np.arange(n_nodes)
    for shape in ("mixed", "dedicated", "contacts", "requests"):
        for _ in range(3):
            kinds, arg_a, arg_b, is_server, requester = random_block(
                rng, n_nodes, rng.permutation(pool), shape
            )
            expected_x, expected_y, expected_slots = brute_force_payloads(
                kinds, arg_a, arg_b, is_server, requester
            )
            payload_x, payload_y, server_slots = server_slot_payloads(
                kinds, arg_a, arg_b,
                is_server=is_server, requester=requester,
            )
            assert np.array_equal(payload_x, expected_x)
            assert np.array_equal(payload_y, expected_y)
            assert np.array_equal(server_slots, expected_slots)
