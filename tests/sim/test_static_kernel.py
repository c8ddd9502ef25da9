"""The static kernel's own edges: its guard, both pair-rank lookups,
blocked expansion, the per-stream memo, the 16-bit pair sort, and the
int64 key range at a million nodes.

Everything else about it — bit-identity with the reference engine and
the plain loop's dict order — is pinned by ``test_engine_properties``
and ``test_engine``, whose static runs all take the kernel.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.contacts import ContactTrace, homogeneous_poisson_trace
from repro.demand import DemandModel, RequestSchedule, generate_requests
from repro.experiments import homogeneous_scenario, standard_protocols
from repro.protocols import StaticAllocation, uni_protocol
from repro.sim import Simulation, SimulationConfig, static
from repro.sim._reference import ReferenceSimulation
from repro.sim.events import build_event_stream
from repro.utility import ExponentialUtility, ShiftedUtility

from ._bitwise import assert_bit_identical, outstanding_order, spy_static_kernel

UTILITY = ShiftedUtility(ExponentialUtility(0.1), -0.5)


def run_both(trace, requests, config, protocol_factory):
    sims = [
        cls(trace, requests, config, protocol_factory(), seed=3)
        for cls in (ReferenceSimulation, Simulation)
    ]
    results = [sim.run() for sim in sims]
    assert_bit_identical(*results)
    assert outstanding_order(sims[0]) == outstanding_order(sims[1])
    return sims[1], results[1]


def dedicated_world(n_contacts_rate):
    """20 servers holding every item, 10 clients requesting them: each
    request expands to 20 holder entries."""
    servers, clients = tuple(range(20)), tuple(range(20, 30))
    trace = homogeneous_poisson_trace(30, n_contacts_rate, 200.0, seed=11)
    raw = generate_requests(
        DemandModel.pareto(3, omega=1.0, total_rate=1.0), 30, 200.0, seed=12
    )
    requests = RequestSchedule(
        times=raw.times,
        items=raw.items,
        nodes=raw.nodes % len(clients) + clients[0],
        duration=raw.duration,
    )
    config = SimulationConfig(
        n_items=3,
        rho=3,
        utility=UTILITY,
        request_timeout=2.0,
        servers=servers,
        clients=clients,
    )
    return trace, requests, config, lambda: StaticAllocation(
        counts=np.full(3, 20)
    )


def test_guard_leaves_wide_expansions_to_the_loop(monkeypatch):
    """Over 4 holder entries per event, the kernel declines, changing
    nothing, and the plain loop runs instead."""
    verdicts = spy_static_kernel(monkeypatch)
    trace, requests, config, factory = dedicated_world(0.0005)
    n_events = len(trace.times) + len(requests.times)
    assert 20 * len(requests.times) > 4 * n_events
    sim, result = run_both(trace, requests, config, factory)
    assert verdicts == [False]
    assert result.n_expired > 0


def test_small_expansion_blocks(monkeypatch):
    """Blocks smaller than one request's expansion still resolve every
    request exactly (each block then holds a single request)."""
    monkeypatch.setattr(static, "_BLOCK_ENTRIES", 7)
    verdicts = spy_static_kernel(monkeypatch)
    trace, requests, config, factory = dedicated_world(0.02)
    sim, result = run_both(trace, requests, config, factory)
    assert verdicts == [True]
    assert result.n_fulfilled > 0 and result.n_expired > 0
    # Only clients request: settle visits exactly those nodes.
    assert np.array_equal(
        sim._stream.requesting_nodes, np.unique(requests.nodes)
    )
    assert sim._stream.requesting_nodes[0] == 20


@pytest.mark.parametrize("rate", [0.0004, 0.05])
def test_both_pair_rank_lookups(rate, monkeypatch):
    """A sparse trace ranks pairs by binary search over the pair codes,
    a dense one through the direct table; both match the reference."""
    verdicts = spy_static_kernel(monkeypatch)
    n_nodes, n_items = 40, 6
    demand = DemandModel.pareto(n_items, omega=1.0, total_rate=0.5)
    trace = homogeneous_poisson_trace(n_nodes, rate, 300.0, seed=21)
    requests = generate_requests(demand, n_nodes, 300.0, seed=22)
    config = SimulationConfig(
        n_items=n_items, rho=1, utility=UTILITY, request_timeout=40.0
    )
    sim, result = run_both(
        trace, requests, config, lambda: uni_protocol(demand, n_nodes, 1)
    )
    assert verdicts == [True]
    _, ranks, _ = static.pair_index(sim._stream)
    dense = n_nodes * n_nodes <= len(trace.times)
    assert bool(len(ranks)) == dense
    assert result.n_fulfilled > 0


@pytest.mark.parametrize("timeout", [None, 15.0])
def test_static_runs_on_one_stream_match_fresh_streams(timeout, monkeypatch):
    """The kernel memoizes the request columns and every request's
    expiry on the stream.  Each static protocol run on one shared
    stream, whose memo earlier runs filled, gives the same delays,
    abandonment log, outstanding order and counts as on a fresh one."""
    verdicts = spy_static_kernel(monkeypatch)
    names = ("OPT", "SQRT", "PROP", "UNI", "DOM")
    scenario = homogeneous_scenario(
        UTILITY, n_nodes=20, n_items=10, rho=2, duration=400.0,
        record_interval=100.0,
    )
    config = dataclasses.replace(scenario.config, request_timeout=timeout)
    trace = scenario.trace_factory(31)
    requests = generate_requests(
        scenario.demand, trace.n_nodes, trace.duration, seed=32
    )
    factories = standard_protocols(scenario, include=names)
    shared = build_event_stream(trace, requests, config)
    expired = 0
    for name in names:
        (warm, warm_result), (fresh, fresh_result) = [
            (sim, sim.run())
            for sim in (
                Simulation(
                    trace, requests, config, factories[name](trace, requests),
                    seed=3, prebuilt_events=stream,
                )
                for stream in (
                    shared, build_event_stream(trace, requests, config)
                )
            )
        ]
        assert_bit_identical(warm_result, fresh_result)
        assert warm.metrics._abandon_log == fresh.metrics._abandon_log
        assert outstanding_order(warm) == outstanding_order(fresh)
        expired += warm_result.n_expired
    assert verdicts == [True] * 2 * len(names)
    assert (expired > 0) == (timeout is not None)
    assert (("expiries", timeout) in shared.memo) == (timeout is not None)


@pytest.mark.parametrize("n_nodes", [256, 257])
def test_pair_index_sorts_16_bit_codes_exactly(n_nodes):
    """Up to 256 nodes every pair code fits 16 bits and the index sorts
    them by radix.  At 257 the pair (255, 256) has code 65,791, which 16
    bits would alias to pair (0, 255)'s 255.  Both sides of the bound
    give the index an int64 sort gives."""
    rng = np.random.default_rng(n_nodes)
    top = n_nodes - 1
    pairs = np.array([(0, 255), (top - 1, top), (1, 2), (0, top)])
    pick = pairs[rng.integers(0, len(pairs), 400)]
    flip = rng.random(400) < 0.5
    trace = ContactTrace(
        times=np.sort(rng.uniform(0.0, 100.0, 400)),
        node_a=np.where(flip, pick[:, 1], pick[:, 0]),
        node_b=np.where(flip, pick[:, 0], pick[:, 1]),
        n_nodes=n_nodes,
        duration=100.0,
    )
    requests = RequestSchedule(
        times=np.array([50.0]),
        items=np.array([0]),
        nodes=np.array([0]),
        duration=100.0,
    )
    config = SimulationConfig(n_items=1, rho=1, utility=UTILITY)
    stream = build_event_stream(trace, requests, config)
    codes, _, keys = static.pair_index(stream)
    positions = np.flatnonzero(stream.event_kinds == 2)
    a = stream.event_a[positions]
    b = stream.event_b[positions]
    code = np.minimum(a, b) * n_nodes + np.maximum(a, b)
    expected_codes, rank = np.unique(code, return_inverse=True)
    order = np.lexsort((positions, code))
    assert np.array_equal(codes, expected_codes)
    assert np.array_equal(
        keys, rank[order] * stream.n_events + positions[order]
    )


def test_pair_keys_fit_int64_at_a_million_nodes():
    """Pair codes reach 10^12 at 10^6 nodes (no direct rank table
    there); dense ranks keep the pair keys below ``n_events ** 2`` and
    the first-contact search exact."""
    n_nodes = 10**6
    far = n_nodes - 1
    trace = ContactTrace(
        times=np.array([1.0, 2.0, 3.0, 4.0]),
        node_a=np.array([0, 5, far, 0]),
        node_b=np.array([far, far, 0, 5]),
        n_nodes=n_nodes,
        duration=10.0,
    )
    requests = RequestSchedule(
        times=np.array([0.5, 2.5, 3.5]),
        items=np.array([0, 0, 1]),
        nodes=np.array([0, 0, 0]),
        duration=10.0,
    )
    config = SimulationConfig(n_items=2, rho=1, utility=UTILITY)
    stream = build_event_stream(trace, requests, config)
    codes, ranks, keys = static.pair_index(stream)
    assert len(ranks) == 0
    assert codes.tolist() == [5, far, 5 * n_nodes + far]
    assert np.all(np.diff(keys) > 0)
    assert keys.max() < stream.n_events ** 2
    occupancy = np.zeros((n_nodes, 2), dtype=bool)
    occupancy[far, 0] = True
    occupancy[5, 1] = True
    positions = np.flatnonzero(stream.event_kinds == 1)
    first = static._first_holder_contacts(
        stream, occupancy, positions, np.zeros(3, dtype=np.int64),
        np.array([0, 0, 1]),
    )
    # Node 0 meets holder `far` at t=1 and t=3, holder 5 at t=4.
    assert stream.event_times[first].tolist() == [1.0, 3.0, 4.0]
