"""Engine semantics tests: fulfillment, counters, policies, snapshots.

These tests drive the simulator with hand-crafted traces and request
schedules so every gain and counter value can be verified by hand.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.contacts import ContactTrace, homogeneous_poisson_trace
from repro.demand import DemandModel, RequestSchedule, generate_requests
from repro.errors import ConfigurationError, SimulationError
from repro.obs import Tracer
from repro.obs import events as trace_events
from repro.protocols import StaticAllocation, dom_protocol
from repro.protocols.base import ReplicationProtocol
from repro.sim import Simulation, SimulationConfig, simulate
from repro.sim._reference import ReferenceSimulation
from repro.utility import PowerUtility, ShiftedUtility, StepUtility

from ._bitwise import (
    assert_bit_identical,
    outstanding_order,
    spy_static_kernel,
)


def trace_of(events, n_nodes=3, duration=100.0):
    if events:
        times, a, b = zip(*events)
    else:
        times, a, b = (), (), ()
    return ContactTrace(
        times=np.asarray(times, dtype=float),
        node_a=np.asarray(a, dtype=np.int64),
        node_b=np.asarray(b, dtype=np.int64),
        n_nodes=n_nodes,
        duration=duration,
    )


def requests_of(events, duration=100.0):
    if events:
        times, items, nodes = zip(*events)
    else:
        times, items, nodes = (), (), ()
    return RequestSchedule(
        times=np.asarray(times, dtype=float),
        items=np.asarray(items, dtype=np.int64),
        nodes=np.asarray(nodes, dtype=np.int64),
        duration=duration,
    )


def static_protocol(allocation):
    return StaticAllocation(allocation=np.asarray(allocation, dtype=np.int8))


def base_config(**overrides):
    defaults = dict(
        n_items=2, rho=1, utility=StepUtility(10.0), window_length=10.0
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestFulfillment:
    def test_single_fulfillment_gain(self):
        # Node 1 holds item 0; node 0 requests it at t=1, meets node 1 at t=4.
        allocation = [[0, 1, 0], [0, 0, 0]]
        trace = trace_of([(4.0, 0, 1)])
        requests = requests_of([(1.0, 0, 0)])
        result = simulate(
            trace, requests, base_config(), static_protocol(allocation), seed=1
        )
        assert result.n_fulfilled == 1
        assert result.total_gain == pytest.approx(1.0)  # 3 < tau
        assert result.mean_delay == pytest.approx(3.0)

    def test_gain_uses_age(self):
        allocation = [[0, 1, 0], [0, 0, 0]]
        trace = trace_of([(20.0, 0, 1)])
        requests = requests_of([(1.0, 0, 0)])
        config = base_config(utility=PowerUtility(0.0))  # h = -t
        result = simulate(
            trace, requests, config, static_protocol(allocation), seed=1
        )
        assert result.total_gain == pytest.approx(-19.0)

    def test_step_deadline_missed_gains_zero(self):
        allocation = [[0, 1, 0], [0, 0, 0]]
        trace = trace_of([(50.0, 0, 1)])
        requests = requests_of([(1.0, 0, 0)])
        result = simulate(
            trace, requests, base_config(), static_protocol(allocation), seed=1
        )
        assert result.n_fulfilled == 1
        assert result.total_gain == pytest.approx(0.0)

    def test_meeting_without_item_no_fulfillment(self):
        allocation = [[0, 0, 1], [0, 0, 0]]  # only node 2 has item 0
        trace = trace_of([(4.0, 0, 1)])
        requests = requests_of([(1.0, 0, 0)])
        result = simulate(
            trace, requests, base_config(), static_protocol(allocation), seed=1
        )
        assert result.n_fulfilled == 0
        assert result.n_unfulfilled == 1

    def test_both_directions_served(self):
        # Node 0 holds item 0, node 1 holds item 1; they request each
        # other's item and meet once.
        allocation = [[1, 0, 0], [0, 1, 0]]
        trace = trace_of([(5.0, 0, 1)])
        requests = requests_of([(1.0, 1, 0), (2.0, 0, 1)])
        result = simulate(
            trace, requests, base_config(), static_protocol(allocation), seed=1
        )
        assert result.n_fulfilled == 2

    def test_multiple_requests_same_item(self):
        allocation = [[0, 1, 0], [0, 0, 0]]
        trace = trace_of([(6.0, 0, 1)])
        requests = requests_of([(1.0, 0, 0), (2.0, 0, 0)])
        result = simulate(
            trace, requests, base_config(), static_protocol(allocation), seed=1
        )
        assert result.n_fulfilled == 2
        assert sorted(
            round(d, 6) for d in (result.mean_delay * 2 - 4.0, 4.0)
        )  # delays 5 and 4

    def test_window_gains(self):
        allocation = [[0, 1, 0], [0, 0, 0]]
        trace = trace_of([(35.0, 0, 1)])
        requests = requests_of([(30.0, 0, 0)])
        result = simulate(
            trace, requests, base_config(), static_protocol(allocation), seed=1
        )
        assert result.window_gains[3] == pytest.approx(1.0)
        assert result.window_gains[:3].sum() == 0.0

    def test_catalog_larger_than_node_set(self):
        # Request rows of the merged stream carry an item id where
        # contacts carry a node id; ids past the node range must not
        # break the meeting-count pass.
        allocation = [[0, 0, 0]] * 4 + [[0, 1, 0]]
        trace = trace_of([(4.0, 0, 1), (6.0, 2, 0)])
        requests = requests_of([(1.0, 4, 0), (2.0, 3, 2)])
        results = [
            cls(
                trace,
                requests,
                base_config(n_items=5),
                static_protocol(allocation),
                seed=1,
            ).run()
            for cls in (ReferenceSimulation, Simulation)
        ]
        assert_bit_identical(*results)
        assert results[1].n_fulfilled == 1
        assert results[1].n_unfulfilled == 1


class TestSelfRequests:
    def test_immediate_policy(self):
        allocation = [[1, 0, 0], [0, 0, 0]]
        trace = trace_of([])
        requests = requests_of([(1.0, 0, 0)])
        result = simulate(
            trace, requests, base_config(), static_protocol(allocation), seed=1
        )
        assert result.n_immediate == 1
        assert result.total_gain == pytest.approx(1.0)  # h(0+)

    def test_skip_policy(self):
        allocation = [[1, 0, 0], [0, 0, 0]]
        config = base_config(self_request_policy="skip")
        result = simulate(
            trace_of([]),
            requests_of([(1.0, 0, 0)]),
            config,
            static_protocol(allocation),
            seed=1,
        )
        assert result.n_skipped_self == 1
        assert result.total_gain == 0.0

    def test_immediate_with_infinite_h0_raises(self):
        allocation = [[1, 0, 0], [0, 0, 0]]
        config = base_config(utility=PowerUtility(1.5))
        with pytest.raises(SimulationError):
            simulate(
                trace_of([]),
                requests_of([(1.0, 0, 0)]),
                config,
                static_protocol(allocation),
                seed=1,
            )


class TestEndOfRun:
    def test_truncate_policy_credits_partial_cost(self):
        config = base_config(utility=PowerUtility(0.0))  # h = -t
        result = simulate(
            trace_of([], duration=50.0),
            requests_of([(10.0, 0, 0)], duration=50.0),
            config,
            static_protocol([[0, 0, 1], [0, 0, 0]]),
            seed=1,
        )
        assert result.n_unfulfilled == 1
        assert result.total_gain == pytest.approx(-40.0)

    def test_ignore_policy(self):
        config = base_config(
            utility=PowerUtility(0.0), unfulfilled_policy="ignore"
        )
        result = simulate(
            trace_of([], duration=50.0),
            requests_of([(10.0, 0, 0)], duration=50.0),
            config,
            static_protocol([[0, 0, 1], [0, 0, 0]]),
            seed=1,
        )
        assert result.total_gain == 0.0


class _RecordingReference(ReferenceSimulation):
    """The reference engine, logging each expiry as an ABANDON record."""

    def __init__(self, *args, **kwargs):
        self.abandoned = []
        super().__init__(*args, **kwargs)

    def _expire_requests(self, node, deadline):
        before = [
            (item, request)
            for item, request_list in node.outstanding.items()
            for request in request_list
        ]
        super()._expire_requests(node, deadline)
        for item, request in before:
            if request not in node.outstanding.get(item, ()):
                self.abandoned.append(
                    (deadline, item, node.node_id, request.created_at)
                )


# Expiry-floor edge cases: (contacts, requests, expected n_expired,
# expected n_fulfilled).  Timeout 20, item 0 cached at node
# 1 and item 1 at node 2; node 0 caches nothing and issues every
# request.
FLOOR_CASES = {
    # The oldest request (item 0, t=1) is fulfilled at t=8 after a scan
    # set the floor to 1, leaving the floor stale.  The next-oldest
    # (item 1, t=5) survives the t=22 scan (deadline 2) and must still
    # expire at t=26 (deadline 6), before node 2 could serve it.
    "stale_floor_after_fulfilment": (
        [(8.0, 0, 1), (22.0, 0, 1), (26.0, 0, 2)],
        [(1.0, 0, 0), (5.0, 1, 0)],
        1,
        1,
    ),
    # Expiry empties the backlog at t=30.  A request created at the
    # exact instant of the t=35 contact (requests precede contacts at
    # equal times) survives the t=55 contact, whose deadline equals its
    # creation time, and expires at t=56 before node 1 can serve it.
    "request_at_contact_after_emptied_backlog": (
        [(30.0, 0, 2), (35.0, 0, 2), (55.0, 0, 2), (56.0, 0, 1)],
        [(1.0, 0, 0), (35.0, 0, 0)],
        2,
        0,
    ),
}


#: A bare step takes the inlined step-utility fulfil path; a shifted
#: one takes the generic path and credits every expiry, so its instant
#: shows in the window series and the total gain.
FLOOR_UTILITIES = {
    "step": StepUtility(10.0),
    "shifted_step": ShiftedUtility(StepUtility(10.0), -0.5),
}


def run_floor_case(cls, name, utility, tracer=None):
    contacts, requests, _, _ = FLOOR_CASES[name]
    sim = cls(
        trace_of(contacts),
        requests_of(requests),
        base_config(request_timeout=20.0, utility=utility),
        static_protocol([[0, 1, 0], [0, 0, 1]]),
        seed=1,
        tracer=tracer,
    )
    return sim, sim.run()


class TestTimeout:
    def test_expired_requests_dropped(self):
        # Request at t=1; node 1 (with the item) met only at t=50,
        # after the 20-unit timeout has passed (purge happens on the
        # earlier t=30 meeting with empty-handed node 2).
        allocation = [[0, 1, 0], [0, 0, 0]]
        config = base_config(request_timeout=20.0)
        trace = trace_of([(30.0, 0, 2), (50.0, 0, 1)])
        requests = requests_of([(1.0, 0, 0)])
        result = simulate(
            trace, requests, config, static_protocol(allocation), seed=1
        )
        assert result.n_expired == 1
        assert result.n_fulfilled == 0

    def test_fresh_requests_kept(self):
        allocation = [[0, 1, 0], [0, 0, 0]]
        config = base_config(request_timeout=20.0)
        trace = trace_of([(5.0, 0, 2), (8.0, 0, 1)])
        requests = requests_of([(1.0, 0, 0)])
        result = simulate(
            trace, requests, config, static_protocol(allocation), seed=1
        )
        assert result.n_expired == 0
        assert result.n_fulfilled == 1

    @pytest.mark.parametrize("utility", sorted(FLOOR_UTILITIES))
    @pytest.mark.parametrize("name", sorted(FLOOR_CASES))
    def test_expiry_floor_edge_cases(self, name, utility):
        *_, n_expired, n_fulfilled = FLOOR_CASES[name]
        utility = FLOOR_UTILITIES[utility]
        _, expected = run_floor_case(ReferenceSimulation, name, utility)
        _, actual = run_floor_case(Simulation, name, utility)
        assert_bit_identical(expected, actual)
        assert actual.n_expired == n_expired
        assert actual.n_fulfilled == n_fulfilled

    @pytest.mark.parametrize("utility", sorted(FLOOR_UTILITIES))
    @pytest.mark.parametrize("name", sorted(FLOOR_CASES))
    def test_expiry_floor_edge_cases_traced(self, name, utility, tmp_path):
        utility = FLOOR_UTILITIES[utility]
        reference, expected = run_floor_case(
            _RecordingReference, name, utility
        )
        path = tmp_path / "trace.jsonl"
        with Tracer.to_jsonl(str(path)) as tracer:
            _, actual = run_floor_case(Simulation, name, utility, tracer)
        assert_bit_identical(expected, actual)
        with open(path, "r", encoding="utf-8") as handle:
            abandoned = [
                (e["t"], e["item"], e["node"], e["created_at"])
                for e in map(json.loads, handle)
                if e["kind"] == trace_events.ABANDON
            ]
        assert abandoned == reference.abandoned
        assert len(abandoned) == FLOOR_CASES[name][2]

    @pytest.mark.parametrize("mode", ["plain", "traced"])
    def test_scan_count_bounded_by_requests(self, mode, monkeypatch):
        """Expiry scans scale with requests, not with contacts.

        Each scan either expires a request or follows one event that
        left the node's expiry floor stale: the initial ``-inf``, a
        fulfilment of its oldest request, or an emptied backlog.
        Rescanning the backlog on every server contact takes about 10k
        scans on this run, four times the bound.
        """
        n_nodes, n_items, rho, tau = 16, 16, 2, 5.0
        demand = DemandModel.pareto(n_items, omega=1.0, total_rate=1.0)
        trace = homogeneous_poisson_trace(n_nodes, 0.05, 1000.0, seed=1)
        requests = generate_requests(demand, n_nodes, 1000.0, seed=2)
        config = SimulationConfig(
            n_items=n_items,
            rho=rho,
            utility=StepUtility(tau),
            request_timeout=10 * tau,
        )
        scans = []
        expire = Simulation._expire_requests

        def counting(sim, node, deadline):
            scans.append(node.node_id)
            expire(sim, node, deadline)

        monkeypatch.setattr(Simulation, "_expire_requests", counting)
        result = Simulation(
            trace,
            requests,
            config,
            dom_protocol(demand, n_nodes, rho),
            seed=3,
            tracer=Tracer.in_memory() if mode == "traced" else None,
        ).run()
        assert result.n_expired > 0
        assert len(scans) <= (
            2 * result.n_generated + result.n_fulfilled + n_nodes
        )


class TestParkedRequests:
    """Requests for items with no copy anywhere, under a static
    allocation, are resolved in closed form by the static kernel: they
    wait in ``outstanding`` until they expire or the horizon, in the
    dict order the plain loop leaves."""

    def run_both(self, monkeypatch, trace, requests, config, allocation):
        verdicts = spy_static_kernel(monkeypatch)
        sims = [
            cls(trace, requests, config, static_protocol(allocation), seed=1)
            for cls in (ReferenceSimulation, Simulation)
        ]
        results = [sim.run() for sim in sims]
        assert verdicts == [True]
        assert_bit_identical(*results)
        return sims, results[1]

    def test_settle_restores_dict_order_on_ties(self, monkeypatch):
        # Items 0 and 1 live at nodes 1 and 2; items 2 and 3 nowhere.
        # Node 0's live item 0 is served at t=3 and re-requested at
        # t=4, after parked item 2; at t=5 a parked and a live key are
        # created at the same instant, as at node 2 at t=6 in the
        # opposite schedule order.  Ties keep schedule position.
        allocation = [[0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]
        trace = trace_of([(3.0, 0, 1)])
        requests = requests_of(
            [
                (1.0, 0, 0),
                (2.0, 2, 0),
                (4.0, 0, 0),
                (5.0, 3, 0),
                (5.0, 1, 0),
                (6.0, 0, 2),
                (6.0, 3, 2),
            ]
        )
        config = base_config(n_items=4, utility=PowerUtility(0.0))
        (reference, sim), result = self.run_both(
            monkeypatch, trace, requests, config, allocation
        )
        assert outstanding_order(sim) == outstanding_order(reference)
        assert [list(node.outstanding) for node in sim.nodes] == [
            [2, 0, 3, 1],
            [],
            [0, 3],
        ]
        assert result.n_unfulfilled == 6

    def test_expiry_uses_last_server_contact(self, monkeypatch):
        # Node 0 is a pure client; its last server contact (t=16) sets
        # the deadline 6.0: the t=5 request expires, the one created
        # exactly at the deadline survives, and a later contact with
        # the non-server node 3 expires nothing.  Node 3 never meets a
        # server, so its request survives untouched.
        allocation = [[1, 0], [0, 0]]
        trace = trace_of([(16.0, 0, 1), (40.0, 0, 3)], n_nodes=4)
        requests = requests_of(
            [(1.0, 1, 3), (5.0, 1, 0), (6.0, 1, 0), (6.5, 1, 0)]
        )
        config = base_config(
            servers=(1, 2), clients=(0, 3), request_timeout=10.0
        )
        (reference, sim), result = self.run_both(
            monkeypatch, trace, requests, config, allocation
        )
        assert outstanding_order(sim) == outstanding_order(reference)
        assert outstanding_order(sim)[0] == [(1, [6.0, 6.5])]
        assert outstanding_order(sim)[3] == [(1, [1.0])]
        assert result.n_expired == 1
        assert result.n_unfulfilled == 3

    def test_last_server_contact_found_behind_many_blocks(
        self, monkeypatch
    ):
        # Node 0's only server contact (t=1) precedes 6,000 contacts
        # between the servers, none of which expires anything at node 0:
        # the t=0.5 request expires at t=1, the t=1.5 one (created after
        # that contact) survives.
        allocation = [[1, 0], [0, 0]]
        later = [(2.0 + 0.01 * k, 1, 2) for k in range(6000)]
        trace = trace_of([(1.0, 0, 1)] + later, duration=100.0)
        requests = requests_of([(0.5, 1, 0), (1.5, 1, 0)])
        config = base_config(
            servers=(1, 2), clients=(0,), request_timeout=0.4
        )
        (reference, sim), result = self.run_both(
            monkeypatch, trace, requests, config, allocation
        )
        assert outstanding_order(sim) == outstanding_order(reference)
        assert outstanding_order(sim)[0] == [(1, [1.5])]
        assert result.n_expired == 1


class TestSnapshotsAndCounts:
    def test_snapshots_recorded(self):
        allocation = [[0, 1, 0], [1, 0, 0]]
        config = base_config(record_interval=25.0, track_items=(0,))
        result = simulate(
            trace_of([]),
            requests_of([]),
            config,
            static_protocol(allocation),
            seed=1,
        )
        assert len(result.snapshot_times) == 5  # t = 0, 25, 50, 75, 100
        assert np.all(result.snapshot_counts == [1, 1])
        assert result.snapshot_tracked.shape == (5, 1)

    def test_static_allocation_never_changes(self, small_trace, small_requests, small_demand):
        from repro.allocation import place_copies

        counts = np.array([2, 2, 2, 1, 1, 1, 1, 0], dtype=np.int64)
        allocation = place_copies(counts, 10, 2, seed=3)
        config = SimulationConfig(
            n_items=8, rho=2, utility=StepUtility(5.0), record_interval=50.0
        )
        result = simulate(
            small_trace,
            small_requests,
            config,
            static_protocol(allocation),
            seed=4,
        )
        assert np.all(result.final_counts == counts)
        assert np.all(result.snapshot_counts == counts)


class TestValidation:
    def test_requests_beyond_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate(
                trace_of([], duration=10.0),
                requests_of([(5.0, 0, 0)], duration=50.0),
                base_config(),
                static_protocol([[0, 0, 0], [0, 0, 0]]),
            )

    def test_protocol_must_initialize(self):
        class Lazy(ReplicationProtocol):
            name = "lazy"

            def initialize(self, sim):
                pass  # never sets an allocation

        with pytest.raises(SimulationError):
            Simulation(
                trace_of([]), requests_of([]), base_config(), Lazy()
            )

    def test_non_client_requests_rejected(self):
        config = base_config(clients=(0,))
        with pytest.raises(ConfigurationError, match="non-client node ids"):
            simulate(
                trace_of([]),
                requests_of([(1.0, 0, 0), (1.0, 0, 2)]),
                config,
                static_protocol([[0, 0, 0], [0, 0, 0]]),
            )

    @pytest.mark.parametrize("node", [-1, 3], ids=["negative", "past-last"])
    def test_out_of_range_request_nodes_rejected(self, node):
        with pytest.raises(ConfigurationError, match="non-client node ids"):
            simulate(
                trace_of([]),  # 3 nodes, every one a client
                requests_of([(1.0, 0, 1), (2.0, 1, node)]),
                base_config(),
                static_protocol([[0, 0, 0], [0, 0, 0]]),
            )

    def test_overfull_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate(
                trace_of([]),
                requests_of([]),
                base_config(rho=1),
                static_protocol([[1, 0, 0], [1, 0, 0]]),  # node 0 has 2 > rho
            )


class TestDeterminism:
    def test_same_seed_same_result(self, small_trace, small_requests):
        from repro.protocols import QCR

        config = SimulationConfig(n_items=8, rho=2, utility=StepUtility(5.0))
        a = simulate(
            small_trace, small_requests, config, QCR(config.utility, 0.1), seed=9
        )
        b = simulate(
            small_trace, small_requests, config, QCR(config.utility, 0.1), seed=9
        )
        assert a.total_gain == b.total_gain
        assert np.array_equal(a.final_counts, b.final_counts)

    def test_dedicated_servers_only_serve(self):
        """Clients that are not servers never store content."""
        from repro.protocols import QCR

        config = SimulationConfig(
            n_items=2,
            rho=2,
            utility=StepUtility(10.0),
            servers=(0,),
            clients=(1, 2),
        )
        trace = trace_of([(1.0, 0, 1), (2.0, 1, 2), (3.0, 0, 2)])
        requests = requests_of([(0.5, 0, 1), (0.5, 1, 2)])
        sim = Simulation(trace, requests, config, QCR(config.utility, 0.1), seed=2)
        result = sim.run()
        assert sim.nodes[1].cache is None
        assert sim.nodes[2].cache is None
        assert result.n_fulfilled == 2  # both served by node 0
