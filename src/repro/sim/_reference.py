"""Frozen pre-optimization engine, kept as the perf baseline.

:class:`ReferenceSimulation` preserves the event loop exactly as it was
before the hot-path optimization pass (head-of-stream merge with
per-``run()`` ``.tolist()`` conversions, per-event attribute lookups,
no hook-free fast path).  It exists for two reasons:

* the speed harness (``benchmarks/bench_speed.py``) times it against
  the optimized :class:`~repro.sim.engine.Simulation` so the engine
  speedup is *measured*, not asserted, and is tracked in
  ``BENCH_speed.json`` across PRs;
* the equivalence tests assert both engines produce bit-identical
  :class:`~repro.sim.metrics.SimulationResult` objects, which is the
  correctness contract of the optimization.

Do not "improve" this module: it is deliberately the slow version.
"""

from __future__ import annotations

import math

from ..errors import SimulationError
from .engine import Simulation
from .metrics import SimulationResult
from .node import NodeState, Request

__all__ = ["ReferenceSimulation"]


class ReferenceSimulation(Simulation):
    """The pre-optimization event loop on the current engine state."""

    def run(self) -> SimulationResult:
        """Process all events and return the collected metrics."""
        contact_times = self.trace.times.tolist()
        contact_a = self.trace.node_a.tolist()
        contact_b = self.trace.node_b.tolist()
        request_times = self.requests.times.tolist()
        request_items = self.requests.items.tolist()
        request_nodes = self.requests.nodes.tolist()

        record_interval = self.config.record_interval
        next_snapshot = 0.0 if record_interval is not None else math.inf

        ci, qi = 0, 0
        n_contacts, n_requests = len(contact_times), len(request_times)
        while ci < n_contacts or qi < n_requests:
            t_request = request_times[qi] if qi < n_requests else math.inf
            t_contact = contact_times[ci] if ci < n_contacts else math.inf
            take_request = t_request <= t_contact
            t = t_request if take_request else t_contact
            while t >= next_snapshot:
                self._take_snapshot(next_snapshot)
                next_snapshot += record_interval  # type: ignore[operator]
            if take_request:
                self._handle_request(
                    t, request_items[qi], request_nodes[qi]
                )
                qi += 1
            else:
                self._handle_contact(t, contact_a[ci], contact_b[ci])
                ci += 1
        while next_snapshot <= self.trace.duration:
            self._take_snapshot(next_snapshot)
            next_snapshot += record_interval  # type: ignore[operator]
        n_unfulfilled = self._settle_unfulfilled()
        return self.metrics.build_result(self.counts, n_unfulfilled)

    def _handle_request(self, t: float, item: int, node_id: int) -> None:
        node = self.nodes[node_id]
        self.metrics.record_generated()
        if node.is_server and node.cache is not None and item in node.cache:
            if self.config.self_request_policy == "skip":
                self.metrics.record_skipped_self()
                return
            h0 = self.config.utility.h0
            if not math.isfinite(h0):
                raise SimulationError(
                    f"{self.config.utility.name} has h(0+) = inf and node "
                    f"{node_id} requested item {item} it already caches; "
                    "use self_request_policy='skip' or a dedicated-node "
                    "scenario"
                )
            self.metrics.record_fulfillment(t, 0.0, h0, immediate=True)
            return
        node.add_request(Request(item, node_id, t))

    def _handle_contact(self, t: float, a: int, b: int) -> None:
        node_a = self.nodes[a]
        node_b = self.nodes[b]
        self._exchange(t, node_a, node_b)
        self._exchange(t, node_b, node_a)
        self.protocol.after_contact(self, t, node_a, node_b)

    def _exchange(
        self, t: float, requester: NodeState, provider: NodeState
    ) -> None:
        if not provider.is_server:
            return
        outstanding = requester.outstanding
        if not outstanding:
            return
        timeout = self.config.request_timeout
        if timeout is not None:
            self._expire_requests(requester, t - timeout)
            if not outstanding:
                return
        provider_cache = provider.cache
        assert provider_cache is not None
        utility = self.config.utility
        fulfilled = None
        for item, request_list in outstanding.items():
            for request in request_list:
                request.counter += 1
            if item in provider_cache:
                if fulfilled is None:
                    fulfilled = [item]
                else:
                    fulfilled.append(item)
        if fulfilled is None:
            return
        for item in fulfilled:
            for request in outstanding.pop(item):
                delay = t - request.created_at
                gain = float(utility(delay)) if delay > 0 else utility.h0
                if not math.isfinite(gain):
                    gain = 0.0
                self.metrics.record_fulfillment(t, delay, gain)
                self.protocol.on_fulfill(
                    self, t, requester, provider, item, request.counter
                )

    def _expire_requests(self, node: NodeState, deadline: float) -> None:
        utility = self.config.utility
        abandoned_gain = utility.gain_never
        credit = math.isfinite(abandoned_gain) and abandoned_gain != 0.0
        stale_items = None
        for item, request_list in node.outstanding.items():
            if any(r.created_at < deadline for r in request_list):
                if stale_items is None:
                    stale_items = [item]
                else:
                    stale_items.append(item)
        if stale_items is None:
            return
        for item in stale_items:
            request_list = node.outstanding[item]
            kept = [r for r in request_list if r.created_at >= deadline]
            expired = len(request_list) - len(kept)
            if credit:
                for _ in range(expired):
                    self.metrics.record_abandonment(deadline, abandoned_gain)
            self.metrics.n_expired += expired
            if kept:
                node.outstanding[item] = kept
            else:
                del node.outstanding[item]
