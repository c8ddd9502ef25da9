"""The discrete-event simulator.

Replays a contact trace against a request schedule and a replication
protocol, implementing the semantics of the paper's Section 6.1:

* on every contact the two nodes exchange metadata; every outstanding
  request of either node that the other's cache can satisfy is fulfilled,
  crediting the delay-utility ``h(age)``;
* every outstanding request's query counter increments once per meeting
  with a server (the fulfilling meeting included);
* protocol hooks run after fulfillment (mandate creation for QCR) and at
  the end of the contact (mandate execution and routing);
* requests for items a node itself caches are fulfilled immediately with
  gain ``h(0+)`` (configurable, see
  :class:`~repro.sim.config.SimulationConfig`).

The engine never decides replication itself — static allocations simply do
nothing in the hooks — so every algorithm of Section 6 runs on identical
machinery and identical randomness.
"""

from __future__ import annotations

import math
from typing import (
    AbstractSet,
    Dict,
    List,
    Optional,
)

import numpy as np

#: Version of the engine's observable semantics, keyed into the
#: content-addressed run cache (:mod:`repro.simcache`).  Bump whenever a
#: change could alter simulation *results* — cached entries from older
#: versions then stop matching and are recomputed.  Pure speedups that
#: keep bit-identity (the contract enforced against ``sim/_reference``)
#: do not require a bump.  Trace OPT runs are keyed by their allocation
#: problem, not the solved allocation, so the solver has its own version
#: under the same rule: bump
#: :data:`repro.allocation.submodular.GREEDY_CODE_VERSION` whenever a
#: change could alter an allocation ``greedy_heterogeneous`` returns.
#: Sweeps over the scenario trace recipes key each trial's trace by the
#: recipe and seed, not the realized contacts, so the generators follow
#: the same rule too: bump :data:`repro.contacts.TRACE_CODE_VERSION`
#: whenever a change could alter a trace a generator realizes.
ENGINE_CODE_VERSION = "2026.08-array-core-1"

from ..contacts import ContactTrace
from ..demand import RequestSchedule
from ..errors import ConfigurationError, SimulationError
from ..obs import events as trace_events
from ..obs.manifest import RunManifest
from ..obs.timing import Stopwatch
from ..obs.tracer import Tracer
from ..protocols.base import ReplicationProtocol
from ..types import FloatArray, IntArray, SeedLike, as_rng
from .config import SimulationConfig
from .events import EventStream, build_event_stream
from .metrics import MetricsCollector, SimulationResult
from .node import NodeState, Request
from .static import run_static

__all__ = ["Simulation", "simulate"]


class Simulation:
    """One simulation run binding trace, demand, config, and protocol."""

    __slots__ = (
        "trace",
        "requests",
        "config",
        "protocol",
        "rng",
        "server_ids",
        "client_ids",
        "nodes",
        "server_position",
        "counts",
        "occupancy",
        "sticky_owner",
        "_initialized",
        "tracer",
        "_phase_timer",
        "_collect_manifest",
        "_seed_value",
        "_now",
        "metrics",
        "_utility",
        "_h0",
        "_h0_finite",
        "_timeout",
        "_skip_self",
        "_abandoned_gain",
        "_credit_abandoned",
        "_hook_free_contact",
        "_hook_free_fulfill",
        "_payload_needed",
        "_stream",
        "_outstanding_tbl",
        "_expiry_floor",
        "_cache_tbl",
        "_is_server_tbl",
        "_mandates_tbl",
        "_contact_hook_idle",
    )

    def __init__(
        self,
        trace: ContactTrace,
        requests: RequestSchedule,
        config: SimulationConfig,
        protocol: ReplicationProtocol,
        seed: SeedLike = None,
        tracer: Optional[Tracer] = None,
        collect_manifest: bool = False,
        prebuilt_events: Optional[EventStream] = None,
    ) -> None:
        if requests.duration > trace.duration + 1e-9:
            raise ConfigurationError(
                "request schedule extends past the contact trace"
            )
        self.trace = trace
        self.requests = requests
        self.config = config
        self.protocol = protocol
        self.rng = as_rng(seed)

        n_nodes = trace.n_nodes
        self.server_ids = config.server_ids(n_nodes)
        self.client_ids = config.client_ids(n_nodes)
        server_set = set(int(m) for m in self.server_ids)
        client_set = set(int(n) for n in self.client_ids)
        request_nodes = requests.nodes
        if len(request_nodes):
            is_client = np.zeros(n_nodes, dtype=bool)
            is_client[self.client_ids] = True
            if (
                request_nodes.min() < 0
                or request_nodes.max() >= n_nodes
                or not is_client[request_nodes].all()
            ):
                raise ConfigurationError(
                    "request schedule contains non-client node ids"
                )

        self.nodes: List[NodeState] = [
            NodeState(
                node_id,
                is_server=node_id in server_set,
                is_client=node_id in client_set,
                capacity=config.rho,
            )
            for node_id in range(n_nodes)
        ]
        #: Server node id -> column position in allocation matrices.
        self.server_position = {
            int(node): pos for pos, node in enumerate(self.server_ids)
        }
        self.counts = np.zeros(config.n_items, dtype=np.int64)
        #: Boolean ``(n_nodes, n_items)`` cache-occupancy matrix — the
        #: array view of every server cache, kept consistent with the
        #: per-cache sets by :meth:`set_initial_allocation`,
        #: :meth:`insert_copy`, and :meth:`remove_copy` (all cache
        #: mutation funnels through those three).  ``counts`` is its
        #: column sum; batch analyses read it instead of walking caches.
        self.occupancy = np.zeros((n_nodes, config.n_items), dtype=bool)
        self.sticky_owner: Optional[IntArray] = None
        self._initialized = False
        # Tracing: an inactive tracer (NullSink) resolves to None, and
        # run() then selects a plain loop with no emission sites at
        # all.  Traced runs take the instrumented loop, whose emission
        # sites — like those outside the loops (replication and
        # settlement) — are guarded inline.
        self.tracer: Optional[Tracer] = (
            tracer if tracer is not None and tracer.active else None
        )
        self._collect_manifest = collect_manifest or self.tracer is not None
        #: Phase timing breakdown for the manifest (None ⇒ not collected).
        self._phase_timer: Optional[Stopwatch] = (
            Stopwatch() if self._collect_manifest else None
        )
        self._seed_value: Optional[int] = (
            int(seed) if isinstance(seed, (int, np.integer)) else None
        )
        #: Simulated time of the event being processed; maintained by the
        #: instrumented loop on traced runs so replication events
        #: emitted from inside protocol hooks carry the right timestamp.
        self._now = 0.0
        if self.tracer is not None:
            self.tracer.emit(
                trace_events.RUN_START,
                0.0,
                n_nodes=n_nodes,
                n_items=config.n_items,
                duration=trace.duration,
                protocol=protocol.name,
            )
        self.metrics = MetricsCollector(
            duration=trace.duration,
            n_items=config.n_items,
            window_length=config.window_length,
            record_interval=config.record_interval,
            track_items=config.track_items,
        )
        protocol.initialize(self)
        if not self._initialized:
            raise SimulationError(
                f"protocol {protocol.name!r} did not set an initial allocation"
            )

        # Hot-path constants, resolved once per run instead of per event.
        utility = config.utility
        self._utility = utility
        self._h0 = utility.h0
        self._h0_finite = math.isfinite(utility.h0)
        self._timeout = config.request_timeout
        self._skip_self = config.self_request_policy == "skip"
        gain_never = utility.gain_never
        self._abandoned_gain = gain_never
        self._credit_abandoned = (
            math.isfinite(gain_never) and gain_never != 0.0
        )
        # Protocols that never override the contact/fulfill hooks (static
        # allocations, passive replication) let the engine skip the hook
        # dispatch — and, when neither endpoint has outstanding requests,
        # the whole exchange.
        cls = type(protocol)
        self._hook_free_contact = (
            cls.after_contact is ReplicationProtocol.after_contact
        )
        self._hook_free_fulfill = (
            cls.on_fulfill is ReplicationProtocol.on_fulfill
        )
        # Flat per-node state tables, indexed by node id.  All alias
        # live structures — NodeState.outstanding/mandates dicts and the
        # caches' backing sets (Cache.live_view() identity is stable) —
        # so the hot loops skip the NodeState attribute walk entirely
        # while every protocol-facing API still sees the same state.
        # Non-servers get one shared (immutable) empty set so membership
        # tests need no None branch.
        self._outstanding_tbl: List[Dict[int, List[Request]]] = [
            node.outstanding for node in self.nodes
        ]
        # Expiry floor: a lower bound on the creation time of each
        # node's outstanding requests.  Requests enter in time order and
        # fulfilment and hooks only remove them, so the bound
        # survives every insertion site untouched; a scan is due only
        # when ``floor < t - timeout`` (see _expire_requests).
        self._expiry_floor: List[float] = [-math.inf] * n_nodes
        empty: AbstractSet[int] = frozenset()
        self._cache_tbl: List[AbstractSet[int]] = [
            node.cache.live_view() if node.cache is not None else empty
            for node in self.nodes
        ]
        self._is_server_tbl: List[bool] = [
            node.is_server for node in self.nodes
        ]
        self._mandates_tbl: List[Dict[int, int]] = [
            node.mandates for node in self.nodes
        ]
        # Protocols promising an idle after_contact() without mandates
        # (QCR family) let the engine skip the hook dispatch entirely on
        # mandate-free contacts — by far the common case.
        self._contact_hook_idle = protocol.contact_hook_idle_without_mandates
        if self._phase_timer is not None:
            with self._phase_timer.section("merge"):
                self._build_event_stream(prebuilt_events)
        else:
            self._build_event_stream(prebuilt_events)

    def _build_event_stream(self, prebuilt: Optional[EventStream]) -> None:
        """Install this run's merged event stream.

        The stream — contacts and requests interleaved by one stable
        ``np.lexsort`` on ``(time, kind)``, preserving the
        request -> contact same-time tie rule — is a pure function of
        ``(trace, requests, config)`` and lives in
        :mod:`repro.sim.events`.  A *prebuilt* stream
        (``prebuilt_events=``) is validated by :meth:`_check_prebuilt`
        to belong to this very run's objects before being trusted —
        this is how a sweep merges once per trial instead of once per
        protocol.  Otherwise the run builds its own, byte-for-byte the
        same.
        """
        self._payload_needed = self.tracer is None
        if prebuilt is not None:
            self._check_prebuilt(prebuilt)
            stream = prebuilt
        else:
            stream = build_event_stream(
                self.trace,
                self.requests,
                self.config,
                payloads=self._payload_needed,
            )
        #: The stream and its side state (requesting nodes, all-servers
        #: flag); the static kernel builds its indexes on it
        #: once and reuses them.
        self._stream = stream

    def _check_prebuilt(self, stream: EventStream) -> None:
        """A prebuilt stream is only trusted for this very run.

        Identity — not equality — is required for the trace and
        request objects: the stream's arrays index directly into
        them, and identity is exactly what the sweep runner's
        trial-scoped sharing provides.  The config check goes through
        the fingerprint so distinct-but-equivalent config objects (the
        common case across a sweep's protocol factories) are accepted.
        """
        if stream.trace is not self.trace:
            raise ConfigurationError(
                "prebuilt_events was built from a different contact trace"
            )
        if stream.requests is not self.requests:
            raise ConfigurationError(
                "prebuilt_events was built from a different request schedule"
            )
        if stream.config_fingerprint != self.config.fingerprint():
            raise ConfigurationError(
                "prebuilt_events was built under a different configuration"
            )
        if self._payload_needed and not stream.payload_mode:
            raise ConfigurationError(
                "prebuilt_events lacks the plain-mode payload columns "
                "this untraced run consumes"
            )

    # ------------------------------------------------------------------
    # state manipulation (protocol-facing API)
    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return len(self.server_ids)

    def set_initial_allocation(
        self,
        allocation: IntArray,
        sticky_owner: Optional[IntArray] = None,
    ) -> None:
        """Load the initial caches from a binary allocation matrix.

        *allocation* has shape ``(n_items, n_servers)`` with columns in
        ``self.server_ids`` order; *sticky_owner*, when given, maps each
        item to the server node id holding its never-evicted replica (that
        server must hold the item in *allocation*).
        """
        if self._initialized:
            raise SimulationError("initial allocation already set")
        allocation = np.asarray(allocation)
        expected = (self.config.n_items, self.n_servers)
        if allocation.shape != expected:
            raise ConfigurationError(
                f"allocation shape {allocation.shape} != {expected}"
            )
        if not np.isin(allocation, (0, 1)).all():
            raise ConfigurationError("allocation must be binary")
        if np.any(allocation.sum(axis=0) > self.config.rho):
            raise ConfigurationError("allocation overfills a server cache")
        if sticky_owner is not None:
            sticky_owner = np.asarray(sticky_owner, dtype=np.int64)
            if sticky_owner.shape != (self.config.n_items,):
                raise ConfigurationError(
                    "sticky_owner must map every item to a server"
                )
            for item, owner in enumerate(sticky_owner):
                pos = self.server_position.get(int(owner))
                if pos is None or not allocation[item, pos]:
                    raise ConfigurationError(
                        f"sticky owner of item {item} does not hold a copy"
                    )
        # Pin sticky items first so pinning cannot hit a full cache.
        if sticky_owner is not None:
            for item, owner in enumerate(sticky_owner):
                cache = self.nodes[int(owner)].cache
                assert cache is not None
                cache.pin(item)
        for pos, node_id in enumerate(self.server_ids):
            cache = self.nodes[int(node_id)].cache
            assert cache is not None
            for item in np.where(allocation[:, pos])[0]:
                cache.add(int(item))
        self.counts = allocation.sum(axis=1).astype(np.int64)
        for pos, node_id in enumerate(self.server_ids):
            self.occupancy[int(node_id)] = allocation[:, pos] != 0
        self.sticky_owner = sticky_owner
        self._initialized = True
        if self.tracer is not None:
            self.tracer.emit(
                trace_events.ALLOC,
                self._now,
                counts=[int(c) for c in self.counts],
            )

    def insert_copy(self, node: NodeState, item: int) -> bool:
        """Insert a replica of *item* at *node*, evicting randomly.

        Returns True when the cache now holds a new copy of *item*;
        False when the node is not a server, already holds it, or every
        slot is pinned.  Replica accounting is updated for both the
        insertion and any eviction.
        """
        cache = node.cache
        if cache is None:
            return False
        # Membership and size on the cache's live set, without a Cache
        # method call each; ``Cache.insert`` keeps the policy.
        held = cache.live_view()
        if item in held:
            return False
        before = len(held)
        victim = cache.insert(item, self.rng)
        if item not in held:
            return False  # refused: all slots sticky
        self.counts[item] += 1
        occupancy_row = self.occupancy[node.node_id]
        occupancy_row[item] = True
        if victim is not None:
            self.counts[victim] -= 1
            occupancy_row[victim] = False
        elif len(held) == before:  # pragma: no cover - defensive
            raise SimulationError("cache bookkeeping out of sync")
        if self.tracer is not None:
            self.tracer.emit(
                trace_events.REPLICA_ADD,
                self._now,
                node=node.node_id,
                item=int(item),
                evicted=None if victim is None else int(victim),
            )
        return True

    def remove_copy(self, node: NodeState, item: int) -> bool:
        """Remove a (non-sticky) replica, keeping the counts consistent.

        Not used by any shipped protocol; part of the protocol-facing
        mutation API beside :meth:`insert_copy`.
        """
        cache = node.cache
        if cache is None or not cache.discard(item):
            return False
        self.counts[item] -= 1
        self.occupancy[node.node_id, item] = False
        if self.tracer is not None:
            self.tracer.emit(
                trace_events.REPLICA_DROP,
                self._now,
                node=node.node_id,
                item=int(item),
            )
        return True

    def sticky_node_of(self, item: int) -> int:
        """Node id of the item's sticky replica, or ``-1`` if none."""
        if self.sticky_owner is None:
            return -1
        return int(self.sticky_owner[item])

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Process all events and return the collected metrics."""
        timer = Stopwatch() if self._collect_manifest else None
        phases = self._phase_timer
        # Loop specialization instead of per-event branching: untraced
        # runs take a fully inlined plain loop (no tracer tests at all);
        # tracing takes the instrumented loop, which adds exactly those
        # tests back.  Every loop consumes the same pre-chunked event
        # stream, so snapshot instants and event order are identical by
        # construction.
        if phases is None:
            self._run_dispatch()
            n_unfulfilled = self._settle_unfulfilled()
        else:
            with phases.section("run"):
                self._run_dispatch()
            with phases.section("settle"):
                n_unfulfilled = self._settle_unfulfilled()
        manifest = None
        if timer is not None:
            timer.stop()
            assert phases is not None  # created together in __init__
            manifest = RunManifest(
                config_fingerprint=self.config.fingerprint(),
                seed=self._seed_value,
                protocol=self.protocol.name,
                wall_s=timer.wall,
                cpu_s=timer.cpu,
                n_events=self._stream.n_events,
                phases=dict(phases.sections),
                metrics=self._metrics_snapshot(n_unfulfilled),
            ).to_dict()
        result = self.metrics.build_result(
            self.counts, n_unfulfilled, manifest=manifest
        )
        if self.tracer is not None:
            summary = {
                key: (value if math.isfinite(value) else None)
                for key, value in result.summary().items()
            }
            self.tracer.emit(
                trace_events.RUN_END, self.trace.duration, summary=summary
            )
            self.tracer.flush()
        return result

    def _run_dispatch(self) -> None:
        """Select and run the event loop for this run, then credit its
        gains.

        Tracing takes the instrumented loop.  Otherwise a
        protocol with neither contact nor fulfil hooks keeps its caches
        static, and :meth:`_run_static` resolves the run in closed form
        where it can; everything else takes the segmented plain loop.
        Every path only logs fulfilments and credited abandonments: the
        gains are evaluated in one vectorized utility call afterwards
        and folded in log order (see
        :meth:`MetricsCollector.fold_fulfillments`).
        """
        if self.tracer is not None:
            self._run_traced()
        elif not self._run_static():
            self._run_plain()
        metrics = self.metrics
        metrics.fold_fulfillments(
            self._gains(np.asarray(metrics.delays, dtype=float))
        )

    def _run_static(self) -> bool:
        """The closed-form static kernel
        (:func:`repro.sim.static.run_static`), where it applies and pays.
        """
        if not (self._hook_free_contact and self._hook_free_fulfill):
            return False
        return run_static(self, self._stream)

    def _gains(self, delays: FloatArray) -> FloatArray:
        """The gain of a fulfilment after each of *delays*: ``h(delay)``,
        ``h(0+)`` at delay zero (an immediate fulfilment or a request
        and a contact at the same instant), and 0 where not finite.

        One array evaluation stands for the per-fulfilment scalar calls
        it replaces: every :class:`~repro.utility.DelayUtility` gives
        bit-identical results either way (its ``__call__`` contract).
        """
        gains = np.full(len(delays), self._h0)
        positive = delays > 0
        gains[positive] = self._utility(delays[positive])
        gains[~np.isfinite(gains)] = 0.0
        return gains

    def _metrics_snapshot(self, n_unfulfilled: int) -> Dict[str, object]:
        """The manifest's embedded metrics snapshot (counters only).

        Always built from the :class:`MetricsCollector` aggregates when
        a manifest is collected, so every manifest answers "how much
        work did this run do" without a rerun.
        """
        m = self.metrics
        return {
            "n_events": self._stream.n_events,
            "n_generated": m.n_generated,
            "n_fulfilled": m.n_fulfilled,
            "n_immediate": m.n_immediate,
            "n_skipped_self": m.n_skipped_self,
            "n_expired": m.n_expired,
            "n_unfulfilled": n_unfulfilled,
            "total_gain": m.total_gain,
            "final_replicas": int(self.counts.sum()),
        }

    # ------------------------------------------------------------------
    # event loops
    #
    # Two loops over the pre-chunked stream, selected once per run by
    # _run_dispatch when the static kernel does not apply: the
    # segmented plain loop (untraced) and the instrumented loop
    # (traced).  The plain loop inlines
    # request bookkeeping and skips exchanges whose early-return guards
    # (non-server provider, empty outstanding table) are visible from
    # the flat state tables — those guards touch no state and no RNG,
    # so eliding the exchange is bit-identical.  The equivalence tests
    # in tests/sim/ compare every path against sim/_reference.py.
    # ------------------------------------------------------------------
    def _run_plain(self) -> None:
        """Untraced: the sweep path.

        Consumes the widened columnar layout: contacts carry each
        endpoint's precomputed inclusive server-meeting count (``-1``
        when that direction's provider is not a server), requests carry
        the node's count at creation (stashed in ``Request.counter``
        and turned into the final query counter by subtraction at
        fulfillment — see ``_fulfill_hits``).  Each chunk's request
        positions are precomputed, so the inner contact runs carry no
        per-event kind test and read the time and payload columns only
        when a direction can actually matter.

        The contact-hook mode is fixed once per run:

        * no contact hook (static allocations, passive replication):
          the after-contact block is never entered;
        * an idle mandate-free hook whose mutations stay on the hook's
          own nodes (``mandates_touch_only_hook_nodes``, QCR without
          ``adaptive_mu``): a running count of mandate-holding nodes
          gates the block.  While the count is zero and neither
          endpoint has outstanding requests — QCR's common steady
          state — the contact provably touches no state and is skipped
          without further reads.  The count is re-derived from the two
          endpoint entries around every call that may mutate them, so
          it stays exact;
        * any other hook: the gate is pinned open, and ``after_contact``
          runs on every contact — or, for an idle hook, on every
          contact where an endpoint holds mandates.
        """
        nodes = self.nodes
        outstanding_tbl = self._outstanding_tbl
        cache_tbl = self._cache_tbl
        mandates_tbl = self._mandates_tbl
        metrics = self.metrics
        expire_requests = self._expire_requests
        floor_tbl = self._expiry_floor
        after_contact = self.protocol.after_contact
        hooked = not self._hook_free_contact
        counting = (
            hooked
            and self._contact_hook_idle
            and self.protocol.mandates_touch_only_hook_nodes
        )
        every_contact = hooked and not self._contact_hook_idle
        # The after-contact gate: the number of mandate-holding nodes
        # when counting, otherwise pinned — open with a hook, shut
        # without one.
        if counting:
            mand_count = sum(1 for mand in mandates_tbl if mand)
        else:
            mand_count = 1 if hooked else 0
        skip_self = self._skip_self
        h0_finite = self._h0_finite
        timed = self._timeout is not None
        timeout = self._timeout if self._timeout is not None else 0.0
        x_always = self._stream.all_servers
        # Every fulfil is inlined below as ``_fulfill_hits`` does it in
        # the traced loop: log each delay and time, in the requester's
        # insertion order; gains come after the loop.
        log_delay = metrics.delays.append
        log_time = metrics.fulfill_times.append
        notify = not self._hook_free_fulfill
        on_fulfill = self.protocol.on_fulfill
        # sole_tbl[u] is the node's single outstanding item id, or -1
        # when it has zero or several: one list load replaces the
        # ``len(out) == 1`` probe plus key-iterator on every
        # guard-passing contact.  Every outstanding-dict mutation below
        # keeps it exact (protocol hooks never touch outstanding).
        sole_tbl = [
            next(iter(out)) if len(out) == 1 else -1
            for out in outstanding_tbl
        ]
        for kinds_b, times_b, arg_a, arg_b, px, py, req_pos, snap in (
            self._stream.chunks
        ):
            n = len(kinds_b)
            assert px is not None and py is not None and req_pos is not None
            mt = memoryview(times_b)
            ma = memoryview(arg_a)
            mb = memoryview(arg_b)
            mx = memoryview(px)
            my = memoryview(py)
            seg = 0
            for rp in (*req_pos, n):
                for p in range(seg, rp):
                    # A contact: skip without further reads unless an
                    # endpoint has outstanding requests or the
                    # after-contact gate is open.
                    a = ma[p]
                    b = mb[p]
                    out_a = outstanding_tbl[a]
                    out_b = outstanding_tbl[b]
                    if out_a or out_b or mand_count:
                        if mand_count:
                            pre = (1 if mandates_tbl[a] else 0) + (
                                1 if mandates_tbl[b] else 0
                            )
                        else:
                            pre = 0
                        hit = False
                        if out_a and (x_always or mx[p] >= 0):
                            if timed and floor_tbl[a] < mt[p] - timeout:
                                expire_requests(nodes[a], mt[p] - timeout)
                                sole_tbl[a] = (
                                    next(iter(out_a))
                                    if len(out_a) == 1
                                    else -1
                                )
                            item = sole_tbl[a]
                            if item >= 0:
                                if item in cache_tbl[b]:
                                    hit = True
                                    sole_tbl[a] = -1
                                    t_ev = mt[p]
                                    meet = mx[p]
                                    for request in out_a.pop(item):
                                        log_delay(t_ev - request.created_at)
                                        log_time(t_ev)
                                        if notify:
                                            on_fulfill(
                                                self,
                                                t_ev,
                                                nodes[a],
                                                nodes[b],
                                                item,
                                                meet - request.counter,
                                            )
                            else:
                                hits = out_a.keys() & cache_tbl[b]
                                if hits:
                                    hit = True
                                    t_ev = mt[p]
                                    meet = mx[p]
                                    for item in (
                                        [i for i in out_a if i in hits]
                                        if len(hits) < len(out_a)
                                        else list(out_a)
                                    ):
                                        for request in out_a.pop(item):
                                            log_delay(t_ev - request.created_at)
                                            log_time(t_ev)
                                            if notify:
                                                on_fulfill(
                                                    self,
                                                    t_ev,
                                                    nodes[a],
                                                    nodes[b],
                                                    item,
                                                    meet - request.counter,
                                                )
                                    if len(out_a) == 1:
                                        for item in out_a:
                                            break
                                        sole_tbl[a] = item
                        if out_b and (x_always or my[p] >= 0):
                            if timed and floor_tbl[b] < mt[p] - timeout:
                                expire_requests(nodes[b], mt[p] - timeout)
                                sole_tbl[b] = (
                                    next(iter(out_b))
                                    if len(out_b) == 1
                                    else -1
                                )
                            item = sole_tbl[b]
                            if item >= 0:
                                if item in cache_tbl[a]:
                                    hit = True
                                    sole_tbl[b] = -1
                                    t_ev = mt[p]
                                    meet = my[p]
                                    for request in out_b.pop(item):
                                        log_delay(t_ev - request.created_at)
                                        log_time(t_ev)
                                        if notify:
                                            on_fulfill(
                                                self,
                                                t_ev,
                                                nodes[b],
                                                nodes[a],
                                                item,
                                                meet - request.counter,
                                            )
                            else:
                                hits = out_b.keys() & cache_tbl[a]
                                if hits:
                                    hit = True
                                    t_ev = mt[p]
                                    meet = my[p]
                                    for item in (
                                        [i for i in out_b if i in hits]
                                        if len(hits) < len(out_b)
                                        else list(out_b)
                                    ):
                                        for request in out_b.pop(item):
                                            log_delay(t_ev - request.created_at)
                                            log_time(t_ev)
                                            if notify:
                                                on_fulfill(
                                                    self,
                                                    t_ev,
                                                    nodes[b],
                                                    nodes[a],
                                                    item,
                                                    meet - request.counter,
                                                )
                                    if len(out_b) == 1:
                                        for item in out_b:
                                            break
                                        sole_tbl[b] = item
                        if counting:
                            if hit or pre:
                                if mandates_tbl[a] or mandates_tbl[b]:
                                    after_contact(
                                        self, mt[p], nodes[a], nodes[b]
                                    )
                                mand_count += (
                                    (1 if mandates_tbl[a] else 0)
                                    + (1 if mandates_tbl[b] else 0)
                                    - pre
                                )
                        elif hooked and (
                            every_contact or mandates_tbl[a] or mandates_tbl[b]
                        ):
                            after_contact(self, mt[p], nodes[a], nodes[b])
                if rp < n:  # the request splitting this segment
                    item = ma[rp]
                    node_id = mb[rp]
                    metrics.n_generated += 1
                    if item in cache_tbl[node_id]:
                        if skip_self:
                            metrics.n_skipped_self += 1
                        elif h0_finite:
                            metrics.n_immediate += 1
                            log_delay(0.0)
                            log_time(mt[rp])
                        else:
                            self._raise_infinite_h0(item, node_id)
                    else:
                        out = outstanding_tbl[node_id]
                        request_list = out.get(item)
                        if request_list is None:
                            out[item] = [
                                Request(item, node_id, mt[rp], mx[rp])
                            ]
                            sole_tbl[node_id] = item if len(out) == 1 else -1
                        else:
                            request_list.append(
                                Request(item, node_id, mt[rp], mx[rp])
                            )
                seg = rp + 1
            if snap is not None:
                self._take_snapshot(snap)

    def _run_traced(self) -> None:
        """The instrumented loop: a traced run.

        The stream carries no plain-mode payload columns, so the
        per-node server-meeting counts are maintained here dynamically
        instead of precomputed from the trace.  Each emission site sits
        right after the state change it reports: ``SEEN`` once per
        (item, requester) query edge after expiry, ``FULFILL`` inside
        ``_fulfill_hits``, and ``self._now`` tracks the event time so
        replication events emitted from protocol hooks carry the right
        timestamp.
        """
        nodes = self.nodes
        outstanding_tbl = self._outstanding_tbl
        cache_tbl = self._cache_tbl
        is_server_tbl = self._is_server_tbl
        mandates_tbl = self._mandates_tbl
        metrics = self.metrics
        fulfill_hits = self._fulfill_hits
        expire_requests = self._expire_requests
        floor_tbl = self._expiry_floor
        timed = self._timeout is not None
        timeout = self._timeout if self._timeout is not None else 0.0
        hooked = not self._hook_free_contact
        idle_hook = self._contact_hook_idle
        after_contact = self.protocol.after_contact
        skip_self = self._skip_self
        h0 = self._h0
        h0_finite = self._h0_finite
        tracer = self.tracer
        assert tracer is not None
        meet_counts = [0] * len(nodes)
        for kinds_b, times_b, arg_a, arg_b, _px, _py, _rp, snap in (
            self._stream.chunks
        ):
            mk = memoryview(kinds_b)
            mt = memoryview(times_b)
            ma = memoryview(arg_a)
            mb = memoryview(arg_b)
            for p in range(len(kinds_b)):
                kind = mk[p]
                if kind == 2:  # EVENT_CONTACT
                    a = ma[p]
                    b = mb[p]
                    node_a = nodes[a]
                    node_b = nodes[b]
                    t = mt[p]
                    self._now = t
                    if is_server_tbl[b]:
                        count = meet_counts[a] + 1
                        meet_counts[a] = count
                        out = outstanding_tbl[a]
                        if out:
                            if timed and floor_tbl[a] < t - timeout:
                                expire_requests(node_a, t - timeout)
                            for item, request_list in out.items():
                                tracer.emit(
                                    trace_events.SEEN, t, item=item,
                                    node=a, server=b, n=len(request_list),
                                )
                            hits = out.keys() & cache_tbl[b]
                            if hits:
                                fulfill_hits(t, a, b, count, out, hits)
                    if is_server_tbl[a]:
                        count = meet_counts[b] + 1
                        meet_counts[b] = count
                        out = outstanding_tbl[b]
                        if out:
                            if timed and floor_tbl[b] < t - timeout:
                                expire_requests(node_b, t - timeout)
                            for item, request_list in out.items():
                                tracer.emit(
                                    trace_events.SEEN, t, item=item,
                                    node=b, server=a, n=len(request_list),
                                )
                            hits = out.keys() & cache_tbl[a]
                            if hits:
                                fulfill_hits(t, b, a, count, out, hits)
                    if hooked and (
                        not idle_hook or mandates_tbl[a] or mandates_tbl[b]
                    ):
                        after_contact(self, t, node_a, node_b)
                else:  # EVENT_REQUEST: a = item, b = node
                    item = ma[p]
                    node_id = mb[p]
                    t = mt[p]
                    metrics.n_generated += 1
                    if item in cache_tbl[node_id]:
                        if skip_self:
                            metrics.n_skipped_self += 1
                            tracer.emit(
                                trace_events.SKIPPED, t, item=item,
                                node=node_id,
                            )
                        elif h0_finite:
                            metrics.log_immediate(t)
                            tracer.emit(
                                trace_events.IMMEDIATE, t, item=item,
                                node=node_id, gain=h0,
                            )
                        else:
                            self._raise_infinite_h0(item, node_id)
                    else:
                        out = outstanding_tbl[node_id]
                        request_list = out.get(item)
                        if request_list is None:
                            out[item] = [
                                Request(item, node_id, t, meet_counts[node_id])
                            ]
                        else:
                            request_list.append(
                                Request(item, node_id, t, meet_counts[node_id])
                            )
                        tracer.emit(
                            trace_events.REQUEST, t, item=item,
                            node=node_id,
                        )
            if snap is not None:
                self._take_snapshot(snap)

    def _raise_infinite_h0(self, item: int, node_id: int) -> None:
        raise SimulationError(
            f"{self.config.utility.name} has h(0+) = inf and node "
            f"{node_id} requested item {item} it already caches; "
            "use self_request_policy='skip' or a dedicated-node "
            "scenario"
        )

    def _fulfill_hits(
        self,
        t: float,
        requester_id: int,
        provider_id: int,
        meet_count: int,
        outstanding: Dict[int, List[Request]],
        hits: AbstractSet[int],
    ) -> None:
        """Fulfill the *hits* items, in the requester's insertion order:
        the traced loop's fulfil (the plain loop inlines the same).

        Each request's delay is logged (its gain is credited after the
        loop) and its gain is evaluated now for the ``FULFILL`` event,
        emitted after the log entry and before ``on_fulfill``.
        """
        if len(hits) < len(outstanding):
            fulfilled = [item for item in outstanding if item in hits]
        else:
            fulfilled = list(outstanding)
        metrics = self.metrics
        tracer = self.tracer
        assert tracer is not None
        notify = not self._hook_free_fulfill
        on_fulfill = self.protocol.on_fulfill
        requester = self.nodes[requester_id]
        provider = self.nodes[provider_id]
        pop = outstanding.pop
        log_delay = metrics.delays.append
        log_time = metrics.fulfill_times.append
        for item in fulfilled:
            for request in pop(item):
                delay = t - request.created_at
                log_delay(delay)
                log_time(t)
                gain = float(self._gains(np.array([delay]))[0])
                tracer.emit(
                    trace_events.FULFILL, t, item=item,
                    node=requester_id, server=provider_id,
                    delay=delay, gain=gain,
                    counter=meet_count - request.counter,
                )
                if notify:
                    on_fulfill(
                        self,
                        t,
                        requester,
                        provider,
                        item,
                        meet_count - request.counter,
                    )

    def _expire_requests(self, node: NodeState, deadline: float) -> None:
        """Drop outstanding requests created before *deadline*.

        Callers scan only when the node's expiry floor is below
        *deadline*: every outstanding request was created at or after
        the floor, so a skipped scan is exactly one that would expire
        nothing.  Each item's list is in creation order, so its head is
        its oldest request; the scan resets the floor to the oldest
        survivor, or to *deadline* when none survives (every later
        request is created at or after this contact, hence after
        *deadline*).  Traced runs emit one ``ABANDON`` per expired
        request, after its item's metrics update.  Credited
        abandonments are logged for the run's gain fold.
        """
        outstanding = node.outstanding
        stale_items = [
            item
            for item, request_list in outstanding.items()
            if request_list[0].created_at < deadline
        ]
        metrics = self.metrics
        tracer = self.tracer
        for item in stale_items:
            request_list = outstanding[item]
            kept = [r for r in request_list if r.created_at >= deadline]
            expired = len(request_list) - len(kept)
            if self._credit_abandoned:
                for _ in range(expired):
                    metrics.log_abandonment(deadline, self._abandoned_gain)
            metrics.n_expired += expired
            if tracer is not None:
                for request in request_list[:expired]:
                    tracer.emit(
                        trace_events.ABANDON,
                        deadline,
                        item=item,
                        node=node.node_id,
                        created_at=request.created_at,
                    )
            if kept:
                outstanding[item] = kept
            else:
                del outstanding[item]
        self._expiry_floor[node.node_id] = min(
            (reqs[0].created_at for reqs in outstanding.values()),
            default=deadline,
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _take_snapshot(self, t: float) -> None:
        mandates = self.protocol.mandate_totals(self)
        self.metrics.record_snapshot(t, self.counts, mandates)

    def _settle_unfulfilled(self) -> int:
        """Apply the end-of-horizon policy to outstanding requests: under
        ``truncate``, their gains are evaluated in one array call and
        folded after everything the run credited."""
        horizon = self.trace.duration
        tracer = self.tracer
        created: List[float] = []
        # Outstanding requests can only live on nodes that issued one,
        # so settle visits those, not every node.
        for node_id in self._stream.requesting_nodes.tolist():
            node = self.nodes[node_id]
            for item, request_list in node.outstanding.items():
                for request in request_list:
                    created.append(request.created_at)
                    if tracer is not None:
                        tracer.emit(
                            trace_events.UNFULFILLED,
                            horizon,
                            item=item,
                            node=node.node_id,
                            created_at=request.created_at,
                            age=horizon - request.created_at,
                        )
        if self.config.unfulfilled_policy == "truncate" and created:
            ages = horizon - np.asarray(created, dtype=float)
            gains = np.asarray(
                self.config.utility(ages[ages > 0]), dtype=float
            )
            self.metrics.fold_end_of_run_gains(gains[np.isfinite(gains)])
        return len(created)


def simulate(
    trace: ContactTrace,
    requests: RequestSchedule,
    config: SimulationConfig,
    protocol: ReplicationProtocol,
    seed: SeedLike = None,
    tracer: Optional[Tracer] = None,
    manifest: bool = False,
    prebuilt_events: Optional[EventStream] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it.

    *tracer*, when active, records the full request lifecycle (see
    :mod:`repro.obs`); *manifest* forces provenance collection even on
    untraced runs (traced runs always collect it).  *prebuilt_events*,
    when given, reuses a
    trial-scoped merged stream built once by
    :func:`repro.sim.events.build_event_stream` over the very same
    trace/requests — validated on receipt, bit-identical to an
    inline merge.
    """
    return Simulation(
        trace,
        requests,
        config,
        protocol,
        seed=seed,
        tracer=tracer,
        collect_manifest=manifest,
        prebuilt_events=prebuilt_events,
    ).run()
