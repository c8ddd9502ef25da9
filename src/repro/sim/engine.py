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
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
)

import numpy as np
import numpy.typing as npt

#: Merge granularity of the streamed event pipeline: contacts are pulled
#: off the (possibly memory-mapped) trace in runs of about this many
#: events, so peak heap scales with the chunk, not the trace.
_DEFAULT_CHUNK_EVENTS = 1 << 18
#: Sub-chunk granularity of the masked plain loop: the per-node activity
#: snapshot used to skip no-op contacts is refreshed every block, so
#: smaller blocks skip more but amortize less vectorized work.
_MASK_BLOCK_EVENTS = 1 << 15
#: Below this node count the activity mask cannot stay selective (every
#: node requests within one block) and the segmented loop is used.
_MASK_MIN_NODES = 512

#: Version of the engine's observable semantics, keyed into the
#: content-addressed run cache (:mod:`repro.simcache`).  Bump whenever a
#: change could alter simulation *results* — cached entries from older
#: versions then stop matching and are recomputed.  Pure speedups that
#: keep bit-identity (the contract enforced against ``sim/_reference``)
#: do not require a bump.
ENGINE_CODE_VERSION = "2026.08-array-core-1"

from ..contacts import ContactTrace
from ..demand import RequestSchedule
from ..errors import ConfigurationError, SimulationError
from ..faults import FaultEvent, FaultSchedule
from ..obs import events as trace_events
from ..obs import metrics as obs_metrics
from ..obs.manifest import RunManifest
from ..obs.timing import Stopwatch
from ..obs.tracer import Tracer
from ..protocols.base import ReplicationProtocol
from ..types import FloatArray, IntArray, SeedLike, as_rng
from ..utility import StepUtility
from .config import SimulationConfig
from .events import (
    EVENT_CONTACT,
    EVENT_FAULT,
    EVENT_REQUEST,
    Chunk as _Chunk,
    EventStream,
    build_event_stream,
    compute_plain_payloads,
    cut_chunks,
    memmap_backed as _memmap_backed,
    stream_side_state,
)
from .metrics import MetricsCollector, SimulationResult
from .node import NodeState, Request

__all__ = ["Simulation", "simulate"]


class Simulation:
    """One simulation run binding trace, demand, config, and protocol.

    *faults*, when given, is merged into the event loop as a third
    stream alongside contacts and requests (see :mod:`repro.faults`):
    offline nodes neither exchange content nor generate requests, cache
    wipes and replica losses go through :meth:`remove_copy` so replica
    accounting stays consistent, and all fault randomness comes from the
    schedule's own RNG — a run with ``faults=None`` is bit-identical to
    one before fault injection existed.
    """

    __slots__ = (
        "trace",
        "requests",
        "config",
        "protocol",
        "rng",
        "faults",
        "_fault_rng",
        "_drop_prob",
        "server_ids",
        "client_ids",
        "nodes",
        "server_position",
        "counts",
        "occupancy",
        "sticky_owner",
        "_initialized",
        "tracer",
        "_metrics_reg",
        "_m_replica_add",
        "_m_replica_drop",
        "_phase_timer",
        "_collect_manifest",
        "_seed_value",
        "_now",
        "metrics",
        "_utility",
        "_h0",
        "_h0_finite",
        "_step_tau",
        "_timeout",
        "_skip_self",
        "_abandoned_gain",
        "_credit_abandoned",
        "_hook_free_contact",
        "_hook_free_fulfill",
        "_event_times",
        "_event_kinds",
        "_event_a",
        "_event_b",
        "_fault_events",
        "_fault_times",
        "_req_times",
        "_req_items",
        "_req_nodes",
        "_is_server_arr",
        "_requester_arr",
        "_all_servers",
        "_n_events",
        "_chunk_events",
        "_prebuilt_events",
        "_streamed",
        "_snap_times",
        "_payload_needed",
        "_chunks",
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
        faults: Optional[FaultSchedule] = None,
        tracer: Optional[Tracer] = None,
        collect_manifest: bool = False,
        chunk_events: Optional[int] = None,
        prebuilt_events: Optional[EventStream] = None,
    ) -> None:
        if chunk_events is not None and chunk_events < 1:
            raise ConfigurationError(
                f"chunk_events must be >= 1, got {chunk_events}"
            )
        if prebuilt_events is not None and chunk_events is not None:
            raise ConfigurationError(
                "prebuilt_events is incompatible with chunk_events: "
                "prebuilt streams are eager by construction"
            )
        self._chunk_events = chunk_events
        self._prebuilt_events = prebuilt_events
        if requests.duration > trace.duration + 1e-9:
            raise ConfigurationError(
                "request schedule extends past the contact trace"
            )
        self.trace = trace
        self.requests = requests
        self.config = config
        self.protocol = protocol
        self.rng = as_rng(seed)
        self.faults = faults
        if faults is not None:
            for event in faults.events:
                if event.node is not None and event.node >= trace.n_nodes:
                    raise ConfigurationError(
                        f"fault event node {event.node} out of range "
                        f"for a {trace.n_nodes}-node trace"
                    )
                if event.item is not None and event.item >= config.n_items:
                    raise ConfigurationError(
                        f"fault event item {event.item} out of range "
                        f"for a {config.n_items}-item catalog"
                    )
            self._fault_rng = faults.runtime_rng()
            self._drop_prob = faults.drop_prob
        else:
            self._fault_rng = None
            self._drop_prob = 0.0

        n_nodes = trace.n_nodes
        self.server_ids = config.server_ids(n_nodes)
        self.client_ids = config.client_ids(n_nodes)
        server_set = set(int(m) for m in self.server_ids)
        client_set = set(int(n) for n in self.client_ids)
        if len(requests.nodes) and not set(
            int(n) for n in np.unique(requests.nodes)
        ) <= client_set:
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
        # sites — like those outside the loops (replication, faults,
        # settlement) — are guarded inline.
        self.tracer: Optional[Tracer] = (
            tracer if tracer is not None and tracer.active else None
        )
        # Metrics follow the same resolve-once discipline: a disabled
        # registry is None and every metrics site compiles down to the
        # bare path (the chunk iterator stays unwrapped, replication
        # sites skip one is-None test — same cost as the tracer guard).
        # Per-event hot loops are never instrumented directly; chunk
        # aggregation happens around them (see _iter_counted_chunks).
        self._metrics_reg: Optional[obs_metrics.MetricsRegistry] = (
            obs_metrics.enabled_registry()
        )
        if self._metrics_reg is not None:
            self._m_replica_add: Optional[obs_metrics.Counter] = (
                self._metrics_reg.counter(
                    "repro_sim_replica_adds_total",
                    help="replica insertions (evictions counted as drops)",
                )
            )
            self._m_replica_drop: Optional[obs_metrics.Counter] = (
                self._metrics_reg.counter(
                    "repro_sim_replica_drops_total",
                    help="replica removals (evictions and fault losses)",
                )
            )
        else:
            self._m_replica_add = None
            self._m_replica_drop = None
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
        # Step utilities admit a branch-only gain computation; resolving
        # tau here lets ``_fulfill_hits`` skip the utility call (and the
        # finiteness guard — a step gain is always 0 or 1) per fulfill.
        self._step_tau = (
            utility.tau if isinstance(utility, StepUtility) else None
        )
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
        # fulfilment, crashes and hooks only remove them, so the bound
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
                self._build_event_stream()
        else:
            self._build_event_stream()

    def _build_event_stream(self) -> None:
        """Install this run's merged event stream.

        The stream — contacts, requests, and faults interleaved by one
        stable ``np.lexsort`` on ``(time, kind)``, preserving the
        fault -> request -> contact same-time tie rule — is a pure
        function of ``(trace, requests, faults, config)`` and lives in
        :mod:`repro.sim.events`.  Three sources install it here:

        * a *prebuilt* stream (``prebuilt_events=``), validated by
          :meth:`_check_prebuilt` to belong to this very run's objects
          before being trusted — this is how a sweep merges once per
          trial instead of once per protocol;
        * streamed mode (an explicit ``chunk_events`` or a
          memory-mapped trace): nothing is materialized up front and
          ``_iter_streamed_chunks`` merges block by block while the
          run loops consume, so peak heap scales with the chunk, not
          the trace;
        * otherwise the eager builder materializes the stream now.

        Both modes cut the stream at the same snapshot instants and
        sort each block with the same stable key, so the concatenation
        of streamed blocks reproduces the eager order exactly — and a
        prebuilt stream is byte-for-byte the eager builder's output.
        """
        self._payload_needed = self.tracer is None and self.faults is None
        self._event_times: Optional[FloatArray] = None
        self._event_kinds: Optional[IntArray] = None
        self._event_a: Optional[IntArray] = None
        self._event_b: Optional[IntArray] = None
        self._chunks: Optional[List[_Chunk]] = None
        prebuilt = self._prebuilt_events
        if prebuilt is not None:
            self._check_prebuilt(prebuilt)
            self._streamed = False
            self._install_side_state(
                prebuilt.fault_events,
                prebuilt.fault_times,
                prebuilt.req_times,
                prebuilt.req_items,
                prebuilt.req_nodes,
                prebuilt.is_server,
                prebuilt.requester,
                prebuilt.all_servers,
                prebuilt.snap_times,
            )
            self._n_events = prebuilt.n_events
            self._event_times = prebuilt.event_times
            self._event_kinds = prebuilt.event_kinds
            self._event_a = prebuilt.event_a
            self._event_b = prebuilt.event_b
            self._chunks = prebuilt.chunks
            return
        trace = self.trace
        requests = self.requests
        self._streamed = self._chunk_events is not None or _memmap_backed(
            trace.times
        )
        if self._streamed:
            # Nothing is materialized up front: _iter_streamed_chunks
            # merges block by block while the run loops consume.
            side = stream_side_state(
                trace, requests, self.config, self.faults
            )
            self._install_side_state(
                side.fault_events,
                side.fault_times,
                side.req_times,
                side.req_items,
                side.req_nodes,
                side.is_server,
                side.requester,
                side.all_servers,
                side.snap_times,
            )
            self._n_events = (
                len(side.fault_events) + len(requests.times) + len(trace.times)
            )
            return
        stream = build_event_stream(
            trace,
            requests,
            self.config,
            self.faults,
            payloads=self._payload_needed,
        )
        self._install_side_state(
            stream.fault_events,
            stream.fault_times,
            stream.req_times,
            stream.req_items,
            stream.req_nodes,
            stream.is_server,
            stream.requester,
            stream.all_servers,
            stream.snap_times,
        )
        self._n_events = stream.n_events
        self._event_times = stream.event_times
        self._event_kinds = stream.event_kinds
        self._event_a = stream.event_a
        self._event_b = stream.event_b
        self._chunks = stream.chunks

    def _install_side_state(
        self,
        fault_events: List[FaultEvent],
        fault_times: FloatArray,
        req_times: FloatArray,
        req_items: IntArray,
        req_nodes: IntArray,
        is_server: npt.NDArray[np.bool_],
        requester: npt.NDArray[np.bool_],
        all_servers: bool,
        snap_times: List[float],
    ) -> None:
        self._fault_events = fault_events
        self._fault_times = fault_times
        self._req_times = req_times
        self._req_items = req_items
        self._req_nodes = req_nodes
        self._is_server_arr = is_server
        self._requester_arr = requester
        self._all_servers = all_servers
        self._snap_times = snap_times

    def _check_prebuilt(self, stream: EventStream) -> None:
        """A prebuilt stream is only trusted for this very run.

        Identity — not equality — is required for the trace, request,
        and fault objects: the stream's arrays index directly into
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
        if stream.faults is not self.faults:
            raise ConfigurationError(
                "prebuilt_events was built from a different fault schedule"
            )
        if stream.config_fingerprint != self.config.fingerprint():
            raise ConfigurationError(
                "prebuilt_events was built under a different configuration"
            )
        if self._payload_needed and not stream.payload_mode:
            raise ConfigurationError(
                "prebuilt_events lacks the plain-mode payload columns "
                "this untraced fault-free run consumes"
            )

    def _iter_chunks(self) -> Iterator[_Chunk]:
        """The pre-cut chunks (eager) or a block-merging generator.

        With metrics enabled the stream is wrapped in the counting
        generator; the event loops themselves are byte-identical in
        both modes — aggregation happens per *chunk*, never per event.
        """
        base: Iterator[_Chunk] = (
            iter(self._chunks)
            if self._chunks is not None
            else self._iter_streamed_chunks()
        )
        if self._metrics_reg is None:
            return base
        return self._iter_counted_chunks(base)

    def _iter_counted_chunks(self, base: Iterator[_Chunk]) -> Iterator[_Chunk]:
        """Per-chunk metrics aggregation around the event stream.

        Counts chunks and events and observes the chunk-size histogram
        *between* chunks — pure arithmetic on registry state, no I/O,
        no clock, no simulation-state reads — so streamed-chunk
        progress is visible live (scrape the registry mid-run) without
        touching the hot loops' bit-identity.
        """
        reg = self._metrics_reg
        assert reg is not None
        chunks_total = reg.counter(
            "repro_sim_chunks_total",
            help="event-stream chunks consumed by the run loops",
        )
        events_total = reg.counter(
            "repro_sim_chunk_events_total",
            help="merged events delivered to the run loops",
        )
        chunk_sizes = reg.histogram(
            "repro_sim_chunk_events",
            help="events per consumed chunk",
            buckets=obs_metrics.exponential_buckets(1.0, 4.0, 12),
        )
        for chunk in base:
            n = len(chunk[0])
            chunks_total.inc()
            events_total.inc(n)
            chunk_sizes.observe(float(n))
            yield chunk

    def _iter_streamed_chunks(self) -> Iterator[_Chunk]:
        """Merge the three event streams block by block.

        Contacts are pulled off the (possibly memory-mapped) trace in
        runs of about ``chunk_events``, extended to cover the whole
        same-time run at the cut edge; the requests and faults up to
        the block's last contact time then merge in with the same
        stable lexsort the eager path uses.  Because each stream is
        time-sorted and no same-time contact run is ever split, the
        concatenation of the per-block sorts equals the global stable
        sort — streamed runs are bit-identical to eager ones.
        """
        trace = self.trace
        chunk = self._chunk_events or _DEFAULT_CHUNK_EVENTS
        ct = trace.times
        ca = trace.node_a
        cb = trace.node_b
        n_c = len(ct)
        req_times = self._req_times
        req_items = self._req_items
        req_nodes = self._req_nodes
        fault_times = self._fault_times
        n_q = len(req_times)
        n_f = len(fault_times)
        payload_needed = self._payload_needed
        meet_base = (
            np.zeros(len(self.nodes), dtype=np.int64)
            if payload_needed
            else None
        )
        c0 = r0 = f0 = 0
        snap_idx = 0
        while c0 < n_c:
            c1 = min(c0 + chunk, n_c)
            if c1 < n_c:
                # Never split a same-time contact run across blocks: a
                # request or fault at that instant must lexsort before
                # every one of those contacts, which requires them all
                # in the same block.
                c1 = int(np.searchsorted(ct, float(ct[c1 - 1]), side="right"))
            t_hi = float(ct[c1 - 1])
            last = c1 >= n_c
            if last:
                r1, f1 = n_q, n_f
            else:
                r1 = int(np.searchsorted(req_times, t_hi, side="right"))
                f1 = int(np.searchsorted(fault_times, t_hi, side="right"))
            n_fb, n_qb = f1 - f0, r1 - r0
            total = n_fb + n_qb + (c1 - c0)
            times = np.empty(total, dtype=np.float64)
            times[:n_fb] = fault_times[f0:f1]
            times[n_fb : n_fb + n_qb] = req_times[r0:r1]
            times[n_fb + n_qb :] = ct[c0:c1]
            kinds = np.empty(total, dtype=np.int64)
            kinds[:n_fb] = EVENT_FAULT
            kinds[n_fb : n_fb + n_qb] = EVENT_REQUEST
            kinds[n_fb + n_qb :] = EVENT_CONTACT
            arg_a = np.empty(total, dtype=np.int64)
            arg_a[:n_fb] = np.arange(f0, f1)
            arg_a[n_fb : n_fb + n_qb] = req_items[r0:r1]
            arg_a[n_fb + n_qb :] = ca[c0:c1]
            arg_b = np.zeros(total, dtype=np.int64)
            arg_b[n_fb : n_fb + n_qb] = req_nodes[r0:r1]
            arg_b[n_fb + n_qb :] = cb[c0:c1]
            order = np.lexsort((kinds, times))
            times = times[order]
            kinds = kinds[order]
            arg_a = arg_a[order]
            arg_b = arg_b[order]
            if payload_needed:
                assert meet_base is not None
                payload_x, payload_y = compute_plain_payloads(
                    kinds, arg_a, arg_b, meet_base,
                    is_server=self._is_server_arr,
                    requester=self._requester_arr,
                )
            else:
                payload_x = payload_y = None
            chunks, snap_idx = cut_chunks(
                kinds, times, arg_a, arg_b, payload_x, payload_y,
                snap_times=self._snap_times, snap_idx=snap_idx,
                last=last, payload_mode=payload_needed,
            )
            yield from chunks
            c0, r0, f0 = c1, r1, f1
        if r0 < n_q or f0 < n_f or snap_idx < len(self._snap_times):
            # Contact-free tail: requests/faults past the last contact
            # (or a contact-free trace) plus any still-pending
            # snapshots flush in one final block.
            n_fb, n_qb = n_f - f0, n_q - r0
            total = n_fb + n_qb
            times = np.empty(total, dtype=np.float64)
            times[:n_fb] = fault_times[f0:]
            times[n_fb:] = req_times[r0:]
            kinds = np.empty(total, dtype=np.int64)
            kinds[:n_fb] = EVENT_FAULT
            kinds[n_fb:] = EVENT_REQUEST
            arg_a = np.empty(total, dtype=np.int64)
            arg_a[:n_fb] = np.arange(f0, n_f)
            arg_a[n_fb:] = req_items[r0:]
            arg_b = np.zeros(total, dtype=np.int64)
            arg_b[n_fb:] = req_nodes[r0:]
            order = np.lexsort((kinds, times))
            times = times[order]
            kinds = kinds[order]
            arg_a = arg_a[order]
            arg_b = arg_b[order]
            if payload_needed:
                assert meet_base is not None
                payload_x, payload_y = compute_plain_payloads(
                    kinds, arg_a, arg_b, meet_base,
                    is_server=self._is_server_arr,
                    requester=self._requester_arr,
                )
            else:
                payload_x = payload_y = None
            chunks, _ = cut_chunks(
                kinds, times, arg_a, arg_b, payload_x, payload_y,
                snap_times=self._snap_times, snap_idx=snap_idx,
                last=True, payload_mode=payload_needed,
            )
            yield from chunks

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
        if cache is None or item in cache:
            return False
        before = len(cache)
        victim = cache.insert(item, self.rng)
        if item not in cache:
            return False  # refused: all slots sticky
        self.counts[item] += 1
        occupancy_row = self.occupancy[node.node_id]
        occupancy_row[item] = True
        if victim is not None:
            self.counts[victim] -= 1
            occupancy_row[victim] = False
        elif len(cache) == before:  # pragma: no cover - defensive
            raise SimulationError("cache bookkeeping out of sync")
        if self._m_replica_add is not None:
            self._m_replica_add.inc()
            if victim is not None:
                assert self._m_replica_drop is not None
                self._m_replica_drop.inc()
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

        Not used by any protocol; exposed for failure-injection
        experiments and tests.
        """
        cache = node.cache
        if cache is None or not cache.discard(item):
            return False
        self.counts[item] -= 1
        self.occupancy[node.node_id, item] = False
        if self._m_replica_drop is not None:
            self._m_replica_drop.inc()
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
        # fault-free runs take a fully inlined plain loop (no tracer,
        # online, or drop-probability tests at all); fault injection or
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
                n_events=self._n_events,
                phases=dict(phases.sections),
                metrics=self._metrics_snapshot(n_unfulfilled),
            ).to_dict()
        if self._metrics_reg is not None:
            self._publish_run_metrics(n_unfulfilled, timer)
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
        """Select and run the event loop for this run.

        Faults or tracing take the instrumented loop.  Otherwise, fully
        hook-free protocols on large node sets take the vectorized
        masked loop, whose per-block activity mask only stays selective
        when few nodes request within one block; everything else takes
        the segmented plain loop.
        """
        if self.tracer is not None or self.faults is not None:
            self._run_with_faults()
        elif (
            self._hook_free_contact
            and self._hook_free_fulfill
            and len(self.nodes) >= _MASK_MIN_NODES
        ):
            self._run_plain_masked()
        else:
            self._run_plain()

    def _metrics_snapshot(self, n_unfulfilled: int) -> Dict[str, object]:
        """The manifest's embedded metrics snapshot (counters only).

        Always built from the :class:`MetricsCollector` aggregates when
        a manifest is collected — present whether or not the process
        registry is enabled, so every manifest answers "how much work
        did this run do" without a metrics-enabled rerun.
        """
        m = self.metrics
        return {
            "n_events": self._n_events,
            "n_generated": m.n_generated,
            "n_fulfilled": m.n_fulfilled,
            "n_immediate": m.n_immediate,
            "n_skipped_self": m.n_skipped_self,
            "n_expired": m.n_expired,
            "n_unfulfilled": n_unfulfilled,
            "total_gain": m.total_gain,
            "final_replicas": int(self.counts.sum()),
            "n_crashes": m.n_crashes,
            "n_recoveries": m.n_recoveries,
            "n_replicas_lost": m.n_replicas_lost,
            "n_contacts_blocked": m.n_contacts_blocked,
            "n_contacts_dropped": m.n_contacts_dropped,
        }

    def _publish_run_metrics(
        self, n_unfulfilled: int, timer: Optional[Stopwatch]
    ) -> None:
        """Push end-of-run aggregates into the process registry.

        One batch of counter increments per *run* (never per event):
        the hot loops stay untouched, and a sweep process accumulates
        fleet-wide totals across all its runs.
        """
        reg = self._metrics_reg
        assert reg is not None
        m = self.metrics
        labels = {"protocol": self.protocol.name}
        reg.counter(
            "repro_sim_runs_total",
            help="simulation runs completed",
            labels=labels,
        ).inc()
        reg.counter(
            "repro_sim_events_total",
            help="merged events processed",
            labels=labels,
        ).inc(float(self._n_events))
        reg.counter(
            "repro_sim_requests_total",
            help="requests generated",
            labels=labels,
        ).inc(float(m.n_generated))
        reg.counter(
            "repro_sim_fulfillments_total",
            help="requests fulfilled via a contact",
            labels=labels,
        ).inc(float(m.n_fulfilled))
        reg.counter(
            "repro_sim_immediate_fulfillments_total",
            help="requests fulfilled from the requester's own cache",
            labels=labels,
        ).inc(float(m.n_immediate))
        reg.counter(
            "repro_sim_abandonments_total",
            help="requests expired by the request timeout",
            labels=labels,
        ).inc(float(m.n_expired))
        reg.counter(
            "repro_sim_unfulfilled_total",
            help="requests still outstanding at the horizon",
            labels=labels,
        ).inc(float(n_unfulfilled))
        reg.gauge(
            "repro_sim_final_replicas",
            help="total replicas at the end of the latest run",
            labels=labels,
        ).set(float(self.counts.sum()))
        if timer is not None:
            reg.histogram(
                "repro_sim_run_wall_seconds",
                help="wall seconds per simulation run",
                labels=labels,
            ).observe(timer.wall)

    # ------------------------------------------------------------------
    # event loops
    #
    # Three loops over the pre-chunked stream, selected once per run by
    # _run_dispatch: the segmented plain loop (untraced, fault-free),
    # its vectorized masked variant for fully hook-free protocols on
    # large node sets, and the instrumented loop (fault injection,
    # tracing, or both).  The plain loops inline request bookkeeping
    # and skip exchanges whose early-return guards (non-server
    # provider, empty outstanding table) are visible from the flat
    # state tables — those guards touch no state and no RNG, so eliding
    # the exchange is bit-identical.  The equivalence tests in
    # tests/sim/ compare every loop against sim/_reference.py.
    # ------------------------------------------------------------------
    def _run_plain(self) -> None:
        """Untraced, fault-free: every node is permanently online.

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
        record_fulfillment = metrics.record_fulfillment
        fulfill_hits = self._fulfill_hits
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
        h0 = self._h0
        h0_finite = self._h0_finite
        timed = self._timeout is not None
        timeout = self._timeout if self._timeout is not None else 0.0
        x_always = self._all_servers
        # Single-item step-utility fulfills — the dominant fulfill shape
        # — are inlined below with ``record_fulfillment``'s exact
        # statement order; everything else routes through
        # ``_fulfill_hits``.
        step_tau = self._step_tau
        step_fast = step_tau is not None
        tie_gain = h0 if h0_finite else 0.0
        delays_append = metrics.delays.append
        window_gains = metrics.window_gains
        window_fulfillments = metrics.window_fulfillments
        window_length = metrics.window_length
        last_window = len(window_gains) - 1
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
            self._iter_chunks()
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
                                    if step_fast:
                                        t_ev = mt[p]
                                        meet = mx[p]
                                        window = min(
                                            int(t_ev / window_length),
                                            last_window,
                                        )
                                        for request in out_a.pop(item):
                                            delay = t_ev - request.created_at
                                            if delay > 0:
                                                gain = (
                                                    1.0
                                                    if delay <= step_tau
                                                    else 0.0
                                                )
                                            else:
                                                gain = tie_gain
                                            metrics.total_gain += gain
                                            metrics.n_fulfilled += 1
                                            delays_append(delay)
                                            window_gains[window] += gain
                                            window_fulfillments[window] += 1
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
                                        fulfill_hits(
                                            mt[p], a, b, mx[p],
                                            out_a, (item,),
                                        )
                            else:
                                hits = out_a.keys() & cache_tbl[b]
                                if hits:
                                    hit = True
                                    fulfill_hits(
                                        mt[p], a, b, mx[p], out_a, hits
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
                                    if step_fast:
                                        t_ev = mt[p]
                                        meet = my[p]
                                        window = min(
                                            int(t_ev / window_length),
                                            last_window,
                                        )
                                        for request in out_b.pop(item):
                                            delay = t_ev - request.created_at
                                            if delay > 0:
                                                gain = (
                                                    1.0
                                                    if delay <= step_tau
                                                    else 0.0
                                                )
                                            else:
                                                gain = tie_gain
                                            metrics.total_gain += gain
                                            metrics.n_fulfilled += 1
                                            delays_append(delay)
                                            window_gains[window] += gain
                                            window_fulfillments[window] += 1
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
                                        fulfill_hits(
                                            mt[p], b, a, my[p],
                                            out_b, (item,),
                                        )
                            else:
                                hits = out_b.keys() & cache_tbl[a]
                                if hits:
                                    hit = True
                                    fulfill_hits(
                                        mt[p], b, a, my[p], out_b, hits
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
                            record_fulfillment(
                                mt[rp], 0.0, h0, immediate=True
                            )
                        else:
                            self._raise_infinite_h0(item, node_id)
                    else:
                        out = outstanding_tbl[node_id]
                        request_list = out.get(item)
                        if request_list is None:
                            out[item] = [
                                Request(item, node_id, mt[rp], mx[rp])
                            ]
                            sole_tbl[node_id] = (
                                item if len(out) == 1 else -1
                            )
                        else:
                            request_list.append(
                                Request(item, node_id, mt[rp], mx[rp])
                            )
                seg = rp + 1
            if snap is not None:
                self._take_snapshot(snap)

    def _candidate_positions(
        self,
        active: npt.NDArray[np.bool_],
        first_req: IntArray,
        offsets: IntArray,
        kinds_b: IntArray,
        arg_a: IntArray,
        arg_b: IntArray,
        px: IntArray,
        py: IntArray,
        pos0: int,
        pos1: int,
    ) -> List[int]:
        """Global positions in ``[pos0, pos1)`` that can touch state.

        A contact is a candidate iff an endpoint was active (had
        outstanding requests) when the block started, or issued a
        request *earlier in the same block* — the latter resolved
        exactly per position via a first-request-position scatter, so
        a burst of requests does not smear activity across the whole
        block.  Requests are always candidates.  ``active`` may only
        err conservative (stale ``True`` after a mid-block
        fulfillment), so a skipped contact provably matches the dense
        loop's no-op.  ``first_req`` must arrive holding the sentinel
        everywhere and is restored before returning.
        """
        blk = pos1 - pos0
        kb = kinds_b[pos0:pos1]
        bb = arg_b[pos0:pos1]
        req_sel = kb == EVENT_REQUEST
        rpos = np.flatnonzero(req_sel)
        if len(rpos):
            # arg_a holds item ids on request rows — they may exceed
            # the node-id range, so blank them before gathering.
            ab = np.where(req_sel, 0, arg_a[pos0:pos1])
            req_nodes = bb[rpos]
            # Reversed scatter: earliest position wins on duplicates.
            first_req[req_nodes[::-1]] = rpos[::-1]
            cand = active[ab]
            cand |= active[bb]
            offs = offsets[:blk]
            cand |= first_req[ab] < offs
            cand |= first_req[bb] < offs
            first_req[req_nodes] = _MASK_BLOCK_EVENTS
        else:
            ab = arg_a[pos0:pos1]
            cand = active[ab]
            cand |= active[bb]
        if not self._all_servers:
            # Neither endpoint meets a server: provably a no-op
            # regardless of outstanding state.
            served = px[pos0:pos1] >= 0
            served |= py[pos0:pos1] >= 0
            cand &= served
        cand |= req_sel
        positions: List[int] = (np.flatnonzero(cand) + pos0).tolist()
        return positions

    def _run_plain_masked(self) -> None:
        """Vectorized plain loop for fully hook-free protocols.

        With default (no-op) contact and fulfill hooks a contact can
        only matter when an endpoint has outstanding requests and the
        opposite endpoint is a server — both visible columnarly.  Per
        sub-block, ``_candidate_positions`` selects exactly those
        contacts plus all requests; masked-out events are skipped
        without materializing a single per-event Python object.
        """
        nodes = self.nodes
        outstanding_tbl = self._outstanding_tbl
        cache_tbl = self._cache_tbl
        metrics = self.metrics
        record_fulfillment = metrics.record_fulfillment
        fulfill_hits = self._fulfill_hits
        expire_requests = self._expire_requests
        floor_tbl = self._expiry_floor
        candidate_positions = self._candidate_positions
        skip_self = self._skip_self
        h0 = self._h0
        h0_finite = self._h0_finite
        timed = self._timeout is not None
        timeout = self._timeout if self._timeout is not None else 0.0
        x_always = self._all_servers
        # Hook-free implies no fulfill notification, so the single-item
        # step-utility fast path inlines ``record_fulfillment`` directly.
        step_tau = self._step_tau
        step_fast = step_tau is not None
        tie_gain = h0 if h0_finite else 0.0
        delays_append = metrics.delays.append
        window_gains = metrics.window_gains
        window_fulfillments = metrics.window_fulfillments
        window_length = metrics.window_length
        last_window = len(window_gains) - 1
        active = np.zeros(len(self.nodes), dtype=bool)
        for node_id, out in enumerate(outstanding_tbl):
            if out:
                active[node_id] = True
        block = _MASK_BLOCK_EVENTS
        first_req = np.full(len(self.nodes), block, dtype=np.int64)
        offsets = np.arange(block, dtype=np.int64)
        for kinds_b, times_b, arg_a, arg_b, px, py, _req_pos, snap in (
            self._iter_chunks()
        ):
            n = len(kinds_b)
            assert px is not None and py is not None
            mk = memoryview(kinds_b)
            mt = memoryview(times_b)
            ma = memoryview(arg_a)
            mb = memoryview(arg_b)
            mx = memoryview(px)
            my = memoryview(py)
            for pos0 in range(0, n, block):
                pos1 = min(pos0 + block, n)
                for gp in candidate_positions(
                    active, first_req, offsets,
                    kinds_b, arg_a, arg_b, px, py, pos0, pos1,
                ):
                    if mk[gp] == 2:  # EVENT_CONTACT
                        a = ma[gp]
                        b = mb[gp]
                        out = outstanding_tbl[a]
                        if out and (x_always or mx[gp] >= 0):
                            if timed and floor_tbl[a] < mt[gp] - timeout:
                                expire_requests(nodes[a], mt[gp] - timeout)
                            if len(out) == 1:
                                for item in out:
                                    break
                                if item in cache_tbl[b]:
                                    if step_fast:
                                        t_ev = mt[gp]
                                        window = min(
                                            int(t_ev / window_length),
                                            last_window,
                                        )
                                        for request in out.pop(item):
                                            delay = (
                                                t_ev - request.created_at
                                            )
                                            if delay > 0:
                                                gain = (
                                                    1.0
                                                    if delay <= step_tau
                                                    else 0.0
                                                )
                                            else:
                                                gain = tie_gain
                                            metrics.total_gain += gain
                                            metrics.n_fulfilled += 1
                                            delays_append(delay)
                                            window_gains[window] += gain
                                            window_fulfillments[window] += 1
                                    else:
                                        fulfill_hits(
                                            mt[gp], a, b, mx[gp], out,
                                            (item,),
                                        )
                            else:
                                hits = out.keys() & cache_tbl[b]
                                if hits:
                                    fulfill_hits(
                                        mt[gp], a, b, mx[gp], out, hits
                                    )
                            if not out:
                                active[a] = False
                        out = outstanding_tbl[b]
                        if out and (x_always or my[gp] >= 0):
                            if timed and floor_tbl[b] < mt[gp] - timeout:
                                expire_requests(nodes[b], mt[gp] - timeout)
                            if len(out) == 1:
                                for item in out:
                                    break
                                if item in cache_tbl[a]:
                                    if step_fast:
                                        t_ev = mt[gp]
                                        window = min(
                                            int(t_ev / window_length),
                                            last_window,
                                        )
                                        for request in out.pop(item):
                                            delay = (
                                                t_ev - request.created_at
                                            )
                                            if delay > 0:
                                                gain = (
                                                    1.0
                                                    if delay <= step_tau
                                                    else 0.0
                                                )
                                            else:
                                                gain = tie_gain
                                            metrics.total_gain += gain
                                            metrics.n_fulfilled += 1
                                            delays_append(delay)
                                            window_gains[window] += gain
                                            window_fulfillments[window] += 1
                                    else:
                                        fulfill_hits(
                                            mt[gp], b, a, my[gp], out,
                                            (item,),
                                        )
                            else:
                                hits = out.keys() & cache_tbl[a]
                                if hits:
                                    fulfill_hits(
                                        mt[gp], b, a, my[gp], out, hits
                                    )
                            if not out:
                                active[b] = False
                    else:  # EVENT_REQUEST
                        item = ma[gp]
                        node_id = mb[gp]
                        metrics.n_generated += 1
                        if item in cache_tbl[node_id]:
                            if skip_self:
                                metrics.n_skipped_self += 1
                            elif h0_finite:
                                record_fulfillment(
                                    mt[gp], 0.0, h0, immediate=True
                                )
                            else:
                                self._raise_infinite_h0(item, node_id)
                        else:
                            out = outstanding_tbl[node_id]
                            request_list = out.get(item)
                            if request_list is None:
                                out[item] = [
                                    Request(item, node_id, mt[gp], mx[gp])
                                ]
                            else:
                                request_list.append(
                                    Request(item, node_id, mt[gp], mx[gp])
                                )
                            active[node_id] = True
            if snap is not None:
                self._take_snapshot(snap)

    def _run_with_faults(self) -> None:
        """The instrumented loop: fault injection, tracing, or both.

        Online and drop tests are restored, and blocked or dropped
        contacts must not advance query counters, so the per-node
        server-meeting counts are maintained here dynamically instead
        of precomputed from the trace.  With a tracer, each emission
        site sits right after the state change it reports: ``SEEN``
        once per (item, requester) query edge after expiry, ``FULFILL``
        inside ``_fulfill_hits``, and ``self._now`` tracks the event
        time so replication events emitted from protocol hooks and
        faults carry the right timestamp.
        """
        nodes = self.nodes
        outstanding_tbl = self._outstanding_tbl
        cache_tbl = self._cache_tbl
        is_server_tbl = self._is_server_tbl
        mandates_tbl = self._mandates_tbl
        metrics = self.metrics
        record_fulfillment = metrics.record_fulfillment
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
        drop_prob = self._drop_prob
        fault_rng = self._fault_rng
        fault_events = self._fault_events
        tracer = self.tracer
        meet_counts = [0] * len(nodes)
        for kinds_b, times_b, arg_a, arg_b, _px, _py, _rp, snap in (
            self._iter_chunks()
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
                    if not (node_a.online and node_b.online):
                        metrics.n_contacts_blocked += 1
                        continue
                    t = mt[p]
                    if drop_prob > 0.0 and fault_rng is not None:
                        if fault_rng.random() < drop_prob:
                            metrics.n_contacts_dropped += 1
                            if tracer is not None:
                                tracer.emit(
                                    trace_events.CONTACT_DROP, t, a=a, b=b
                                )
                            continue
                    if tracer is not None:
                        self._now = t
                    if is_server_tbl[b]:
                        count = meet_counts[a] + 1
                        meet_counts[a] = count
                        out = outstanding_tbl[a]
                        if out:
                            if timed and floor_tbl[a] < t - timeout:
                                expire_requests(node_a, t - timeout)
                            if tracer is not None:
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
                            if tracer is not None:
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
                elif kind == 1:  # EVENT_REQUEST: a = item, b = node
                    item = ma[p]
                    node_id = mb[p]
                    t = mt[p]
                    if not nodes[node_id].online:
                        # The device is down; no request is generated.
                        metrics.n_requests_offline += 1
                        if tracer is not None:
                            tracer.emit(
                                trace_events.OFFLINE, t, item=item,
                                node=node_id,
                            )
                        continue
                    metrics.n_generated += 1
                    if item in cache_tbl[node_id]:
                        if skip_self:
                            metrics.n_skipped_self += 1
                            if tracer is not None:
                                tracer.emit(
                                    trace_events.SKIPPED, t, item=item,
                                    node=node_id,
                                )
                        elif h0_finite:
                            record_fulfillment(t, 0.0, h0, immediate=True)
                            if tracer is not None:
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
                        if tracer is not None:
                            tracer.emit(
                                trace_events.REQUEST, t, item=item,
                                node=node_id,
                            )
                else:  # EVENT_FAULT: arg_a = fault index
                    t = mt[p]
                    self._now = t
                    self._apply_fault(t, fault_events[ma[p]])
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
        hits: Collection[int],
    ) -> None:
        """Fulfill the *hits* items, in the requester's insertion order.

        *hits* is any collection supporting ``len`` and membership —
        the hot loops pass a one-element tuple when the requester has a
        single outstanding item, sparing the set intersection.  Traced
        runs emit one ``FULFILL`` per request, after its metrics update
        and before ``on_fulfill``.
        """
        if len(hits) < len(outstanding):
            fulfilled = [item for item in outstanding if item in hits]
        else:
            fulfilled = list(outstanding)
        metrics = self.metrics
        tracer = self.tracer
        notify = not self._hook_free_fulfill
        on_fulfill = self.protocol.on_fulfill
        requester = self.nodes[requester_id]
        provider = self.nodes[provider_id]
        pop = outstanding.pop
        step_tau = self._step_tau
        if step_tau is not None:
            # Step utility: the gain is a bare comparison (always 0 or
            # 1, so provably finite) and the metrics update is inlined
            # in ``record_fulfillment``'s exact statement order.  The
            # window index depends only on *t*, so it is computed once.
            tie_gain = self._h0 if self._h0_finite else 0.0
            delays_append = metrics.delays.append
            window_gains = metrics.window_gains
            window_fulfillments = metrics.window_fulfillments
            window = min(
                int(t / metrics.window_length), len(window_gains) - 1
            )
            for item in fulfilled:
                for request in pop(item):
                    delay = t - request.created_at
                    if delay > 0:
                        gain = 1.0 if delay <= step_tau else 0.0
                    else:
                        # Measure-zero tie between a request and a
                        # contact at the same instant.
                        gain = tie_gain
                    metrics.total_gain += gain
                    metrics.n_fulfilled += 1
                    delays_append(delay)
                    window_gains[window] += gain
                    window_fulfillments[window] += 1
                    if tracer is not None:
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
            return
        utility = self._utility
        h0 = self._h0
        isfinite = math.isfinite
        record_fulfillment = metrics.record_fulfillment
        for item in fulfilled:
            for request in pop(item):
                delay = t - request.created_at
                gain = float(utility(delay)) if delay > 0 else h0
                if not isfinite(gain):
                    # Measure-zero tie between a request and a contact at
                    # the same instant under an unbounded utility.
                    gain = 0.0
                record_fulfillment(t, delay, gain)
                if tracer is not None:
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
        request, after its item's metrics update.
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
                    metrics.record_abandonment(deadline, self._abandoned_gain)
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
    # fault injection
    # ------------------------------------------------------------------
    def _apply_fault(self, t: float, event: FaultEvent) -> None:
        if event.kind == "crash":
            self._crash_node(t, event)
        elif event.kind == "recover":
            self._recover_node(t, event)
        else:  # "replica_loss"
            self._lose_replica(t, event)

    def _crash_node(self, t: float, event: FaultEvent) -> None:
        node = self.nodes[event.node]  # type: ignore[index]
        if not node.online:
            return  # already down; crash is idempotent
        node.online = False
        self.metrics.record_crash(t, node.node_id)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                trace_events.CRASH,
                t,
                node=node.node_id,
                n_requests_lost=(
                    node.n_outstanding() if node.outstanding else 0
                ),
                n_mandates_lost=(
                    sum(node.mandates.values())
                    if event.lose_mandates and node.mandates
                    else 0
                ),
            )
            for item, request_list in node.outstanding.items():
                for request in request_list:
                    tracer.emit(
                        trace_events.LOST,
                        t,
                        item=item,
                        node=node.node_id,
                        created_at=request.created_at,
                    )
        if node.outstanding:
            self.metrics.n_requests_lost += node.n_outstanding()
            node.outstanding.clear()
        if event.lose_mandates and node.mandates:
            self.metrics.n_mandates_lost += sum(node.mandates.values())
            node.mandates.clear()
        if event.wipe_cache and node.cache is not None and len(node.cache):
            assert self.faults is not None
            count_before = int(self.counts.sum())
            cache = node.cache
            lost = 0
            if not self.faults.sticky_survives and cache.sticky is not None:
                item = cache.unpin()
                if item is not None and self.sticky_owner is not None:
                    # The network-wide no-extinction guarantee is gone
                    # for this item; mandate routing stops favoring the
                    # (now nonexistent) sticky node.
                    self.sticky_owner[item] = -1
            for item in sorted(cache.items()):
                if self.remove_copy(node, item):
                    lost += 1
            self.metrics.record_replica_loss(t, lost, count_before)

    def _recover_node(self, t: float, event: FaultEvent) -> None:
        node = self.nodes[event.node]  # type: ignore[index]
        if node.online:
            return
        node.online = True
        self.metrics.record_recovery(t, node.node_id)
        if self.tracer is not None:
            self.tracer.emit(trace_events.RECOVER, t, node=node.node_id)

    def _lose_replica(self, t: float, event: FaultEvent) -> None:
        count_before = int(self.counts.sum())
        if event.node is not None:
            node = self.nodes[event.node]
            item = event.item
            if item is None:
                item = self._pick_lossy_item(node)
                if item is None:
                    return
            if self.remove_copy(node, item):
                self.metrics.record_replica_loss(t, 1, count_before)
            return
        # Unresolved loss: destroy a uniformly random non-sticky
        # replica anywhere in the network (schedule RNG, sorted
        # candidate order — fully deterministic per schedule seed).
        rng = self._fault_rng
        assert rng is not None
        candidates = [
            (node, item)
            for node in self.nodes
            if node.cache is not None
            for item in sorted(node.cache.items())
            if item != node.cache.sticky
        ]
        if not candidates:
            return
        node, item = candidates[int(rng.integers(len(candidates)))]
        if self.remove_copy(node, item):
            self.metrics.record_replica_loss(t, 1, count_before)

    def _pick_lossy_item(self, node: NodeState) -> Optional[int]:
        """A random non-sticky cached item of *node*, or ``None``."""
        cache = node.cache
        if cache is None:
            return None
        rng = self._fault_rng
        assert rng is not None
        pool = [i for i in sorted(cache.items()) if i != cache.sticky]
        if not pool:
            return None
        return pool[int(rng.integers(len(pool)))]

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _take_snapshot(self, t: float) -> None:
        mandates = self.protocol.mandate_totals(self)
        self.metrics.record_snapshot(t, self.counts, mandates)

    def _settle_unfulfilled(self) -> int:
        """Apply the end-of-horizon policy to outstanding requests."""
        utility = self.config.utility
        horizon = self.trace.duration
        truncate = self.config.unfulfilled_policy == "truncate"
        tracer = self.tracer
        n_unfulfilled = 0
        # Outstanding requests can only live on nodes that issued one,
        # so settle visits those — not every node, which at million-node
        # scale costs more than the whole streamed run loop.
        for node_id in np.unique(self._req_nodes):
            node = self.nodes[node_id]
            for item, request_list in node.outstanding.items():
                for request in request_list:
                    n_unfulfilled += 1
                    if tracer is not None:
                        tracer.emit(
                            trace_events.UNFULFILLED,
                            horizon,
                            item=item,
                            node=node.node_id,
                            created_at=request.created_at,
                            age=horizon - request.created_at,
                        )
                    if truncate:
                        age = horizon - request.created_at
                        if age > 0:
                            gain = float(utility(age))
                            if math.isfinite(gain):
                                self.metrics.record_end_of_run_gain(gain)
        return n_unfulfilled


def simulate(
    trace: ContactTrace,
    requests: RequestSchedule,
    config: SimulationConfig,
    protocol: ReplicationProtocol,
    seed: SeedLike = None,
    faults: Optional[FaultSchedule] = None,
    tracer: Optional[Tracer] = None,
    manifest: bool = False,
    chunk_events: Optional[int] = None,
    prebuilt_events: Optional[EventStream] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it.

    *tracer*, when active, records the full request lifecycle (see
    :mod:`repro.obs`); *manifest* forces provenance collection even on
    untraced runs (traced runs always collect it).  *chunk_events*
    forces the streamed event pipeline with that merge block size;
    memory-mapped traces stream automatically (see
    :class:`Simulation`).  *prebuilt_events*, when given, reuses a
    trial-scoped merged stream built once by
    :func:`repro.sim.events.build_event_stream` over the very same
    trace/requests/faults — validated on receipt, bit-identical to an
    inline merge.
    """
    return Simulation(
        trace,
        requests,
        config,
        protocol,
        seed=seed,
        faults=faults,
        tracer=tracer,
        collect_manifest=manifest,
        chunk_events=chunk_events,
        prebuilt_events=prebuilt_events,
    ).run()
