"""Trial-scoped event-stream construction.

The merged fault/request/contact stream consumed by the engine's hot
loops is a pure function of ``(trace, requests, faults, config)`` — it
does not depend on the protocol under test.  A sweep that compares P
protocols over the same realized trial therefore pays P identical
lexsort merges when each :class:`~repro.sim.engine.Simulation` builds
its own stream.  This module hoists the construction into free
functions plus a reusable :class:`EventStream` value so the sweep
runner can build the stream once per trial and hand the same read-only
arrays to every protocol via ``Simulation(prebuilt_events=...)``.

Nothing about the stream's *content* changes: the builder here is the
exact code the engine ran inline, and the engine validates on receipt
that a prebuilt stream belongs to the run's own trace, requests,
faults, and config before trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from ..contacts import ContactTrace
from ..demand import RequestSchedule
from ..errors import ConfigurationError
from ..faults import FaultEvent, FaultSchedule
from ..types import FloatArray, IntArray
from .config import SimulationConfig

__all__ = [
    "EVENT_CONTACT",
    "EVENT_FAULT",
    "EVENT_REQUEST",
    "Chunk",
    "EventStream",
    "StreamSideState",
    "build_event_stream",
    "compute_plain_payloads",
    "cut_chunks",
    "stream_side_state",
]

#: Kind codes of the pre-merged event stream.  The numeric order *is*
#: the documented same-time tie rule: faults apply first (a node that
#: crashes at t is already offline for a contact at t), then requests,
#: then contacts.
EVENT_FAULT = 0
EVENT_REQUEST = 1
EVENT_CONTACT = 2

#: One pre-cut run of the merged stream, as consumed by the hot loops:
#: ``(kinds, times, arg_a, arg_b, payload_x, payload_y, request_positions,
#: snapshot)``.  The payload columns and request-position index exist only
#: in plain (untraced, fault-free) mode; *snapshot*, when not ``None``, is
#: the instant to record after the chunk's events.
Chunk = Tuple[
    IntArray,
    FloatArray,
    IntArray,
    IntArray,
    Optional[IntArray],
    Optional[IntArray],
    Optional[List[int]],
    Optional[float],
]


def memmap_backed(array: np.ndarray) -> bool:
    """True when *array* is (a view of) a memory-mapped file."""
    seen: object = array
    while isinstance(seen, np.ndarray):
        if isinstance(seen, np.memmap):
            return True
        seen = seen.base
    return False


def snapshot_instants(
    record_interval: Optional[float], horizon: float
) -> List[float]:
    """Snapshot instants, by the same repeated float accumulation the
    per-event loop used (not ``np.arange``), so the recorded instants
    are bit-identical; ``side='left'`` in :func:`cut_chunks` puts a
    snapshot at time s before any event at exactly s, matching the old
    ``t >= s`` rule."""
    snap_times: List[float] = []
    if record_interval is not None:
        s = 0.0
        while s <= horizon:
            snap_times.append(s)
            s += record_interval
    return snap_times


@dataclass(frozen=True)
class StreamSideState:
    """The merge's side arrays, shared by eager and streamed modes.

    Everything here is derived from ``(trace, requests, faults,
    config)`` before any event is merged: the horizon-filtered fault
    list, contiguous request columns, the server/requester masks the
    payload pass consumes, and the snapshot instants the stream is cut
    at.
    """

    fault_events: List[FaultEvent]
    fault_times: FloatArray
    req_times: FloatArray
    req_items: IntArray
    req_nodes: IntArray
    is_server: npt.NDArray[np.bool_]
    requester: npt.NDArray[np.bool_]
    all_servers: bool
    snap_times: List[float]


def stream_side_state(
    trace: ContactTrace,
    requests: RequestSchedule,
    config: SimulationConfig,
    faults: Optional[FaultSchedule] = None,
) -> StreamSideState:
    horizon = trace.duration
    n_nodes = trace.n_nodes
    fault_events: List[FaultEvent] = (
        [e for e in faults.events if e.time <= horizon]
        if faults is not None
        else []
    )
    fault_times: FloatArray = np.asarray(
        [e.time for e in fault_events], dtype=np.float64
    )
    # ascontiguousarray passes memory-mapped columns through
    # untouched (no copy) when the dtype already matches, so the
    # streamed merge reads request/fault columns lazily too.
    req_times: FloatArray = np.ascontiguousarray(
        requests.times, dtype=np.float64
    )
    req_items: IntArray = np.ascontiguousarray(requests.items, dtype=np.int64)
    req_nodes: IntArray = np.ascontiguousarray(requests.nodes, dtype=np.int64)
    is_server = np.zeros(n_nodes, dtype=bool)
    server_ids = config.server_ids(n_nodes)
    if len(server_ids):
        is_server[np.asarray(server_ids, dtype=np.int64)] = True
    # Nodes that ever issue a request.  Outstanding requests — the
    # only consumers of precomputed meeting counts — can exist
    # nowhere else, so payload slots are computed for these nodes
    # only (see ``compute_plain_payloads``).
    requester = np.zeros(n_nodes, dtype=bool)
    requester[req_nodes] = True
    return StreamSideState(
        fault_events=fault_events,
        fault_times=fault_times,
        req_times=req_times,
        req_items=req_items,
        req_nodes=req_nodes,
        is_server=is_server,
        requester=requester,
        all_servers=bool(is_server.all()),
        snap_times=snapshot_instants(config.record_interval, horizon),
    )


def compute_plain_payloads(
    kinds: IntArray,
    arg_a: IntArray,
    arg_b: IntArray,
    meet_base: IntArray,
    *,
    is_server: npt.NDArray[np.bool_],
    requester: npt.NDArray[np.bool_],
) -> Tuple[IntArray, IntArray]:
    """Widened payload columns for one sorted event block.

    The plain (untraced, fault-free) loop consumes precomputed
    query-counter state: a request's final query counter is the
    number of direction slots in which its node met a server
    between creation and fulfillment — in a fault-free run that is
    a pure function of the contact trace, so per-event payloads
    replace all per-request counter bookkeeping.  Contacts carry
    each endpoint's inclusive server-meeting count (``-1`` when
    the peer is not a server, i.e. the direction is a no-op),
    requests carry the node's count at creation, and the counter
    at fulfillment is the difference (see ``_fulfill_hits``).
    With faults, blocked and dropped contacts must not count, so
    the fault loop maintains the same counts dynamically instead.

    *meet_base* holds each node's running meeting counter entering the
    block and is advanced in place for the following block — the
    streamed pipeline's carry (all zeros and discarded in eager mode).

    Grouping by node uses no comparison sort: the two direction-slot
    lists are merged positionally with two ``searchsorted`` calls
    (each list is already in stream order), and a stable — for int64
    keys, radix — ``argsort`` on the node ids alone then groups slots
    by node while preserving stream order within each node.  That is
    order-identical to the packed ``(node << shift) | slot`` key sort
    it replaces: an a-slot precedes the same event's b-slot in both.
    """
    total = len(kinds)
    # Meeting counts are only ever read for a node with outstanding
    # requests (every ``mx``/``my`` read in the run loops sits
    # behind an ``out``/``out_a``/``out_b`` guard), and outstanding
    # requests can only exist on nodes that appear in the request
    # schedule.  Restricting the counted slots to those nodes keeps
    # every consumed value exact while shrinking the grouping pass
    # from O(contacts) to O(contacts involving requesters) — at
    # million-node scale that is the difference between the payload
    # pass dominating the run and it vanishing.  (In the
    # non-all-server candidate filter the ``served`` mask weakens
    # accordingly, which only drops contacts that are provable
    # no-ops: a non-requester endpoint can never fulfill.)
    contact_mask = kinds == EVENT_CONTACT
    # arg_a holds item ids on request rows, which may exceed the
    # node-id range: clip the gathers (contact_mask drops those rows).
    count_a_valid = contact_mask & is_server[arg_b]
    count_a_valid &= requester.take(arg_a, mode="clip")
    count_b_valid = contact_mask & is_server.take(arg_a, mode="clip")
    count_b_valid &= requester[arg_b]
    idx_a = np.flatnonzero(count_a_valid)
    idx_b = np.flatnonzero(count_b_valid)
    n_a = len(idx_a)
    n_b = len(idx_b)
    n_inc = n_a + n_b
    payload_x = np.full(total, -1, dtype=np.int64)
    payload_y = np.full(total, -1, dtype=np.int64)
    if n_inc:
        # Positional merge of the two stream-ordered slot lists.  The
        # merged order is by (event, direction) with a before b, so an
        # a-slot at event e lands after every b-slot at an earlier
        # event (side='left') and a b-slot lands after every a-slot at
        # its own event or earlier (side='right').
        rank_a = np.arange(n_a, dtype=np.int64) + np.searchsorted(
            idx_b, idx_a, side="left"
        )
        rank_b = np.arange(n_b, dtype=np.int64) + np.searchsorted(
            idx_a, idx_b, side="right"
        )
        seq_nodes = np.empty(n_inc, dtype=np.int64)
        seq_idx = np.empty(n_inc, dtype=np.int64)
        seq_b_side = np.empty(n_inc, dtype=bool)
        seq_nodes[rank_a] = arg_a[idx_a]
        seq_idx[rank_a] = idx_a
        seq_b_side[rank_a] = False
        seq_nodes[rank_b] = arg_b[idx_b]
        seq_idx[rank_b] = idx_b
        seq_b_side[rank_b] = True
        order = np.argsort(seq_nodes, kind="stable")
        g_nodes = seq_nodes[order]
        g_idx = seq_idx[order]
        b_side = seq_b_side[order]
        new_group = np.empty(n_inc, dtype=bool)
        new_group[0] = True
        np.not_equal(g_nodes[1:], g_nodes[:-1], out=new_group[1:])
        starts = np.flatnonzero(new_group)
        sizes = np.diff(np.append(starts, n_inc))
        # 1-based rank within each node's increment run plus the
        # carried base: the inclusive meeting count at that slot.
        counts_g = (
            np.arange(n_inc, dtype=np.int64)
            - np.repeat(starts, sizes)
            + 1
            + meet_base[g_nodes]
        )
        payload_x[g_idx[~b_side]] = counts_g[~b_side]
        payload_y[g_idx[b_side]] = counts_g[b_side]
    else:
        g_nodes = np.zeros(0, dtype=np.int64)
        g_idx = np.zeros(0, dtype=np.int64)
        starts = np.zeros(0, dtype=np.int64)
        sizes = np.zeros(0, dtype=np.int64)
    # Request births: the node's meeting count just before the
    # request's position in the stream.
    request_mask = kinds == EVENT_REQUEST
    if request_mask.any():
        req_positions = np.flatnonzero(request_mask)
        req_nodes = arg_b[req_positions]
        births = meet_base[req_nodes]
        if n_inc:
            # Group the requests by node as well, then rank each
            # run against its node's increment segment with one
            # searchsorted per node — no per-node dict and no
            # O(requests) mask per node, which dominated
            # million-node streamed blocks.
            req_order = np.lexsort(  # repro-lint: ignore[RPL004]
                (req_positions, req_nodes)
            )
            rn = req_nodes[req_order]
            rp = req_positions[req_order]
            run_starts = np.flatnonzero(
                np.concatenate(([True], rn[1:] != rn[:-1]))
            )
            run_ends = np.append(run_starts[1:], len(rn))
            group_heads = g_nodes[starts]
            group_idx = np.searchsorted(group_heads, rn[run_starts])
            for head, lo_r, hi_r in zip(group_idx, run_starts, run_ends):
                if (
                    head >= len(group_heads)
                    or group_heads[head] != rn[lo_r]
                ):
                    continue
                lo = starts[head]
                hi = lo + sizes[head]
                births[req_order[lo_r:hi_r]] += np.searchsorted(
                    g_idx[lo:hi], rp[lo_r:hi_r], side="left"
                )
        payload_x[req_positions] = births
    if n_inc:
        # Advance the carry.  ``g_nodes[starts]`` lists each node at
        # most once, so the fancy-index add never collapses writes.
        meet_base[g_nodes[starts]] += sizes
    return payload_x, payload_y


def _chunk_tuple(
    kinds: IntArray,
    times: FloatArray,
    arg_a: IntArray,
    arg_b: IntArray,
    payload_x: Optional[IntArray],
    payload_y: Optional[IntArray],
    lo: int,
    hi: int,
    snap: Optional[float],
    payload_mode: bool,
) -> Chunk:
    kb = kinds[lo:hi]
    req_pos: Optional[List[int]] = None
    if payload_mode:
        req_pos = np.flatnonzero(kb == EVENT_REQUEST).tolist()
    return (
        kb,
        times[lo:hi],
        arg_a[lo:hi],
        arg_b[lo:hi],
        payload_x[lo:hi] if payload_x is not None else None,
        payload_y[lo:hi] if payload_y is not None else None,
        req_pos,
        snap,
    )


def cut_chunks(
    kinds: IntArray,
    times: FloatArray,
    arg_a: IntArray,
    arg_b: IntArray,
    payload_x: Optional[IntArray],
    payload_y: Optional[IntArray],
    *,
    snap_times: List[float],
    snap_idx: int,
    last: bool,
    payload_mode: bool,
) -> Tuple[List[Chunk], int]:
    """Cut one sorted event block at pending snapshot instants.

    Returns the chunks plus the advanced snapshot cursor.  Each
    chunk is the run of events strictly before one snapshot fires,
    so the hot loops carry no per-event snapshot comparison.  A
    snapshot past the block's end is deferred to a later block —
    unless *last*, in which case every remaining snapshot fires
    (possibly on empty chunks) so eager and streamed runs record
    the same instants.
    """
    n = len(kinds)
    chunks: List[Chunk] = []
    start = 0
    while snap_idx < len(snap_times):
        snap = snap_times[snap_idx]
        pos = int(np.searchsorted(times, snap, side="left"))
        if pos >= n and not last:
            break
        pos = min(pos, n)
        chunks.append(
            _chunk_tuple(
                kinds, times, arg_a, arg_b, payload_x, payload_y,
                start, pos, snap, payload_mode,
            )
        )
        start = pos
        snap_idx += 1
    if start < n:
        chunks.append(
            _chunk_tuple(
                kinds, times, arg_a, arg_b, payload_x, payload_y,
                start, n, None, payload_mode,
            )
        )
    return chunks, snap_idx


@dataclass(frozen=True)
class EventStream:
    """One trial's merged event stream, reusable across protocols.

    Produced by :func:`build_event_stream` and accepted by
    ``Simulation(prebuilt_events=...)``.  The identity fields
    (*trace*, *requests*, *faults*, *config_fingerprint*) are what the
    engine validates on receipt: a prebuilt stream is only trusted for
    a run over the very same objects and an equivalent config.  All
    array fields are shared read-only — neither the builder nor the
    engine ever mutates them after construction.
    """

    trace: ContactTrace
    requests: RequestSchedule
    faults: Optional[FaultSchedule]
    config_fingerprint: str
    #: Whether the plain-mode payload columns were materialized.  A
    #: payload-bearing stream also serves traced runs (the instrumented
    #: loop ignores payloads); a fault schedule forbids payloads entirely.
    payload_mode: bool
    n_events: int
    fault_events: List[FaultEvent]
    fault_times: FloatArray
    req_times: FloatArray
    req_items: IntArray
    req_nodes: IntArray
    is_server: npt.NDArray[np.bool_]
    requester: npt.NDArray[np.bool_]
    all_servers: bool
    snap_times: List[float]
    event_times: FloatArray
    event_kinds: IntArray
    event_a: IntArray
    event_b: IntArray
    chunks: List[Chunk]

    @property
    def nbytes(self) -> int:
        """Approximate heap footprint of the merged columns."""
        return int(
            self.event_times.nbytes
            + self.event_kinds.nbytes
            + self.event_a.nbytes
            + self.event_b.nbytes
        )


def build_event_stream(
    trace: ContactTrace,
    requests: RequestSchedule,
    config: SimulationConfig,
    faults: Optional[FaultSchedule] = None,
    *,
    payloads: Optional[bool] = None,
) -> EventStream:
    """Merge contacts, requests, and faults into one sorted stream.

    Each stream arrives individually time-sorted; a single stable
    ``np.lexsort`` on ``(time, kind)`` interleaves them while
    preserving the fault -> request -> contact same-time tie rule
    (kind codes are ordered that way) and the original order within
    each stream.  The merged stream stays columnar — flat NumPy
    arrays the hot loops index directly.

    This is the *eager* builder: the whole stream is materialized and
    pre-cut at snapshot instants, exactly as ``Simulation`` does
    inline for an in-memory trace.  Streamed mode (memory-mapped
    traces, explicit ``chunk_events``) has no prebuilt form — the
    engine merges block by block at run time and a prebuilt stream is
    rejected there.

    *payloads* controls the plain-mode payload columns; the default
    (``faults is None``) materializes them whenever valid.  Payloads
    under a fault schedule are meaningless (blocked and dropped
    contacts must not count) and requesting them raises.
    """
    if payloads is None:
        payloads = faults is None
    elif payloads and faults is not None:
        raise ConfigurationError(
            "plain-mode payloads are invalid under a fault schedule"
        )
    if requests.duration > trace.duration + 1e-9:
        raise ConfigurationError(
            "request schedule extends past the contact trace"
        )
    n_nodes = trace.n_nodes
    side = stream_side_state(trace, requests, config, faults)
    n_f = len(side.fault_events)
    n_q, n_c = len(requests.times), len(trace.times)
    total = n_f + n_q + n_c
    times = np.empty(total, dtype=np.float64)
    times[:n_f] = side.fault_times
    times[n_f : n_f + n_q] = requests.times
    times[n_f + n_q :] = trace.times
    kinds = np.empty(total, dtype=np.int64)
    kinds[:n_f] = EVENT_FAULT
    kinds[n_f : n_f + n_q] = EVENT_REQUEST
    kinds[n_f + n_q :] = EVENT_CONTACT
    # First/second payload slot per kind: fault index / unused,
    # request item / requesting node, contact endpoints a / b.
    arg_a = np.zeros(total, dtype=np.int64)
    arg_a[:n_f] = np.arange(n_f)
    arg_a[n_f : n_f + n_q] = requests.items
    arg_a[n_f + n_q :] = trace.node_a
    arg_b = np.zeros(total, dtype=np.int64)
    arg_b[n_f : n_f + n_q] = requests.nodes
    arg_b[n_f + n_q :] = trace.node_b
    order = np.lexsort((kinds, times))
    sorted_times = times[order]
    sorted_kinds = kinds[order]
    sorted_a = arg_a[order]
    sorted_b = arg_b[order]
    payload_x: Optional[IntArray]
    payload_y: Optional[IntArray]
    if payloads:
        payload_x, payload_y = compute_plain_payloads(
            sorted_kinds,
            sorted_a,
            sorted_b,
            np.zeros(n_nodes, dtype=np.int64),
            is_server=side.is_server,
            requester=side.requester,
        )
    else:
        payload_x = payload_y = None
    chunks, _ = cut_chunks(
        sorted_kinds,
        sorted_times,
        sorted_a,
        sorted_b,
        payload_x,
        payload_y,
        snap_times=side.snap_times,
        snap_idx=0,
        last=True,
        payload_mode=payloads,
    )
    return EventStream(
        trace=trace,
        requests=requests,
        faults=faults,
        config_fingerprint=config.fingerprint(),
        payload_mode=payloads,
        n_events=total,
        fault_events=side.fault_events,
        fault_times=side.fault_times,
        req_times=side.req_times,
        req_items=side.req_items,
        req_nodes=side.req_nodes,
        is_server=side.is_server,
        requester=side.requester,
        all_servers=side.all_servers,
        snap_times=side.snap_times,
        event_times=sorted_times,
        event_kinds=sorted_kinds,
        event_a=sorted_a,
        event_b=sorted_b,
        chunks=chunks,
    )
