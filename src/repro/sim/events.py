"""Trial-scoped event-stream construction.

The merged request/contact stream consumed by the engine's hot loops
is a pure function of ``(trace, requests, config)`` — it
does not depend on the protocol under test.  A sweep that compares P
protocols over the same realized trial therefore pays P identical
lexsort merges when each :class:`~repro.sim.engine.Simulation` builds
its own stream.  This module hoists the construction into free
functions plus a reusable :class:`EventStream` value so the sweep
runner can build the stream once per trial and hand the same read-only
arrays to every protocol via ``Simulation(prebuilt_events=...)``.

Nothing about the stream's *content* changes: the builder here is the
exact code the engine ran inline, and the engine validates on receipt
that a prebuilt stream belongs to the run's own trace, requests, and
config before trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from ..contacts import ContactTrace
from ..demand import RequestSchedule
from ..errors import ConfigurationError
from ..types import FloatArray, IntArray
from .config import SimulationConfig

__all__ = [
    "EVENT_CONTACT",
    "EVENT_REQUEST",
    "Chunk",
    "EventStream",
    "build_event_stream",
    "cut_chunks",
    "server_slot_payloads",
]

#: Kind codes of the pre-merged event stream.  The numeric order *is*
#: the documented same-time tie rule: requests apply before contacts.
EVENT_REQUEST = 1
EVENT_CONTACT = 2

#: One pre-cut run of the merged stream, as consumed by the hot loops:
#: ``(kinds, times, arg_a, arg_b, payload_x, payload_y, request_positions,
#: snapshot)``.  The payload columns and request-position index exist only
#: in plain (untraced) mode; *snapshot*, when not ``None``, is
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


def grouped_searchsorted(
    haystack: IntArray, queries: IntArray, groups: IntArray, n_groups: int
) -> IntArray:
    """``np.searchsorted(haystack, queries)`` for group-major queries.

    *queries* must ascend within each of the *groups* (ids below
    *n_groups*), with the group as the key's major part.  A stable sort
    by group — a radix sort up to 65,536 groups — then orders them
    overall, and sorted queries search several times faster than
    scattered ones.
    """
    order = np.argsort(
        groups.astype(np.uint16) if n_groups <= 1 << 16 else groups,
        kind="stable",
    )
    found = np.empty(len(queries), dtype=np.int64)
    found[order] = np.searchsorted(haystack, queries[order])
    return found


def server_slot_payloads(
    kinds: IntArray,
    arg_a: IntArray,
    arg_b: IntArray,
    *,
    is_server: npt.NDArray[np.bool_],
    requester: npt.NDArray[np.bool_],
) -> Tuple[IntArray, IntArray, IntArray]:
    """Widened payload columns for the sorted stream, plus its
    server-slot key.

    The plain (untraced) loop consumes precomputed query-counter
    state: a request's final query counter is the number of
    direction slots in which its node met a server between creation
    and fulfillment — a pure function of the contact trace, so
    per-event payloads
    replace all per-request counter bookkeeping.  Contacts carry
    each endpoint's inclusive server-meeting count (``-1`` when
    the peer is not a server, i.e. the direction is a no-op),
    requests carry the node's count at creation, and the counter
    at fulfillment is the difference (see ``_fulfill_hits``).
    The traced loop maintains the same counts dynamically instead.

    The key lists every counted direction slot — a requesting node
    meeting a server — as ``node * len(kinds) + position``, sorted: by
    node, then stream position.  Request births are one global
    ``searchsorted`` of ``(node, position)`` into it, and the static
    kernel (:mod:`repro.sim.static`) finds a request's expiring
    contact in the same key.

    Grouping by node uses no comparison sort.  The slots are listed in
    stream order, an event's a-slot before its b-slot: a running count
    of the per-event a/b flags ranks each slot in one linear pass.  A
    stable ``argsort`` on the node ids alone then groups slots by node
    while preserving stream order within each node.  That is
    order-identical to the packed ``(node << shift) | slot`` key sort
    it replaces.  NumPy's stable argsort is a radix sort only for
    integer keys of at most 16 bits, so up to 65,536 nodes the slot
    list holds its node ids as ``uint16``: a stable sort's permutation
    is unique, so only the speed changes.  The per-node counts are
    carried back to stream order through the inverse permutation and
    written to both payload columns by rank.
    """
    total = len(kinds)
    # Meeting counts are only ever read for a node with outstanding
    # requests (every ``mx``/``my`` read in the run loop sits behind
    # an ``out_a``/``out_b`` guard), and outstanding requests can only
    # exist on nodes that appear in the request schedule.  Restricting
    # the counted slots to those nodes keeps every consumed value
    # exact while shrinking the grouping pass from O(contacts) to
    # O(contacts involving requesters) — at million-node scale that is
    # the difference between the payload pass dominating the run and
    # it vanishing.
    contact_mask = kinds == EVENT_CONTACT
    # arg_a holds item ids on request rows, which may exceed the
    # node-id range: clip the gathers (contact_mask drops those rows).
    count_a_valid = contact_mask & is_server[arg_b]
    count_a_valid &= requester.take(arg_a, mode="clip")
    count_b_valid = contact_mask & is_server.take(arg_a, mode="clip")
    count_b_valid &= requester[arg_b]
    idx_a = np.flatnonzero(count_a_valid)
    idx_b = np.flatnonzero(count_b_valid)
    n_inc = len(idx_a) + len(idx_b)
    payload_x = np.full(total, -1, dtype=np.int64)
    payload_y = np.full(total, -1, dtype=np.int64)
    slot_key = np.zeros(0, dtype=np.int64)
    if n_inc:
        # Stream-order rank of each slot: the slots of earlier events,
        # plus one for a b-slot whose event also has an a-slot.
        slots_through = np.cumsum(
            count_a_valid.view(np.uint8) + count_b_valid.view(np.uint8),
            dtype=np.int64,
        )
        rank_a = slots_through[idx_a] - 1 - count_b_valid[idx_a]
        rank_b = slots_through[idx_b] - 1
        # Arrays are freed once spent: this pass sits near a quick
        # sweep's peak memory.
        del slots_through
        seq_nodes = np.empty(
            n_inc, dtype=np.uint16 if len(is_server) <= 1 << 16 else np.int64
        )
        seq_idx = np.empty(n_inc, dtype=np.int64)
        seq_nodes[rank_a] = arg_a[idx_a]
        seq_idx[rank_a] = idx_a
        seq_nodes[rank_b] = arg_b[idx_b]
        seq_idx[rank_b] = idx_b
        order = np.argsort(seq_nodes, kind="stable")
        g_nodes = seq_nodes[order].astype(np.int64)
        slot_key = g_nodes * total + seq_idx[order]
        del seq_nodes, seq_idx
        new_group = np.empty(n_inc, dtype=bool)
        new_group[0] = True
        np.not_equal(g_nodes[1:], g_nodes[:-1], out=new_group[1:])
        starts = np.flatnonzero(new_group)
        sizes = np.diff(np.append(starts, n_inc))
        # 1-based rank within each node's increment run: the
        # inclusive meeting count at that slot.
        counts_g = (
            np.arange(n_inc, dtype=np.int64) - np.repeat(starts, sizes) + 1
        )
        counts = np.empty(n_inc, dtype=np.int64)
        counts[order] = counts_g
        del counts_g, order
        payload_x[idx_a] = counts[rank_a]
        payload_y[idx_b] = counts[rank_b]
    # Request births: the node's meeting count just before the
    # request's position — its slots before that key, less the index
    # where the node's keys start (the next node's start when it has
    # none).
    req_positions = np.flatnonzero(kinds == EVENT_REQUEST)
    if len(req_positions):
        req_nodes = arg_b[req_positions]
        before = grouped_searchsorted(
            slot_key, req_nodes * total + req_positions, req_nodes,
            len(is_server),
        )
        if n_inc:
            group_start = np.append(starts, n_inc)[
                np.searchsorted(g_nodes[starts], req_nodes)
            ]
        else:
            group_start = 0
        payload_x[req_positions] = before - group_start
    return payload_x, payload_y, slot_key


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
    payload_mode: bool,
) -> List[Chunk]:
    """Cut the sorted event stream at its snapshot instants.

    Each chunk is the run of events strictly before one snapshot
    fires, so the hot loops carry no per-event snapshot comparison.
    A snapshot past the stream's end still fires, on an empty chunk.
    """
    n = len(kinds)
    chunks: List[Chunk] = []
    start = 0
    for snap in snap_times:
        pos = int(np.searchsorted(times, snap, side="left"))
        chunks.append(
            _chunk_tuple(
                kinds, times, arg_a, arg_b, payload_x, payload_y,
                start, pos, snap, payload_mode,
            )
        )
        start = pos
    if start < n:
        chunks.append(
            _chunk_tuple(
                kinds, times, arg_a, arg_b, payload_x, payload_y,
                start, n, None, payload_mode,
            )
        )
    return chunks


@dataclass(frozen=True)
class EventStream:
    """One trial's merged event stream, reusable across protocols.

    Produced by :func:`build_event_stream` and accepted by
    ``Simulation(prebuilt_events=...)``.  The identity fields
    (*trace*, *requests*, *config_fingerprint*) are what the
    engine validates on receipt: a prebuilt stream is only trusted for
    a run over the very same objects and an equivalent config.  All
    array fields are shared read-only — neither the builder nor the
    engine ever mutates them after construction.
    """

    trace: ContactTrace
    requests: RequestSchedule
    config_fingerprint: str
    #: Whether the plain-mode payload columns were materialized.  A
    #: payload-bearing stream also serves traced runs (the instrumented
    #: loop ignores payloads).
    payload_mode: bool
    n_events: int
    #: The nodes that issue at least one request, ascending.
    requesting_nodes: IntArray
    #: Whether every node is a server.
    all_servers: bool
    event_times: FloatArray
    event_kinds: IntArray
    event_a: IntArray
    event_b: IntArray
    chunks: List[Chunk]
    #: The server-slot key of :func:`server_slot_payloads` (``None``
    #: without payloads).
    server_slots: Optional[IntArray] = None
    #: Protocol-independent indexes derived from the stream on first
    #: use (see :mod:`repro.sim.static`), so they live and die with it.
    memo: Dict[Any, Any] = field(
        default_factory=dict, repr=False, compare=False
    )


def build_event_stream(
    trace: ContactTrace,
    requests: RequestSchedule,
    config: SimulationConfig,
    *,
    payloads: bool = True,
) -> EventStream:
    """Merge contacts and requests into one sorted stream.

    Each stream arrives individually time-sorted; a single stable
    ``np.lexsort`` on ``(time, kind)`` interleaves them while
    preserving the request -> contact same-time tie rule
    (kind codes are ordered that way) and the original order within
    each stream.  The merged stream stays columnar — flat NumPy
    arrays the hot loops index directly.

    The whole stream is materialized and pre-cut at snapshot instants,
    exactly as ``Simulation`` builds it for itself when no prebuilt
    stream is given.

    *payloads* controls the plain-mode payload columns; only the
    untraced loop reads them.
    """
    if requests.duration > trace.duration + 1e-9:
        raise ConfigurationError(
            "request schedule extends past the contact trace"
        )
    horizon = trace.duration
    n_nodes = trace.n_nodes
    is_server = np.zeros(n_nodes, dtype=bool)
    server_ids = config.server_ids(n_nodes)
    if len(server_ids):
        is_server[np.asarray(server_ids, dtype=np.int64)] = True
    # Nodes that ever issue a request.  Outstanding requests — the
    # only consumers of precomputed meeting counts — can exist
    # nowhere else, so payload slots are computed for these nodes
    # only (see ``server_slot_payloads``).
    requester = np.zeros(n_nodes, dtype=bool)
    requester[requests.nodes] = True
    snap_times = snapshot_instants(config.record_interval, horizon)
    n_q, n_c = len(requests.times), len(trace.times)
    total = n_q + n_c
    times = np.empty(total, dtype=np.float64)
    times[:n_q] = requests.times
    times[n_q:] = trace.times
    kinds = np.empty(total, dtype=np.int64)
    kinds[:n_q] = EVENT_REQUEST
    kinds[n_q:] = EVENT_CONTACT
    # First/second payload slot per kind: request item / requesting
    # node, contact endpoints a / b.
    arg_a = np.empty(total, dtype=np.int64)
    arg_a[:n_q] = requests.items
    arg_a[n_q:] = trace.node_a
    arg_b = np.empty(total, dtype=np.int64)
    arg_b[:n_q] = requests.nodes
    arg_b[n_q:] = trace.node_b
    order = np.lexsort((kinds, times))
    sorted_times = times[order]
    sorted_kinds = kinds[order]
    sorted_a = arg_a[order]
    sorted_b = arg_b[order]
    payload_x: Optional[IntArray]
    payload_y: Optional[IntArray]
    server_slots: Optional[IntArray]
    if payloads:
        payload_x, payload_y, server_slots = server_slot_payloads(
            sorted_kinds,
            sorted_a,
            sorted_b,
            is_server=is_server,
            requester=requester,
        )
    else:
        payload_x = payload_y = server_slots = None
    chunks = cut_chunks(
        sorted_kinds,
        sorted_times,
        sorted_a,
        sorted_b,
        payload_x,
        payload_y,
        snap_times=snap_times,
        payload_mode=payloads,
    )
    return EventStream(
        trace=trace,
        requests=requests,
        config_fingerprint=config.fingerprint(),
        payload_mode=payloads,
        n_events=total,
        requesting_nodes=np.flatnonzero(requester),
        all_servers=bool(is_server.all()),
        event_times=sorted_times,
        event_kinds=sorted_kinds,
        event_a=sorted_a,
        event_b=sorted_b,
        chunks=chunks,
        server_slots=server_slots,
    )
