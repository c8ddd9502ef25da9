"""Closed-form resolution of runs under a static allocation.

Under a protocol that overrides neither ``after_contact`` nor
``on_fulfill`` (the paper's OPT, SQRT, PROP, UNI and DOM), caches never
change after initialization.  By the argument behind Lemma 1, each
request's fate is then a first-passage question answered from the
contact trace alone:

* **f** — the first contact after its birth between its node and any
  holder of its item;
* **e** — the first contact of its node with a server at which
  ``t - timeout > created_at``: the plain loop's expiry scan at that
  contact drops it, and every earlier server contact leaves it (the
  per-node expiry floor only skips scans that would expire nothing).

A request expires at ``e`` when ``e <= f`` (the loop expires before it
fulfils, within one contact direction), is fulfilled at ``f`` when
``f < e``, and is still outstanding at the horizon when neither exists.

:func:`run_static` computes both positions for every request at once
and then writes the plain loop's log in its exact order — by (position,
direction, expiries before fulfilments, dict slot, birth) — so
``delays``, the abandonment log, the gain fold, snapshots and the
post-run ``outstanding`` dicts are bit-identical to the loop's.  The
dict slot is exact because resolution positions are monotone within a
(node, item) pair: a request opens a new slot precisely when its
predecessor resolved before its birth, and a slot keeps the place of
the request that opened it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..types import FloatArray, IntArray
from .events import (
    EVENT_CONTACT,
    EVENT_REQUEST,
    EventStream,
    grouped_searchsorted,
)
from .node import Request

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulation

__all__ = ["pair_index", "run_static"]

#: Request-holder entries expanded per block: bounds the transient
#: memory of :func:`_first_holder_contacts`.
_BLOCK_ENTRIES = 1 << 14


def pair_index(stream: EventStream) -> Tuple[IntArray, IntArray, IntArray]:
    """The trial's contact index by node pair, built once per stream.

    Returns ``(codes, ranks, keys)``.  *codes* lists the distinct
    unordered pairs ``lo * n_nodes + hi`` that meet, ascending; a
    pair's rank is its index there.  *keys* holds every contact as
    ``rank * n_events + position``, sorted: by pair, then position.
    Ranking densely keeps the key below ``n_events ** 2``, which fits
    int64 at any node count (a raw pair code times ``n_events`` would
    not at 10^6 nodes).  *ranks* maps a pair code straight to its rank
    (-1 for pairs that never meet) when that table is no larger than
    the contact index, and is empty otherwise; on the quick Fig. 4 and
    Fig. 5 sweeps the direct lookup beats the binary search over
    *codes* (docs/performance.md).
    """
    index = stream.memo.get("pairs")
    if index is None:
        n_nodes = stream.trace.n_nodes
        positions = np.flatnonzero(stream.event_kinds == EVENT_CONTACT)
        a = stream.event_a[positions]
        b = stream.event_b[positions]
        code = np.minimum(a, b) * n_nodes + np.maximum(a, b)
        # A stable argsort is a radix sort on 16-bit keys, and its
        # permutation is unique, so narrowing the codes changes only
        # the speed (as in ``events.grouped_searchsorted``).
        order = np.argsort(
            code.astype(np.uint16) if n_nodes * n_nodes <= 1 << 16 else code,
            kind="stable",
        )
        code = code[order]
        new_pair = np.ones(len(code), dtype=bool)
        np.not_equal(code[1:], code[:-1], out=new_pair[1:])
        rank = np.cumsum(new_pair) - 1
        codes = code[new_pair]
        ranks = np.zeros(0, dtype=np.int64)
        if n_nodes * n_nodes <= len(code):
            ranks = np.full(n_nodes * n_nodes, -1, dtype=np.int64)
            ranks[codes] = np.arange(len(codes))
        index = (codes, ranks, rank * stream.n_events + positions[order])
        stream.memo["pairs"] = index
    return index


def _first_holder_contacts(
    stream: EventStream,
    occupancy: np.ndarray,
    positions: IntArray,
    nodes: IntArray,
    items: IntArray,
) -> IntArray:
    """Position of each request's first contact, after its own
    position, with a holder of its item (``n_events`` if none).

    Each request expands into one entry per holder of its item, looked
    up in :func:`pair_index`; the expansion runs in blocks of about
    ``_BLOCK_ENTRIES`` entries.
    """
    n_events = stream.n_events
    first = np.full(len(positions), n_events, dtype=np.int64)
    codes, ranks, keys = pair_index(stream)
    if not len(keys):
        return first
    n_nodes = stream.trace.n_nodes
    hold_items, hold_nodes = np.nonzero(occupancy.T)
    n_holders = np.bincount(hold_items, minlength=occupancy.shape[1])
    item_start = np.cumsum(n_holders) - n_holders
    sizes = n_holders[items]
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(positions):
        limit = ends[lo] - sizes[lo] + _BLOCK_ENTRIES
        hi = max(int(np.searchsorted(ends, limit, side="right")), lo + 1)
        size = sizes[lo:hi]
        starts = np.cumsum(size) - size
        rows = np.repeat(np.arange(lo, hi), size)
        holder = hold_nodes[
            np.repeat(item_start[items[lo:hi]] - starts, size)
            + np.arange(len(rows))
        ]
        node = nodes[rows]
        code = np.minimum(node, holder) * n_nodes + np.maximum(node, holder)
        if len(ranks):
            rank = ranks[code]
            met = rank >= 0
        else:
            rank = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
            met = codes[rank] == code
        base = rank * n_events
        after = positions[rows]
        # Rows run in birth order, so the queries ascend within a pair.
        at = np.minimum(
            grouped_searchsorted(keys, base + after, rank, len(codes)),
            len(keys) - 1,
        )
        found = keys[at] - base
        met &= found > after
        met &= found < n_events
        candidate = np.where(met, found, n_events)
        some = size > 0
        if some.any():
            first[lo:hi][some] = np.minimum.reduceat(candidate, starts[some])
        lo = hi
    return first


def _first_expiries(
    stream: EventStream, nodes: IntArray, born: FloatArray, timeout: float
) -> IntArray:
    """Position of each request's first server contact at which
    ``t - timeout > born`` (``n_events`` if none).

    ``t - timeout`` is the loop's own IEEE subtraction and monotone in
    ``t``, so one ``searchsorted`` over the stream finds the first
    position past each deadline, and one more into the server-slot
    key finds the node's first server contact from there.
    """
    n_events = stream.n_events
    slots = stream.server_slots
    assert slots is not None
    if not len(slots):
        return np.full(len(nodes), n_events, dtype=np.int64)
    due = np.searchsorted(stream.event_times - timeout, born, side="right")
    base = nodes * n_events
    # Births ascend, so the queries ascend within a node.
    at = np.minimum(
        grouped_searchsorted(slots, base + due, nodes, stream.trace.n_nodes),
        len(slots) - 1,
    )
    found = slots[at] - base
    return np.where((found >= due) & (found < n_events), found, n_events)


def _request_columns(
    stream: EventStream,
) -> Tuple[IntArray, IntArray, IntArray, FloatArray]:
    """Every request's stream position, item, node and birth time, in
    stream order: built once per stream, shared by its static runs."""
    columns = stream.memo.get("requests")
    if columns is None:
        req_pos = np.flatnonzero(stream.event_kinds == EVENT_REQUEST)
        columns = (
            req_pos,
            stream.event_a[req_pos],
            stream.event_b[req_pos],
            stream.event_times[req_pos],
        )
        stream.memo["requests"] = columns
    return columns


def _request_expiries(stream: EventStream, timeout: float) -> IntArray:
    """:func:`_first_expiries` of every request, once per stream and
    timeout: a request's expiry does not depend on the allocation."""
    key = ("expiries", timeout)
    expiries = stream.memo.get(key)
    if expiries is None:
        _, _, nodes, born = _request_columns(stream)
        expiries = _first_expiries(stream, nodes, born, timeout)
        stream.memo[key] = expiries
    return expiries


def run_static(sim: "Simulation", stream: EventStream) -> bool:
    """Resolve *sim*'s run in closed form from its eager *stream*.

    Returns False, having changed nothing, when the request-holder
    expansion is too large to beat the plain loop.  Otherwise every
    request is counted, logged or left in ``outstanding`` exactly as
    the plain loop would, snapshots are taken, and True is returned;
    the caller folds the gains as after any loop.
    """
    n_events = stream.n_events
    times = stream.event_times
    req_pos, items, nodes, req_times = _request_columns(stream)
    cached = sim.occupancy[nodes, items]
    pending = np.flatnonzero(~cached)
    # An expanded request-holder entry costs about what the loop spends
    # on an event: on 200-node UNI runs with 100 holders an item, the
    # kernel draws level with the loop at 2 entries per event and is
    # 16% slower at 8.  Past 4 the loop runs.
    if sim.counts[items[pending]].sum() > 4 * n_events:
        return False
    metrics = sim.metrics
    metrics.n_generated += len(req_pos)
    immediate = np.zeros(0, dtype=np.int64)
    if len(pending) < len(req_pos):
        own = np.flatnonzero(cached)
        if sim._skip_self:
            metrics.n_skipped_self += len(own)
        elif not sim._h0_finite:
            sim._raise_infinite_h0(int(items[own[0]]), int(nodes[own[0]]))
        else:
            metrics.n_immediate += len(own)
            immediate = req_pos[own]
    pos = req_pos[pending]
    node = nodes[pending]
    item = items[pending]
    born = req_times[pending]
    fulfil = _first_holder_contacts(stream, sim.occupancy, pos, node, item)
    timeout = sim._timeout
    expire = (
        _request_expiries(stream, timeout)[pending]
        if timeout is not None
        else np.full(len(pos), n_events, dtype=np.int64)
    )
    at = np.minimum(fulfil, expire)
    resolved = at < n_events
    expires = resolved & (expire <= fulfil)
    # Direction 0 when the requester is the contact's first endpoint.
    slot_at = 2 * at + (stream.event_a[np.minimum(at, n_events - 1)] != node)
    # The dict slot of each request: the position of the request that
    # opened it, the latest one in its (node, item) pair born after
    # its predecessor resolved.
    pair = node * sim.config.n_items + item
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    new_slot = np.ones(len(order), dtype=bool)
    new_slot[1:] = (pair[1:] != pair[:-1]) | (at[order][:-1] < pos[order][1:])
    opened = np.maximum.accumulate(
        np.where(new_slot, np.arange(len(order)), 0)
    )
    opener = np.empty_like(pos)
    opener[order] = pos[order][opened]

    # The fulfilment log, by (position, direction, slot, birth).  Done
    # entries are in birth order and an immediate one shares its
    # position with nothing, so two stable sorts give that order.
    done = np.flatnonzero(resolved & ~expires)
    key = np.concatenate((2 * immediate, slot_at[done]))
    log_order = np.argsort(
        np.concatenate((immediate, opener[done])), kind="stable"
    )
    log_order = log_order[np.argsort(key[log_order], kind="stable")]
    key = key[log_order]
    t_done = times[at[done]]
    metrics.delays.extend(
        np.concatenate((np.zeros(len(immediate)), t_done - born[done]))[
            log_order
        ].tolist()
    )
    metrics.fulfill_times.frombytes(
        np.concatenate((times[immediate], t_done))[log_order].tobytes()
    )
    gone = np.sort(slot_at[expires], kind="stable")
    metrics.n_expired += len(gone)
    if sim._credit_abandoned and len(gone):
        # A contact direction expires before it fulfils.
        assert timeout is not None
        metrics.log_abandonments(
            np.searchsorted(key, gone),
            times[gone // 2] - timeout,
            sim._abandoned_gain,
        )

    left = np.flatnonzero(~resolved)
    if len(left):
        left = left[np.argsort(opener[left], kind="stable")]
        slots = stream.server_slots
        assert slots is not None
        node_key = node[left] * n_events
        counters = np.searchsorted(slots, node_key + pos[left]) - (
            np.searchsorted(slots, node_key)
        )
        outstanding_tbl = sim._outstanding_tbl
        for node_id, item_id, t, counter in zip(
            node[left].tolist(),
            item[left].tolist(),
            born[left].tolist(),
            counters.tolist(),
        ):
            out = outstanding_tbl[node_id]
            request = Request(item_id, node_id, t, counter)
            request_list = out.get(item_id)
            if request_list is None:
                out[item_id] = [request]
            else:
                request_list.append(request)
    for chunk in stream.chunks:
        if chunk[7] is not None:
            sim._take_snapshot(chunk[7])
    return True
