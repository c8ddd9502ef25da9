"""The trace-event schema.

Events are plain dicts (JSONL-ready, pickle-free) with three universal
keys — ``seq`` (emission order, assigned by the :class:`~.tracer.Tracer`),
``kind`` (one of the constants below), and ``t`` (simulated event time,
minutes) — plus kind-specific payload fields listed in
:data:`EVENT_FIELDS`.

Request lifecycle (the paper's Section 6.1 semantics)::

    REQUEST ──► SEEN* ──► FULFILL
       │                     (delay, gain, final query counter)
       ├──► IMMEDIATE        (requester already caches the item)
       ├──► SKIPPED          (self_request_policy="skip")
       ├──► ABANDON          (request_timeout expired)
       └──► UNFULFILLED      (still outstanding at the horizon)

``SEEN`` is one *query* edge: outstanding requests for an item met a
server (the Lemma-1 meeting process; the fulfilling meeting included).
One event covers all ``n`` same-item requests at that node to bound
trace volume.  Raw no-op contacts are deliberately *not* traced — they
carry no lifecycle information and tracing them would defeat the
engine's hook-free contact fast path.

Replication events (``REPLICA_ADD``, ``REPLICA_DROP``) record every
cache mutation, so a trace replays the full replica-count trajectory
between snapshots.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

__all__ = [
    "RUN_START",
    "ALLOC",
    "REQUEST",
    "IMMEDIATE",
    "SKIPPED",
    "SEEN",
    "FULFILL",
    "ABANDON",
    "UNFULFILLED",
    "REPLICA_ADD",
    "REPLICA_DROP",
    "RUN_END",
    "EVENT_FIELDS",
    "LIFECYCLE_KINDS",
    "validate_event",
]

#: Run framing.
RUN_START = "run_start"
ALLOC = "alloc"
RUN_END = "run_end"

#: Request lifecycle.
REQUEST = "request"
IMMEDIATE = "immediate"
SKIPPED = "skipped"
SEEN = "seen"
FULFILL = "fulfill"
ABANDON = "abandon"
UNFULFILLED = "unfulfilled"

#: Replication.
REPLICA_ADD = "replica_add"
REPLICA_DROP = "replica_drop"

#: kind -> required payload fields (beyond ``seq``/``kind``/``t``).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    RUN_START: ("n_nodes", "n_items", "duration", "protocol"),
    ALLOC: ("counts",),
    REQUEST: ("item", "node"),
    IMMEDIATE: ("item", "node", "gain"),
    SKIPPED: ("item", "node"),
    SEEN: ("item", "node", "server", "n"),
    FULFILL: ("item", "node", "server", "delay", "gain", "counter"),
    ABANDON: ("item", "node", "created_at"),
    UNFULFILLED: ("item", "node", "created_at", "age"),
    REPLICA_ADD: ("node", "item", "evicted"),
    REPLICA_DROP: ("node", "item"),
    RUN_END: ("summary",),
}

#: The kinds a request passes through (used by summaries and filters).
LIFECYCLE_KINDS: Tuple[str, ...] = (
    REQUEST,
    IMMEDIATE,
    SKIPPED,
    SEEN,
    FULFILL,
    ABANDON,
    UNFULFILLED,
)


def validate_event(event: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless *event* matches the schema.

    Used by tests and the trace CLI's loaders; the emission hot path
    never validates (the engine only emits well-formed events).
    """
    for key in ("seq", "kind", "t"):
        if key not in event:
            raise ValueError(f"trace event missing {key!r}: {dict(event)!r}")
    kind = event["kind"]
    required = EVENT_FIELDS.get(kind)
    if required is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    missing = [field for field in required if field not in event]
    if missing:
        raise ValueError(
            f"trace event {kind!r} missing field(s) {missing}: "
            f"{dict(event)!r}"
        )
