"""Per-node simulation state: cache, outstanding requests, mandates."""

from __future__ import annotations

from typing import Dict, List, Optional

from .cache import Cache

__all__ = ["Request", "NodeState"]


class Request:
    """An outstanding client request and its QCR query counter."""

    __slots__ = ("item", "node", "created_at", "counter")

    def __init__(
        self, item: int, node: int, created_at: float, counter: int = 0
    ) -> None:
        self.item = item
        self.node = node
        self.created_at = created_at
        #: Number of (server) meetings since creation — the QCR query count.
        #: The engine loops instead stash the node's server-meeting count
        #: *at creation* here and recover the final counter by
        #: subtraction at fulfillment time; only the frozen reference
        #: engine keeps the eager per-meeting increments.
        self.counter = counter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Request(item={self.item}, node={self.node}, "
            f"t={self.created_at:g}, counter={self.counter})"
        )


class NodeState:
    """Mutable state of one node during a simulation."""

    __slots__ = (
        "node_id",
        "is_server",
        "is_client",
        "cache",
        "outstanding",
        "mandates",
    )

    def __init__(
        self,
        node_id: int,
        *,
        is_server: bool,
        is_client: bool,
        capacity: int,
    ) -> None:
        self.node_id = node_id
        self.is_server = is_server
        self.is_client = is_client
        self.cache: Optional[Cache] = Cache(capacity) if is_server else None
        #: item -> outstanding requests for that item.
        self.outstanding: Dict[int, List[Request]] = {}
        #: item -> pending replication-mandate count (QCR state).
        self.mandates: Dict[int, int] = {}

    def has_item(self, item: int) -> bool:
        return self.cache is not None and item in self.cache

    def add_request(self, request: Request) -> None:
        self.outstanding.setdefault(request.item, []).append(request)

    def n_outstanding(self) -> int:
        return sum(len(reqs) for reqs in self.outstanding.values())

    def total_mandates(self) -> int:
        return sum(self.mandates.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cached = sorted(self.cache) if self.cache is not None else None
        return (
            f"NodeState(id={self.node_id}, server={self.is_server}, "
            f"client={self.is_client}, cache={cached}, "
            f"outstanding={self.n_outstanding()}, mandates={self.total_mandates()})"
        )
