"""Replication-protocol interface.

A protocol owns two things: the initial placement of content on servers,
and the reaction to simulation events (request fulfillments and node
contacts).  The engine calls the hooks below; protocols mutate caches only
through :meth:`repro.sim.engine.Simulation.insert_copy`, which keeps the
engine's replica accounting consistent.

Hooks must never mutate ``NodeState.outstanding``: requests are the
engine's state, and its plain loop keeps a per-node table of each
node's single outstanding item that only its own mutations update.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from ..types import IntArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulation
    from ..sim.node import NodeState

__all__ = ["ReplicationProtocol"]


class ReplicationProtocol(ABC):
    """Base class for replication strategies."""

    #: Display name used in experiment reports (e.g. "QCR", "SQRT").
    name: str = "protocol"

    #: Opt-in engine fast path: when ``True`` the engine may skip the
    #: :meth:`after_contact` call on contacts where neither endpoint has
    #: pending mandates.  Only set this if the hook is a guaranteed no-op
    #: (no state updates, no RNG draws) in that situation.
    contact_hook_idle_without_mandates: bool = False

    #: Opt-in engine fast path, used together with
    #: :attr:`contact_hook_idle_without_mandates`: when ``True`` both
    #: hooks change mandate tables only on the nodes they are handed
    #: (:meth:`on_fulfill`: requester and provider; :meth:`after_contact`:
    #: the two endpoints), so the engine may track which nodes hold
    #: mandates with a running count instead of reading the tables on
    #: every contact.
    mandates_touch_only_hook_nodes: bool = False

    @abstractmethod
    def initialize(self, sim: "Simulation") -> None:
        """Set the initial global cache state.

        Implementations call ``sim.set_initial_allocation(allocation,
        sticky_owner=...)`` exactly once.
        """

    def on_fulfill(
        self,
        sim: "Simulation",
        t: float,
        requester: "NodeState",
        provider: "NodeState",
        item: int,
        counter: int,
    ) -> None:
        """A request by *requester* for *item* was just fulfilled.

        *counter* is the final query-counter value (number of server
        meetings since the request was created, including this one).
        """

    def after_contact(
        self, sim: "Simulation", t: float, a: "NodeState", b: "NodeState"
    ) -> None:
        """Called once per contact after fulfillments are processed."""

    def mandate_totals(self, sim: "Simulation") -> Optional[IntArray]:
        """Per-item outstanding mandate counts, or ``None`` if stateless."""
        return None
