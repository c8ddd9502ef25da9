"""Query Counting Replication with Mandate Routing (paper Section 5).

QCR is reactive and purely local: each outstanding request carries a query
counter that increments once per meeting; when the request is finally
fulfilled after ``y`` queries, the node creates ``psi(y)`` *replication
mandates* for the item, where ``psi`` is the Property-2 reaction function
derived from the delay-utility.  Since the expected counter is
``|S| / x_i``, the creation rate self-tunes to the current allocation
without any estimator or control channel.

Mandates execute opportunistically: a node holding both a mandate and a
cached copy of the item replicates it into the cache of a met node that
lacks it (random replacement, *no rewriting* — meeting a node that already
holds the item is ignored and the mandate retained).  Because execution
requires co-location of mandate and copy, raw QCR can stall: **mandate
routing** (Section 5.3) moves mandates toward copy holders at every
contact — all to the unique holder, an even split when both or neither
hold the item, and a 2/3 share to the item's sticky node when both hold a
copy.  ``mandate_routing=False`` reproduces the divergent QCRWOM variant
of Figure 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sim.seeding import seed_allocation
from ..types import IntArray
from ..utility import DelayUtility
from .base import ReplicationProtocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulation
    from ..sim.node import NodeState

__all__ = ["QCRConfig", "QCR"]


@dataclass(frozen=True)
class QCRConfig:
    """Tunables of the QCR protocol.

    Attributes
    ----------
    mandate_routing:
        Move mandates toward copy holders at every contact (Section 5.3).
        Disabling reproduces the pathological QCRWOM of Figure 3.
    pure_correction:
        Use the exact pure-P2P reaction function when every client is
        also a server.  Requests that a node can serve from its own cache
        are fulfilled immediately and create no mandates, thinning item
        ``i``'s replica creation by ``(1 - x_i/N)``; matching the
        pure-P2P optimum (Eq. 5) then requires
        ``psi(y) = x*phi(x) + (x/N) * L(mu*x) / (1 - x/N)`` with
        ``x = |S|/y`` and ``L`` the Laplace transform of ``c`` (this is
        the paper's TR "similar table ... for the pure P2P case"; the
        dedicated-case ``psi`` of Table 1 is its large-``N`` limit).
        Disabling falls back to the Table-1 reaction everywhere.
    psi_scale:
        Free multiplicative constant of the reaction function (Property 2
        fixes ``psi`` only up to a constant); larger values converge
        faster at the price of more replication churn and allocation
        variance (the welfare is concave, so variance costs utility).
    cache_on_fulfill:
        The requester stores the received item in its own cache (random
        replacement), consuming one mandate — Section 5.3's premise that
        the node desiring to replicate initially possesses the item.
        With ``False`` the received content is consumed but not cached,
        and mandates start at a non-holder.
    pull_execution:
        Allow a mandate to execute by *pulling* a copy from a met holder
        into the mandate owner's cache, in addition to pushing from an
        owned copy.  Pulling lets mandates execute anywhere, which makes
        mandate routing unnecessary — an ablation showing that routing
        specifically repairs push-only replication.
    sticky_share:
        Fraction of an item's mandates routed to its sticky node when
        both met nodes hold a copy (the paper uses 2/3).
    max_mandates_per_request:
        Safety cap on mandates created by a single fulfillment; ``None``
        leaves the reaction function uncapped.
    max_replications_per_contact:
        Bandwidth limit: at most this many replicas may be created per
        contact per direction (``None`` = one per item, unlimited items).
        Tight limits slow the draining of mandate batches, which makes
        the stranding pathology of Figure 3 more severe.
    adaptive_mu:
        Estimate the meeting rate per node from its own observed contact
        count instead of trusting the global ``mu`` constant — still
        purely local information.  On heterogeneous traces the constant
        is wrong for well/poorly connected nodes, skewing their reaction
        functions; adaptation corrects it (extension E4, see
        ``benchmarks/bench_extension_adaptive_mu.py``).
    min_rate_observations:
        Contacts a node must have seen before its own estimate replaces
        the global constant (only with ``adaptive_mu``).
    """

    mandate_routing: bool = True
    pure_correction: bool = True
    psi_scale: float = 1.0
    cache_on_fulfill: bool = True
    pull_execution: bool = False
    max_replications_per_contact: Optional[int] = None
    adaptive_mu: bool = False
    min_rate_observations: int = 20
    sticky_share: float = 2.0 / 3.0
    max_mandates_per_request: Optional[int] = None

    def __post_init__(self) -> None:
        if self.psi_scale <= 0:
            raise ConfigurationError("psi_scale must be > 0")
        if not 0.5 <= self.sticky_share <= 1.0:
            raise ConfigurationError("sticky_share must be in [0.5, 1]")
        if (
            self.max_mandates_per_request is not None
            and self.max_mandates_per_request < 1
        ):
            raise ConfigurationError("max_mandates_per_request must be >= 1")
        if (
            self.max_replications_per_contact is not None
            and self.max_replications_per_contact < 1
        ):
            raise ConfigurationError(
                "max_replications_per_contact must be >= 1"
            )
        if self.min_rate_observations < 1:
            raise ConfigurationError("min_rate_observations must be >= 1")


class QCR(ReplicationProtocol):
    """Query Counting Replication (Section 5).

    Parameters
    ----------
    utility:
        The delay-utility defining the reaction function; the protocol
        needs nothing else about the workload.
    mu:
        The (assumed) homogeneous meeting rate used in ``psi`` — the only
        global constant QCR relies on, as in the paper's Table 1 tuning.
    config:
        Protocol tunables; defaults reproduce the paper's setup.
    """

    # Both hooks only ever touch the mandate tables of the nodes they
    # are handed (on_fulfill: the requester; after_contact: the two
    # endpoints — routing moves mandates strictly between them).
    mandates_touch_only_hook_nodes = True

    def __init__(
        self,
        utility: DelayUtility,
        mu: float,
        config: QCRConfig = QCRConfig(),
    ) -> None:
        if mu <= 0:
            raise ConfigurationError(f"mu must be > 0, got {mu}")
        self.utility = utility
        self.mu = mu
        self.config = config
        self.name = "QCR" if config.mandate_routing else "QCRWOM"
        # Per-contact hot flags, hoisted out of the frozen config.
        self._routing: bool = config.mandate_routing
        self._adaptive_mu: bool = config.adaptive_mu
        self._cache_on_fulfill: bool = config.cache_on_fulfill
        self._mandate_cap: Optional[float] = (
            None
            if config.max_mandates_per_request is None
            else float(config.max_mandates_per_request)
        )
        self._pure: bool = False  # resolved at initialize()
        #: Per-node observed contact counts (adaptive_mu state).
        self._contact_counts: Dict[int, int] = {}
        # Without adaptive_mu the hook needs no per-contact bookkeeping,
        # so the engine may skip it entirely on mandate-free contacts.
        self.contact_hook_idle_without_mandates = not config.adaptive_mu
        #: Final-counter -> capped reaction target.  Valid because without
        #: adaptive_mu the reaction depends only on the counter and on
        #: per-run constants (``mu``, ``n_servers``, the pure correction);
        #: reset at initialize() since those constants are per-run.
        # y -> (floor(target), fractional remainder): the randomized
        # rounding inputs, precomputed so the on_fulfill hot path skips
        # a math.floor per fulfillment.
        self._reaction_memo: Dict[int, Tuple[int, float]] = {}

    # ------------------------------------------------------------------
    # protocol hooks
    # ------------------------------------------------------------------
    def initialize(self, sim: "Simulation") -> None:
        allocation, sticky = seed_allocation(
            sim.config.n_items,
            sim.server_ids,
            sim.config.rho,
            seed=sim.rng,
        )
        sim.set_initial_allocation(allocation, sticky_owner=sticky)
        self._reaction_memo.clear()
        self._pure = (
            self.config.pure_correction
            and self.utility.finite_at_zero
            and len(sim.client_ids) == sim.n_servers
            and bool(np.all(sim.client_ids == sim.server_ids))
        )

    def local_rate(self, sim: "Simulation", node_id: int, now: float) -> float:
        """The meeting-rate constant used in *node_id*'s reaction.

        With ``adaptive_mu``, a node that has observed enough contacts
        uses its own maximum-likelihood per-pair rate
        ``contacts / (t * (n - 1))``; otherwise the global constant.
        """
        if not self.config.adaptive_mu or now <= 0:
            return self.mu
        observed = self._contact_counts.get(node_id, 0)
        if observed < self.config.min_rate_observations:
            return self.mu
        return observed / (now * (len(sim.nodes) - 1))

    def reaction(
        self,
        y: float,
        sim: "Simulation",
        *,
        mu: Optional[float] = None,
    ) -> float:
        """The reaction value ``psi(y)`` used for a final query count *y*.

        Applies the pure-P2P correction when configured and applicable
        (every client also a server, finite ``h(0+)``).  *mu* overrides
        the protocol constant (adaptive estimation).
        """
        rate = self.mu if mu is None else mu
        n_servers = sim.n_servers
        value = self.utility.psi(y, n_servers, rate)
        if self._pure:
            n = n_servers
            # The correction's 1/(1 - x/N) explodes for the noisy one-sample
            # estimate x = |S|/y at y = 1; clamping the estimator to y >= 2
            # bounds it at 1/(1 - |S|/2N) with negligible bias (verified in
            # tests/protocols/test_qcr_equilibrium.py).
            x = n_servers / max(y, 2.0)
            thin = 1.0 - x / n
            value += (x / n) * self.utility.laplace_c(rate * x) / thin
        return self.config.psi_scale * value

    def on_fulfill(
        self,
        sim: "Simulation",
        t: float,
        requester: "NodeState",
        provider: "NodeState",
        item: int,
        counter: int,
    ) -> None:
        y = counter if counter > 1 else 1
        if self._adaptive_mu:
            target = self.reaction(
                y, sim, mu=self.local_rate(sim, requester.node_id, t)
            )
            if self._mandate_cap is not None:
                target = min(target, self._mandate_cap)
            mandates = self._randomized_round(target, sim.rng)
        else:
            memo = self._reaction_memo
            entry = memo.get(y)
            if entry is None:
                target = self.reaction(y, sim)
                if self._mandate_cap is not None:
                    target = min(target, self._mandate_cap)
                base = math.floor(target)
                entry = (int(base), target - base)
                memo[y] = entry
            # Inlined ``_randomized_round``: identical draw condition,
            # so the RNG stream is untouched.
            mandates, fraction = entry
            if fraction > 0 and sim.rng.random() < fraction:
                mandates += 1
        if mandates <= 0:
            return
        # New mandates start at the requester — the "node of origin" of
        # Section 5.3.  With cache_on_fulfill the received copy enters the
        # requester's cache, executing the first mandate on the spot; the
        # rest push outward from that copy while it survives random
        # replacement.  If it is evicted first, the leftover mandates are
        # stranded — unless mandate routing carries them to surviving copy
        # holders (the Figure-3 pathology and its fix).
        if self._cache_on_fulfill and sim.insert_copy(requester, item):
            mandates -= 1
        if mandates > 0:
            requester.mandates[item] = (
                requester.mandates.get(item, 0) + mandates
            )

    def after_contact(
        self, sim: "Simulation", t: float, a: "NodeState", b: "NodeState"
    ) -> None:
        if self._adaptive_mu:
            counts = self._contact_counts
            counts[a.node_id] = counts.get(a.node_id, 0) + 1
            counts[b.node_id] = counts.get(b.node_id, 0) + 1
        if not a.mandates and not b.mandates:
            # Neither execution nor routing has anything to act on, and
            # both are no-ops (no state, no RNG) without mandates — the
            # common case on the vast majority of contacts.
            return
        if a.mandates:
            self._execute(sim, a, b)
        if b.mandates:
            self._execute(sim, b, a)
        if self._routing:
            self._route(sim, a, b)

    def mandate_totals(self, sim: "Simulation") -> IntArray:
        totals = np.zeros(sim.config.n_items, dtype=np.int64)
        for node in sim.nodes:
            for item, count in node.mandates.items():
                totals[item] += count
        return totals

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _randomized_round(value: float, rng: np.random.Generator) -> int:
        """Unbiased integer rounding: floor plus a Bernoulli remainder."""
        base = math.floor(value)
        fraction = value - base
        if fraction > 0 and rng.random() < fraction:
            base += 1
        return int(base)

    def _execute(
        self, sim: "Simulation", owner: "NodeState", peer: "NodeState"
    ) -> None:
        """Execute eligible mandates of *owner* at a contact with *peer*.

        A mandate for an item needs a replica to execute: when the owner
        caches the item it *pushes* a copy into a peer lacking it; when
        only the peer caches it, the owner *pulls* a copy into its own
        cache.  At most one copy of each item is created per contact.
        "No rewriting": if the would-be receiver already holds the item
        nothing happens and the mandate is retained — which is exactly
        why, without routing, mandates for items the owner neither holds
        nor encounters pile up (Figure 3).  Holdings are read from the
        engine's flat cache table, the live sets the caches mutate.
        """
        budget = self.config.max_replications_per_contact
        pull = self.config.pull_execution
        cache_tbl = sim._cache_tbl
        owned = cache_tbl[owner.node_id]
        met = cache_tbl[peer.node_id]
        executed: Optional[List[int]] = None
        for item, count in owner.mandates.items():
            if budget is not None and budget <= 0:
                break
            if count <= 0:
                continue
            if item in owned:
                created = sim.insert_copy(peer, item)
            elif pull and item in met:
                created = sim.insert_copy(owner, item)
            else:
                continue
            if not created:
                continue  # receiver already holds it (or slots pinned)
            if budget is not None:
                budget -= 1
            if executed is None:
                executed = [item]
            else:
                executed.append(item)
        if executed is None:
            return
        for item in executed:
            remaining = owner.mandates[item] - 1
            if remaining > 0:
                owner.mandates[item] = remaining
            else:
                del owner.mandates[item]

    def _route(
        self, sim: "Simulation", a: "NodeState", b: "NodeState"
    ) -> None:
        """Move mandates toward copy holders (Section 5.3).

        For every item with pending mandates at either node: the unique
        copy holder takes all of them; when both (or neither) hold a
        copy, mandates split evenly — except that an item's sticky node
        takes the ``sticky_share`` when both hold a copy.
        """
        if not a.mandates and not b.mandates:
            return
        items = set(a.mandates)
        items.update(b.mandates)
        rng = sim.rng
        held_a = sim._cache_tbl[a.node_id]
        held_b = sim._cache_tbl[b.node_id]
        # Sorted so the per-item RNG draws below happen in a fixed
        # order; bare set iteration would tie the trajectory to hash
        # layout (flagged by RPA001).
        for item in sorted(items):
            count_a = a.mandates.get(item, 0)
            count_b = b.mandates.get(item, 0)
            total = count_a + count_b
            if total == 0:
                continue
            has_a = item in held_a
            has_b = item in held_b
            if has_a and not has_b:
                new_a, new_b = total, 0
            elif has_b and not has_a:
                new_a, new_b = 0, total
            else:
                sticky = sim.sticky_node_of(item)
                if has_a and has_b and sticky == a.node_id:
                    new_a = int(round(self.config.sticky_share * total))
                    new_b = total - new_a
                elif has_a and has_b and sticky == b.node_id:
                    new_b = int(round(self.config.sticky_share * total))
                    new_a = total - new_b
                else:
                    new_a = total // 2
                    new_b = total - new_a
                    if new_a != new_b and rng.random() < 0.5:
                        new_a, new_b = new_b, new_a
            _set_mandates(a, item, new_a)
            _set_mandates(b, item, new_b)


def _set_mandates(node: "NodeState", item: int, count: int) -> None:
    if count > 0:
        node.mandates[item] = count
    else:
        node.mandates.pop(item, None)
