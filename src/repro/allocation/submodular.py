"""Heterogeneous optimal allocation — submodular greedy (Theorem 1, §6.1).

With arbitrary contact intensities the welfare is a submodular function of
the set of (server, item) placements (Theorem 1), and the per-server cache
capacity is a partition-matroid constraint, so the greedy of Nemhauser,
Wolsey & Fisher yields a ``(1 - 1/e)``-approximation — the paper's **OPT**
baseline for trace experiments.  On homogeneous inputs it recovers the
exact optimum of Theorem 2.

The implementation is lazy greedy (CELF): stale marginal gains stay in the
heap as upper bounds (submodularity guarantees marginals only shrink) and
are recomputed only when they surface.  Accepting a copy of item ``i``
changes only item ``i``'s marginals, so the first stale entry of ``i`` to
surface computes ``i``'s marginal on every server in one NumPy pass and
the row serves its other stale entries until ``i`` changes again.  The
pass is elementwise plus one row-wise sum per server, which NumPy
evaluates with the same operations, in the same order, as the per-pair
computation, so the heap sees the same bits and makes the same decisions
as computing each pair on its own (``lazy=False`` still does).

A positive ``rate_floor`` clamps each client's total fulfillment rate from
below, which is not submodular: a copy whose rate to a client is at or
below the floor gains nothing there as that client's first copy, but
does once other copies lift the client's rate.  Where the floor binds
like this, the lazy walk may stop before the textbook greedy does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..demand import DemandModel, validate_profile
from ..errors import ConfigurationError
from ..types import FloatArray, IntArray
from ..utility import DelayUtility
from .welfare import heterogeneous_welfare

__all__ = [
    "GREEDY_CODE_VERSION",
    "STATIC_CODE_VERSION",
    "HeterogeneousProblem",
    "HeterogeneousResult",
    "greedy_heterogeneous",
]

#: Version of :func:`greedy_heterogeneous`'s output, keyed into the run
#: cache (:mod:`repro.simcache`) for trace OPT runs, which are keyed by
#: their :class:`HeterogeneousProblem` instead of the allocation solved
#: from it.  Bump whenever a change could alter the returned
#: *allocation* on some problem (``tests/allocation/
#: test_greedy_code_version.py`` pins it on seeded problems); cached
#: OPT runs from older versions then stop matching and are recomputed.
#: Speedups that return the same allocation bits do not require a bump.
GREEDY_CODE_VERSION = "2026.10-celf-rows-1"

#: Version of the fixed allocations the paper's static competitors
#: (UNI, SQRT, PROP, DOM and homogeneous OPT) compute, keyed into the
#: run cache for their runs, which are keyed by the builders' inputs
#: (demand, server count, ``rho``; for OPT also the utility, meeting
#: rate and client layout) instead of the allocation built from them.
#: It covers :mod:`~repro.allocation.closed_form`,
#: :func:`~repro.allocation.quantize.quantize_counts`,
#: :func:`~repro.allocation.quantize.place_copies` and
#: :func:`~repro.allocation.greedy.greedy_homogeneous`: bump it whenever
#: a change could alter the counts or the seeded placement one of them
#: returns (``tests/allocation/test_static_code_version.py`` pins them).
STATIC_CODE_VERSION = "2026.10-static-1"


@dataclass(frozen=True)
class HeterogeneousProblem:
    """A cache-allocation instance with heterogeneous contacts.

    Attributes
    ----------
    demand:
        Per-item demand rates.
    utility:
        The delay-utility shared by all items.
    rate_matrix:
        Contact intensities ``mu_{m,n}``, shape ``(n_servers, n_clients)``.
    rho:
        Cache slots per server.
    pi:
        Demand profile ``(n_items, n_clients)``; uniform when ``None``.
    server_of_client:
        Same-node mapping as in
        :func:`~repro.allocation.welfare.heterogeneous_welfare`.
    rate_floor:
        Regularization for unbounded-cost utilities on sparse traces;
        required (> 0) when such a utility meets a zero rate or a zero
        demand weight.
    """

    demand: DemandModel
    utility: DelayUtility
    rate_matrix: FloatArray
    rho: int
    pi: Optional[FloatArray] = None
    server_of_client: Optional[IntArray] = None
    rate_floor: float = 0.0

    def __post_init__(self) -> None:
        rates = np.asarray(self.rate_matrix, dtype=float)
        if rates.ndim != 2:
            raise ConfigurationError("rate_matrix must be 2-D")
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ConfigurationError("rates must be finite and >= 0")
        if self.rho <= 0:
            raise ConfigurationError(f"rho must be > 0, got {self.rho}")
        object.__setattr__(self, "rate_matrix", rates)
        if self.pi is not None:
            object.__setattr__(
                self,
                "pi",
                validate_profile(
                    self.pi, self.demand.n_items, rates.shape[1]
                ),
            )
        if self.server_of_client is not None:
            mapping = np.asarray(self.server_of_client, dtype=np.int64)
            if mapping.shape != (rates.shape[1],):
                raise ConfigurationError(
                    "server_of_client must have one entry per client"
                )
            if not self.utility.finite_at_zero and np.any(mapping >= 0):
                raise ConfigurationError(
                    f"{self.utility.name} has h(0+) = inf; clients may not "
                    "be servers"
                )
            object.__setattr__(self, "server_of_client", mapping)
        if self.rate_floor <= 0 and self.utility.gain_never == -np.inf:
            # Unfloored, a zero rate leaves its client at -inf after the
            # copy (gain -inf - (-inf)) and a zero weight scales a first
            # copy's +inf gain (0 * inf): NaN marginals, which the heap
            # orders arbitrarily.
            weights = self.demand.rates[:, None] * (
                1.0 if self.pi is None else self.pi
            )
            if np.any(rates == 0) or np.any(weights == 0):
                raise ConfigurationError(
                    f"{self.utility.name} has an unbounded waiting cost "
                    "(h(inf) = -inf), so zero contact rates or zero demand "
                    "weights need rate_floor > 0 (e.g. 1/duration)"
                )

    @property
    def n_servers(self) -> int:
        return self.rate_matrix.shape[0]

    @property
    def n_clients(self) -> int:
        return self.rate_matrix.shape[1]


@dataclass(frozen=True)
class HeterogeneousResult:
    """Outcome of the lazy submodular greedy."""

    allocation: IntArray
    welfare: float
    #: Number of (item, server) marginal gains the greedy consumed
    #: (lazy-greedy savings); a batched row counts only the entries read.
    evaluations: int


def greedy_heterogeneous(
    problem: HeterogeneousProblem, *, lazy: bool = True
) -> HeterogeneousResult:
    """Run lazy greedy on *problem* and return the allocation matrix.

    ``lazy=False`` runs the textbook non-lazy greedy instead: every
    iteration re-evaluates the marginal gain of every feasible
    ``(item, server)`` placement and accepts the maximum (ties broken
    toward the smallest ``(item, server)`` pair — the same order the
    lazy heap uses).  Both variants pick the true argmax each step, so
    they return identical allocations; they differ only in
    ``evaluations``, which ``benchmarks/bench_speed.py`` measures.  (A
    binding ``rate_floor`` is the exception; see the module docstring.)
    """
    demand = problem.demand
    utility = problem.utility
    rates = problem.rate_matrix
    n_items, n_servers, n_clients = (
        demand.n_items,
        problem.n_servers,
        problem.n_clients,
    )
    if problem.pi is None:
        weights = demand.rates[:, None] / n_clients
    else:
        weights = demand.rates[:, None] * problem.pi

    floor = problem.rate_floor
    fulfill = np.zeros((n_items, n_clients))  # sum_m x_{i,m} mu_{m,n}

    def gains_of(rate_rows: FloatArray) -> FloatArray:
        # Elementwise, so a (n_servers, n_clients) block gives the same
        # bits as its rows one at a time; flattened because the generic
        # DelayUtility.expected_gains iterates over scalars.
        floored = np.maximum(rate_rows, floor) if floor > 0 else rate_rows
        return utility.expected_gains(floored.ravel()).reshape(floored.shape)

    current_gains = np.tile(gains_of(np.zeros(n_clients)), (n_items, 1))
    holds = np.zeros((n_items, n_servers), dtype=bool)
    mapping = problem.server_of_client
    if mapping is not None:
        # Clients co-located with a server (cols), that server, and each
        # server's own clients; all of them gain h(0+) from a local copy.
        cols = np.flatnonzero(mapping >= 0)
        col_server = mapping[cols]
        own = mapping[None, :] == np.arange(n_servers)[:, None]
    evaluations = 0

    def marginal(item: int, server: int) -> float:
        nonlocal evaluations
        evaluations += 1
        new_gains = gains_of(fulfill[item] + rates[server])
        if mapping is not None:
            new_gains[cols[holds[item, col_server]]] = utility.h0
            new_gains[own[server]] = utility.h0
        delta = new_gains - current_gains[item]
        return float(np.sum(weights[item] * delta))

    def marginal_row(item: int) -> FloatArray:
        """``finite(marginal(item, m))`` for every server ``m`` in one
        pass, bit for bit, without counting evaluations."""
        new_gains = gains_of(fulfill[item][None, :] + rates)
        if mapping is not None:
            new_gains[:, cols[holds[item, col_server]]] = utility.h0
            new_gains[own] = utility.h0
        delta = new_gains - current_gains[item]
        gains = np.sum(weights[item] * delta, axis=1)
        return np.where(np.isinf(gains), np.copysign(1e300, gains), gains)

    # Effective-gain convention: replace +/-inf by huge finite sentinels so
    # heap ordering stays defined for unbounded-cost first copies.
    def finite(value: float) -> float:
        if value == np.inf:
            return 1e300
        if value == -np.inf:
            return -1e300
        return value

    version = [0] * n_items
    loads = [0] * n_servers
    rho = problem.rho
    budget = rho * n_servers

    def accept(item: int, server: int) -> None:
        holds[item, server] = True
        fulfill[item] += rates[server]
        current_gains[item] = gains_of(fulfill[item])
        if mapping is not None:
            current_gains[item, cols[holds[item, col_server]]] = utility.h0
        loads[server] += 1
        version[item] += 1

    placed = 0
    if lazy:
        # rows[item] holds item's marginals on every server while
        # row_version[item] == version[item]; a stale heap entry of that
        # item reads its fresh gain there instead of recomputing it.
        rows: List[List[float]] = [[] for _ in range(n_items)]
        row_version = [-1] * n_items

        def cached_marginal(item: int, server: int) -> float:
            nonlocal evaluations
            evaluations += 1
            if row_version[item] != version[item]:
                rows[item] = marginal_row(item).tolist()
                row_version[item] = version[item]
            return rows[item][server]

        heap = []
        for item in range(n_items):
            for server in range(n_servers):
                heap.append(
                    (-cached_marginal(item, server), item, server, 0)
                )
        heapq.heapify(heap)
        while placed < budget and heap:
            neg_gain, item, server, stamp = heapq.heappop(heap)
            if holds[item, server] or loads[server] >= rho:
                continue
            if -neg_gain <= 0:
                break  # no remaining placement improves welfare
            if stamp != version[item]:
                gain = cached_marginal(item, server)
                heapq.heappush(heap, (-gain, item, server, version[item]))
                continue
            # Fresh entry: accept.
            accept(item, server)
            placed += 1
    else:
        while placed < budget:
            best_gain = -np.inf
            best_item = best_server = -1
            for item in range(n_items):
                for server in range(n_servers):
                    if holds[item, server] or loads[server] >= rho:
                        continue
                    gain = finite(marginal(item, server))
                    if gain > best_gain:
                        best_gain = gain
                        best_item, best_server = item, server
            if best_item < 0 or best_gain <= 0:
                break
            accept(best_item, best_server)
            placed += 1

    allocation = holds.astype(np.int8)
    welfare = heterogeneous_welfare(
        allocation,
        demand,
        utility,
        rates,
        pi=problem.pi,
        server_of_client=problem.server_of_client,
        rate_floor=floor,
    )
    return HeterogeneousResult(
        allocation=allocation, welfare=welfare, evaluations=evaluations
    )
