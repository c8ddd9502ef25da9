"""Contact traces: the substrate every experiment runs on.

A :class:`ContactTrace` is a time-sorted sequence of pairwise meeting
events between nodes over an observation window ``[0, duration]``.  Both
synthetic generators (:mod:`repro.contacts.poisson`,
:mod:`repro.contacts.synthetic`) and file loaders
(:mod:`repro.contacts.io`) produce this type, and the simulator consumes
it, so algorithms are completely decoupled from where contacts come from —
exactly how the paper swaps homogeneous models for Infocom/Cabspotting
traces.

Contacts are instantaneous meetings (the paper works "on the premise that
meetings are sufficiently long for nodes to complete the protocol
exchange"); node pairs are canonicalized to ``node_a < node_b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from ..errors import TraceFormatError
from ..types import FloatArray, IntArray

__all__ = ["ContactTrace"]


@dataclass(frozen=True)
class ContactTrace:
    """A sorted sequence of pairwise contact events.

    Attributes
    ----------
    times:
        Event times, non-decreasing, within ``[0, duration]``.
    node_a, node_b:
        Endpoints of each contact; canonicalized so ``node_a < node_b``.
    n_nodes:
        Number of nodes; ids are dense in ``range(n_nodes)``.
    duration:
        Length of the observation window (used for rate estimation).
    """

    times: FloatArray
    node_a: IntArray
    node_b: IntArray
    n_nodes: int
    duration: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        a = np.asarray(self.node_a, dtype=np.int64)
        b = np.asarray(self.node_b, dtype=np.int64)
        if not (len(times) == len(a) == len(b)):
            raise TraceFormatError("times/node_a/node_b lengths differ")
        if self.n_nodes < 2:
            raise TraceFormatError(f"need >= 2 nodes, got {self.n_nodes}")
        if self.duration <= 0:
            raise TraceFormatError(f"duration must be > 0, got {self.duration}")
        if len(times):
            if np.any(np.diff(times) < 0):
                raise TraceFormatError("contact times must be sorted")
            if times[0] < 0 or times[-1] > self.duration:
                raise TraceFormatError("contact times must lie in [0, duration]")
            if np.any(a == b):
                raise TraceFormatError("self-contacts are not allowed")
            if a.min() < 0 or max(a.max(), b.max()) >= self.n_nodes:
                raise TraceFormatError("node ids must lie in [0, n_nodes)")
        # Canonical order: node_a < node_b.
        swap = a > b
        if np.any(swap):
            a, b = np.where(swap, b, a), np.where(swap, a, b)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "node_a", a.astype(np.int64))
        object.__setattr__(self, "node_b", b.astype(np.int64))

    # ------------------------------------------------------------------
    # trusted construction (zero-copy)
    # ------------------------------------------------------------------
    @classmethod
    def from_trusted_columns(
        cls,
        times: FloatArray,
        node_a: IntArray,
        node_b: IntArray,
        *,
        n_nodes: int,
        duration: float,
    ) -> "ContactTrace":
        """Wrap already-validated columns without copying or checking.

        The normal constructor validates, canonicalizes, and (for the
        node columns) copies via ``astype``.  Callers must guarantee the
        invariants themselves: float64/int64 dtypes, equal lengths,
        sorted times within ``[0, duration]``, canonical
        ``node_a < node_b`` in ``[0, n_nodes)``.  The slice and
        selection views below qualify; arbitrary external data does
        not.
        """
        trace = object.__new__(cls)
        object.__setattr__(trace, "times", times)
        object.__setattr__(trace, "node_a", node_a)
        object.__setattr__(trace, "node_b", node_b)
        object.__setattr__(trace, "n_nodes", n_nodes)
        object.__setattr__(trace, "duration", duration)
        return trace

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, int, int]]:
        for k in range(len(self.times)):
            yield (
                float(self.times[k]),
                int(self.node_a[k]),
                int(self.node_b[k]),
            )

    @property
    def n_pairs(self) -> int:
        """Number of unordered node pairs."""
        return self.n_nodes * (self.n_nodes - 1) // 2

    @property
    def mean_pair_rate(self) -> float:
        """Average contacts per pair per unit time."""
        return len(self) / (self.n_pairs * self.duration)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def sliced(self, t_start: float, t_end: float) -> "ContactTrace":
        """Return the sub-trace on ``[t_start, t_end)``, re-based to 0.

        Times are sorted (a construction invariant), so the window is
        located with two binary searches and only the selected run is
        materialized.
        """
        if not 0 <= t_start < t_end <= self.duration:
            raise TraceFormatError(
                f"invalid slice [{t_start}, {t_end}) of [0, {self.duration}]"
            )
        lo = int(np.searchsorted(self.times, t_start, side="left"))
        hi = int(np.searchsorted(self.times, t_end, side="left"))
        return ContactTrace.from_trusted_columns(
            self.times[lo:hi] - t_start,
            self.node_a[lo:hi],
            self.node_b[lo:hi],
            n_nodes=self.n_nodes,
            duration=t_end - t_start,
        )

    def select_nodes(self, node_ids: Sequence[int]) -> "ContactTrace":
        """Keep only contacts among *node_ids* and relabel them densely.

        Mirrors the paper's pre-processing, which keeps the 50
        best-covered Infocom participants.
        """
        ids = np.asarray(sorted(set(int(n) for n in node_ids)), dtype=np.int64)
        if len(ids) < 2:
            raise TraceFormatError("need >= 2 selected nodes")
        if ids[0] < 0 or ids[-1] >= self.n_nodes:
            raise TraceFormatError("selected ids out of range")
        lookup = -np.ones(self.n_nodes, dtype=np.int64)
        lookup[ids] = np.arange(len(ids))
        # The id lookup is monotone, so relabeling preserves the
        # canonical node_a < node_b order.
        la = lookup[self.node_a]
        lb = lookup[self.node_b]
        keep = (la >= 0) & (lb >= 0)
        return ContactTrace.from_trusted_columns(
            self.times[keep],
            la[keep],
            lb[keep],
            n_nodes=len(ids),
            duration=self.duration,
        )

    def time_scaled(self, factor: float) -> "ContactTrace":
        """Return a copy with all times (and duration) multiplied.

        The node columns are shared with the source trace (views, not
        copies) — only the scaled times are materialized.
        """
        if factor <= 0:
            raise TraceFormatError(f"factor must be > 0, got {factor}")
        return ContactTrace.from_trusted_columns(
            self.times * factor,
            self.node_a,
            self.node_b,
            n_nodes=self.n_nodes,
            duration=self.duration * factor,
        )

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def pair_counts(self) -> IntArray:
        """Return an ``(n, n)`` symmetric matrix of per-pair contact counts."""
        counts = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        np.add.at(counts, (self.node_a, self.node_b), 1)
        counts += counts.T
        return counts

    def node_contact_counts(self) -> IntArray:
        """Total contacts each node participates in."""
        counts = np.bincount(self.node_a, minlength=self.n_nodes)
        counts += np.bincount(self.node_b, minlength=self.n_nodes)
        return counts.astype(np.int64)

    @staticmethod
    def concatenate(traces: Sequence["ContactTrace"]) -> "ContactTrace":
        """Join traces back-to-back in time (same node population)."""
        if not traces:
            raise TraceFormatError("need at least one trace")
        n_nodes = traces[0].n_nodes
        if any(t.n_nodes != n_nodes for t in traces):
            raise TraceFormatError("all traces must share n_nodes")
        offsets = np.cumsum([0.0] + [t.duration for t in traces[:-1]])
        # Inputs are already validated and canonical, so the joined
        # columns go through the trusted constructor — one concatenate
        # each, no extra astype copies.
        return ContactTrace.from_trusted_columns(
            np.concatenate(
                [t.times + off for t, off in zip(traces, offsets)]
            ),
            np.concatenate([t.node_a for t in traces]),
            np.concatenate([t.node_b for t in traces]),
            n_nodes=n_nodes,
            duration=float(sum(t.duration for t in traces)),
        )
