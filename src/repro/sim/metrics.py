"""Measurement collection and the simulation result record."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import FloatArray, IntArray

__all__ = ["MetricsCollector", "SimulationResult"]


class MetricsCollector:
    """Accumulates gains, delays, and time series during a run."""

    __slots__ = (
        "duration",
        "n_items",
        "window_length",
        "record_interval",
        "track_items",
        "total_gain",
        "n_generated",
        "n_fulfilled",
        "n_immediate",
        "n_skipped_self",
        "n_expired",
        "delays",
        "fulfill_times",
        "_abandon_log",
        "window_gains",
        "window_fulfillments",
        "snapshot_times",
        "snapshot_mandates",
        "_n_snapshots",
        "_counts_buf",
        "_track_idx",
        "_tracked_buf",
    )

    def __init__(
        self,
        duration: float,
        n_items: int,
        window_length: float,
        record_interval: Optional[float],
        track_items: Tuple[int, ...],
    ) -> None:
        self.duration = duration
        self.n_items = n_items
        self.window_length = window_length
        self.record_interval = record_interval
        self.track_items = track_items

        self.total_gain = 0.0
        self.n_generated = 0
        self.n_fulfilled = 0
        self.n_immediate = 0
        self.n_skipped_self = 0
        self.n_expired = 0
        self.delays: List[float] = []
        #: Time of each logged fulfilment, aligned with ``delays``.
        self.fulfill_times: "array[float]" = array("d")
        #: (fulfilments logged before it, time, gain) per logged
        #: abandonment.
        self._abandon_log: List[Tuple[int, float, float]] = []
        n_windows = max(int(np.ceil(duration / window_length)), 1)
        # Plain lists: per-fulfillment `arr[i] += g` on numpy scalars is
        # several times slower than list item assignment on the eager
        # path; build_result() converts to arrays once at the end.
        self.window_gains: List[float] = [0.0] * n_windows
        self.window_fulfillments: List[int] = [0] * n_windows

        self.snapshot_times: List[float] = []
        self.snapshot_mandates: List[IntArray] = []
        # Snapshot counts go into a preallocated (n_snapshots, n_items)
        # buffer instead of one fresh array copy per snapshot; capacity
        # follows from the snapshot cadence (with slack for float drift
        # in the caller's accumulating schedule) and grows on demand.
        # Invalid cadences are rejected here too (not only in
        # SimulationConfig): a direct caller passing 0/NaN/inf would
        # otherwise silently land on the capacity-0 "no snapshots" path
        # while the engine's snapshot loop spins or never fires.
        if record_interval is not None:
            if not (math.isfinite(record_interval) and record_interval > 0):
                raise ConfigurationError(
                    f"record_interval must be finite and > 0 when set, "
                    f"got {record_interval}"
                )
            # A cadence longer than the run still records the t=0
            # snapshot plus the horizon flush: never below 2 even when
            # int(duration / record_interval) == 0.
            capacity = max(int(duration / record_interval) + 2, 2)
        else:
            capacity = 0
        self._n_snapshots = 0
        self._counts_buf: IntArray = np.empty(
            (capacity, n_items), dtype=np.int64
        )
        self._track_idx = (
            np.asarray(track_items, dtype=np.int64) if track_items else None
        )
        self._tracked_buf: Optional[IntArray] = (
            np.empty((capacity, len(track_items)), dtype=np.int64)
            if track_items
            else None
        )

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def record_generated(self) -> None:
        self.n_generated += 1

    def record_skipped_self(self) -> None:
        self.n_skipped_self += 1

    def _window_of(self, t: float) -> int:
        """The window holding time *t* (the horizon joins the last)."""
        return min(int(t / self.window_length), len(self.window_gains) - 1)

    def _windows_of(self, times: FloatArray) -> IntArray:
        """:meth:`_window_of` over an array: the same IEEE division and
        truncation, so the same windows."""
        return np.minimum(
            (times / self.window_length).astype(np.int64),
            len(self.window_gains) - 1,
        )

    # Two ways to credit fulfilments and abandonments, one per run.  The
    # eager ``record_*`` methods add each gain as it happens (the frozen
    # reference engine's way).  The engine's loops instead *log* each
    # fulfilment's delay and time, and each credited abandonment's
    # place among them; one ``fold_fulfillments`` after the loop then
    # credits the whole log.  End-of-run gains follow either way
    # (``fold_end_of_run_gains``).
    def record_fulfillment(
        self, t: float, delay: float, gain: float, *, immediate: bool = False
    ) -> None:
        self.total_gain += gain
        self.n_fulfilled += 1
        if immediate:
            self.n_immediate += 1
        self.delays.append(delay)
        window = self._window_of(t)
        self.window_gains[window] += gain
        self.window_fulfillments[window] += 1

    def record_abandonment(self, t: float, gain: float) -> None:
        """Gain credited to a request abandoned (timed out) at time *t*."""
        self.total_gain += gain
        self.window_gains[self._window_of(t)] += gain

    def log_immediate(self, t: float) -> None:
        """Log a request fulfilled from its node's own cache at *t*
        (delay zero); :meth:`fold_fulfillments` credits it."""
        self.n_immediate += 1
        self.delays.append(0.0)
        self.fulfill_times.append(t)

    def log_abandonment(self, t: float, gain: float) -> None:
        """Log an abandonment at *t*, between the fulfilments around it."""
        self._abandon_log.append((len(self.delays), t, gain))

    def log_abandonments(
        self, places: IntArray, times: FloatArray, gain: float
    ) -> None:
        """Log abandonments at *times*, each after the number of
        fulfilments given by *places* (nondecreasing)."""
        self._abandon_log.extend(
            (place, t, gain)
            for place, t in zip(places.tolist(), times.tolist())
        )

    def fold_fulfillments(self, gains: FloatArray) -> None:
        """Credit the logged fulfilments' *gains* (one per log entry),
        with every logged abandonment merged in at its place."""
        windows = self._windows_of(np.asarray(self.fulfill_times, dtype=float))
        self.n_fulfilled += len(windows)
        self.window_fulfillments = (
            np.asarray(self.window_fulfillments, dtype=np.int64)
            + np.bincount(windows, minlength=len(self.window_fulfillments))
        ).tolist()
        if self._abandon_log:
            # np.insert is stable: abandonments at one place keep their
            # order, ahead of the fulfilment logged there next.
            at, times, abandon_gains = zip(*self._abandon_log)
            gains = np.insert(gains, at, abandon_gains)
            windows = np.insert(windows, at, self._windows_of(np.array(times)))
        self._credit(gains, windows)

    def fold_end_of_run_gains(self, gains: FloatArray) -> None:
        """Credit *gains* of requests outstanding at the horizon, in
        order, after everything credited so far."""
        last = len(self.window_gains) - 1
        self._credit(gains, np.full(len(gains), last))

    def _credit(self, gains: FloatArray, windows: IntArray) -> None:
        """Add *gains* to the totals term by term, in order.

        ``np.add.accumulate`` and ``np.add.at`` both add one term after
        another, so each total is bit-identical to the eager ``+=``
        sequence.  ``np.sum``, ``np.add.reduce`` and ``reduceat`` sum
        pairwise: they round differently and must not replace these.
        """
        if not len(gains):
            return
        self.total_gain = float(
            np.add.accumulate(np.concatenate(([self.total_gain], gains)))[-1]
        )
        window_gains = np.array(self.window_gains)
        np.add.at(window_gains, windows, gains)
        self.window_gains = window_gains.tolist()

    @property
    def snapshot_counts(self) -> IntArray:
        """Replica-count snapshots recorded so far, one row per snapshot."""
        return self._counts_buf[: self._n_snapshots]

    @property
    def snapshot_tracked(self) -> Optional[IntArray]:
        """Tracked-item snapshot rows, or ``None`` without tracking."""
        if self._tracked_buf is None:
            return None
        return self._tracked_buf[: self._n_snapshots]

    def _grow_snapshot_buffers(self) -> None:
        new_capacity = max(4, 2 * len(self._counts_buf))
        counts_buf = np.empty((new_capacity, self.n_items), dtype=np.int64)
        counts_buf[: self._n_snapshots] = self._counts_buf[: self._n_snapshots]
        self._counts_buf = counts_buf
        if self._tracked_buf is not None:
            tracked_buf = np.empty(
                (new_capacity, self._tracked_buf.shape[1]), dtype=np.int64
            )
            tracked_buf[: self._n_snapshots] = self._tracked_buf[
                : self._n_snapshots
            ]
            self._tracked_buf = tracked_buf

    def record_snapshot(
        self,
        t: float,
        counts: IntArray,
        mandates: Optional[IntArray],
    ) -> None:
        index = self._n_snapshots
        if index >= len(self._counts_buf):
            self._grow_snapshot_buffers()
        self.snapshot_times.append(t)
        self._counts_buf[index] = counts
        if self._tracked_buf is not None:
            self._tracked_buf[index] = counts[self._track_idx]
        self._n_snapshots = index + 1
        if mandates is not None:
            self.snapshot_mandates.append(mandates.copy())

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def build_result(
        self,
        final_counts: IntArray,
        n_unfulfilled: int,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> "SimulationResult":
        delays = np.asarray(self.delays, dtype=float)
        return SimulationResult(
            delays=delays,
            duration=self.duration,
            total_gain=self.total_gain,
            n_generated=self.n_generated,
            n_fulfilled=self.n_fulfilled,
            n_immediate=self.n_immediate,
            n_skipped_self=self.n_skipped_self,
            n_expired=self.n_expired,
            n_unfulfilled=n_unfulfilled,
            mean_delay=float(delays.mean()) if len(delays) else float("nan"),
            median_delay=(
                float(np.median(delays)) if len(delays) else float("nan")
            ),
            p95_delay=(
                float(np.percentile(delays, 95)) if len(delays) else float("nan")
            ),
            window_length=self.window_length,
            window_gains=np.asarray(self.window_gains, dtype=float),
            window_fulfillments=np.asarray(
                self.window_fulfillments, dtype=np.int64
            ),
            snapshot_times=np.asarray(self.snapshot_times),
            snapshot_counts=(
                self._counts_buf[: self._n_snapshots].copy()
                if self._n_snapshots
                else np.zeros((0, self.n_items), dtype=np.int64)
            ),
            snapshot_mandates=(
                np.asarray(self.snapshot_mandates)
                if self.snapshot_mandates
                else None
            ),
            snapshot_tracked=(
                self._tracked_buf[: self._n_snapshots].copy()
                if self._tracked_buf is not None and self._n_snapshots
                else None
            ),
            final_counts=final_counts.copy(),
            manifest=manifest,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured in one simulation run.

    ``gain_rate`` (total gain per unit time) is the simulated counterpart
    of the social welfare ``U(x)`` and the quantity the paper's
    normalized-loss comparisons are computed from.
    """

    duration: float
    total_gain: float
    n_generated: int
    n_fulfilled: int
    n_immediate: int
    n_skipped_self: int
    n_expired: int
    n_unfulfilled: int
    #: Every fulfillment's delay (immediate self-fulfillments included as
    #: zeros), in event order — the raw material for feedback studies.
    delays: FloatArray
    mean_delay: float
    median_delay: float
    p95_delay: float
    window_length: float
    window_gains: FloatArray
    window_fulfillments: IntArray
    snapshot_times: FloatArray
    snapshot_counts: IntArray
    snapshot_mandates: Optional[IntArray]
    snapshot_tracked: Optional[IntArray]
    final_counts: IntArray
    #: Run provenance (:class:`repro.obs.manifest.RunManifest` as a plain
    #: dict), populated when the run was traced or manifests requested.
    #: Carries host timings, so result-equality checks must ignore it.
    manifest: Optional[Dict[str, Any]] = None

    @property
    def gain_rate(self) -> float:
        """Observed utility per unit time (the welfare estimate)."""
        return self.total_gain / self.duration

    @property
    def fulfillment_ratio(self) -> float:
        """Fraction of generated requests fulfilled before the horizon."""
        if self.n_generated == 0:
            return float("nan")
        return self.n_fulfilled / self.n_generated

    def summary(self) -> Dict[str, float]:
        """A compact dictionary of headline metrics."""
        return {
            "gain_rate": self.gain_rate,
            "total_gain": self.total_gain,
            "fulfillment_ratio": self.fulfillment_ratio,
            "mean_delay": self.mean_delay,
            "median_delay": self.median_delay,
            "p95_delay": self.p95_delay,
            "n_generated": float(self.n_generated),
            "n_unfulfilled": float(self.n_unfulfilled),
        }
