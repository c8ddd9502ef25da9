"""Synthetic conference trace — the Infocom '06 substitute.

The paper evaluates on Bluetooth sightings among Infocom '06 attendees
(3 days, 50 best-covered of 73 participants).  That data set is not
redistributable, so this generator reproduces the two statistical axes the
paper attributes its trace effects to (Section 6.3):

* **heterogeneous contact rates** — per-node "sociability" weights are
  log-normal; a pair's base intensity is proportional to the product of
  its endpoints' weights;
* **complex time statistics** — a strong diurnal on/off cycle (conference
  hours vs. night) and heavy-tailed (Pareto) inter-contact gaps, giving
  bursty contact trains instead of memoryless ones.

Each pair's events are a Pareto-renewal process warped through the inverse
of the cumulative diurnal intensity, so expected per-pair counts match the
target rates exactly while gaps stay heavy-tailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ...errors import ConfigurationError
from ...types import FloatArray, IntArray, SeedLike, as_rng
from ..trace import ContactTrace

__all__ = ["ConferenceTraceConfig", "conference_trace"]

_MINUTES_PER_DAY = 1440.0
_EPS = float(np.finfo(float).eps)
#: Pairs checked per vectorized step of the short-pair scan.
_SCAN_WINDOW = 64


@dataclass(frozen=True)
class ConferenceTraceConfig:
    """Parameters of the synthetic conference trace (times in minutes)."""

    n_nodes: int = 50
    n_days: int = 3
    #: Average contacts per pair per minute over the whole trace.
    mean_pair_rate: float = 0.007
    #: Conference hours (minutes after midnight) when activity is high.
    day_start: float = 8 * 60.0
    day_end: float = 20 * 60.0
    #: Night activity as a fraction of daytime intensity.
    night_activity: float = 0.05
    #: Std-dev of log-normal per-node sociability (0 = homogeneous rates).
    sociability_sigma: float = 0.75
    #: Pareto (Lomax) shape of renewal gaps; < 2 gives bursty trains.
    pareto_shape: float = 1.5

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError(f"need >= 2 nodes, got {self.n_nodes}")
        if self.n_days <= 0:
            raise ConfigurationError(f"n_days must be > 0, got {self.n_days}")
        if self.mean_pair_rate <= 0:
            raise ConfigurationError("mean_pair_rate must be > 0")
        if not 0 <= self.day_start < self.day_end <= _MINUTES_PER_DAY:
            raise ConfigurationError("need 0 <= day_start < day_end <= 1440")
        if not 0 < self.night_activity <= 1:
            raise ConfigurationError("night_activity must be in (0, 1]")
        if self.sociability_sigma < 0:
            raise ConfigurationError("sociability_sigma must be >= 0")
        if self.pareto_shape <= 1:
            raise ConfigurationError(
                "pareto_shape must be > 1 so gaps have a finite mean"
            )

    @property
    def duration(self) -> float:
        """Total trace length in minutes."""
        return self.n_days * _MINUTES_PER_DAY


def conference_trace(
    config: ConferenceTraceConfig = ConferenceTraceConfig(),
    seed: SeedLike = None,
) -> ContactTrace:
    """Sample a synthetic conference trace per *config*."""
    rng = as_rng(seed)
    n = config.n_nodes

    # Per-pair base intensities from node sociability, normalized so the
    # mean pair rate matches the target exactly.
    sociability = rng.lognormal(0.0, config.sociability_sigma, size=n)
    iu = np.triu_indices(n, k=1)
    pair_weights = sociability[iu[0]] * sociability[iu[1]]
    pair_rates = pair_weights * (
        config.mean_pair_rate / pair_weights.mean()
    )

    knot_t, knot_mass = _diurnal_cumulative(config)
    total_mass = knot_mass[-1]  # integral of the (unit-mean) profile

    # Each pair is a renewal process with unit-mean Pareto gaps in
    # "operational time" s = rate_k * Lambda(t), warped back through the
    # inverse cumulative diurnal intensity.  The operational span is
    # rate_k * Lambda(duration) = rate_k * total_mass, so the expected
    # event count is exactly rate_k * duration.
    arrivals, counts = _renewal_arrivals(
        rng, config.pareto_shape, pair_rates * total_mass
    )
    times = np.interp(
        arrivals / np.repeat(pair_rates, counts), knot_mass, knot_t
    )
    node_a = np.repeat(iu[0].astype(np.int64), counts)
    node_b = np.repeat(iu[1].astype(np.int64), counts)
    order = _stable_order(times)
    return ContactTrace(
        times=times[order],
        node_a=node_a[order],
        node_b=node_b[order],
        n_nodes=n,
        duration=config.duration,
    )


def _stable_order(times: FloatArray) -> IntArray:
    """``np.argsort(times, kind="stable")``, found faster.

    Distinct keys have exactly one sorting permutation, so the default
    (unstable, several times faster) sort returns the stable one unless
    two times tie; the stable sort is kept for that case.
    """
    order = np.argsort(times)
    ordered = times[order]
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(times, kind="stable")
    return order


def _diurnal_cumulative(config: ConferenceTraceConfig) -> tuple:
    """Piecewise-linear cumulative diurnal profile over the whole trace.

    The instantaneous profile is 1 during conference hours and
    ``night_activity`` otherwise, rescaled to integrate to ``duration``
    (unit mean), so pair rates keep their nominal meaning.
    """
    knots = [0.0]
    for day in range(config.n_days):
        base = day * _MINUTES_PER_DAY
        for point in (config.day_start, config.day_end, _MINUTES_PER_DAY):
            t = base + point
            if t > knots[-1]:
                knots.append(t)
    knot_t = np.asarray(knots)

    def intensity(t: float) -> float:
        tod = t % _MINUTES_PER_DAY
        return 1.0 if config.day_start <= tod < config.day_end else config.night_activity

    # Integrate the piecewise-constant profile between knots.
    masses = [0.0]
    for left, right in zip(knot_t[:-1], knot_t[1:]):
        midpoint = (left + right) / 2.0
        masses.append(masses[-1] + intensity(midpoint) * (right - left))
    knot_mass = np.asarray(masses)
    # Rescale to unit mean.
    knot_mass *= config.duration / knot_mass[-1]
    return knot_t, knot_mass


def _renewal_arrivals(
    rng: np.random.Generator, shape: float, spans: FloatArray
) -> Tuple[FloatArray, IntArray]:
    """Arrivals of one unit-rate Pareto renewal process per pair.

    Pair k's process runs on ``[0, spans[k])``; the arrivals of all pairs
    come back concatenated in pair order, with each pair's count.  Gaps
    are Lomax(shape) scaled to unit mean.  Pair k draws batches of
    ``max(16, int(2 * span))`` gaps from *rng* until its last arrival
    reaches its span, each batch continuing from the previous one's last
    arrival, and draws nothing when its span is not positive.  Pairs draw
    in order, so every draw, arrival and the generator's end state match
    a per-pair loop over that rule exactly.

    The draws come in bulk.  One ``rng.pareto`` call draws every pair's
    first batch, which is a prefix of the per-pair loop's stream as long
    as no pair runs short (about one pair in ten does at the default
    config).  A short pair's extra batches are the draws that follow its
    first batch, so later pairs shift by that many draws and the stream
    owes as many more at its end, drawn once a pair reaches them.  Short
    pairs are found from prefix sums of the stream, which differ from a
    batch's sequential sum only by rounding; pairs within a rounding
    margin of their span are confirmed with the exact sequential sum.
    Arrivals are then one sequential cumsum per batch, and a later batch
    adds its predecessor's last arrival.
    """
    n_pairs = len(spans)
    positive = spans > 0
    sizes = np.zeros(n_pairs, dtype=np.int64)
    sizes[positive] = np.maximum(16, (spans[positive] * 2).astype(np.int64))
    n_batches = positive.astype(np.int64)
    stream = _GapStream(rng, shape, int(sizes.sum()))
    # Pair k's first batch starts at ``base[k] + shift``, where *shift*
    # counts the extra draws of the short pairs before it.
    base = np.cumsum(sizes) - sizes
    floor = np.where(positive, spans, -np.inf)
    first = 0
    shift = 0
    while first < n_pairs:
        stop = min(first + _SCAN_WINDOW, n_pairs)
        starts = base[first:stop] + shift
        ends = starts + sizes[first:stop]
        stream.reach(ends[-1])
        suspects = np.flatnonzero(
            stream.sums[ends] - stream.sums[starts]
            < floor[first:stop] + stream.margin()
        )
        for j in suspects:
            k = first + j
            if stream.short(starts[j], ends[j], sizes[k], spans[k]):
                break
        else:  # no short pair in this window
            first = stop
            continue
        start = int(starts[j])
        end = int(ends[j])
        size = int(sizes[k])
        while True:
            # Pair k takes the next *size* draws as one more batch; the
            # stream grows by as many at its end.
            stream.length += size
            stream.reach(end + size)
            n_batches[k] += 1
            end += size
            shift += size
            if not stream.short(start, end, size, spans[k]):
                break
        first = k + 1
    stream.reach(stream.length)
    gaps = stream.gaps[: stream.n_drawn]

    lengths = np.repeat(sizes, n_batches)
    arrivals = _rowwise_cumsum(gaps, lengths)
    # A pair's later batches continue from its previous batch's last
    # arrival, in stream order.
    row_starts = np.cumsum(lengths) - lengths
    batch_no = np.arange(len(lengths)) - np.repeat(
        np.cumsum(n_batches) - n_batches, n_batches
    )
    for row in np.flatnonzero(batch_no):
        lo = row_starts[row]
        arrivals[lo : lo + lengths[row]] += arrivals[lo - 1]
    per_pair = n_batches * sizes
    keep = arrivals < np.repeat(spans, per_pair)
    kept = np.concatenate(([0], np.cumsum(keep)))
    pair_ends = np.cumsum(per_pair)
    return arrivals[keep], kept[pair_ends] - kept[pair_ends - per_pair]


class _GapStream:
    """The stream of unit-mean Lomax gaps a per-pair loop draws from
    *rng*, with its prefix sums.

    The stream is *length* draws long; draws past those made so far are
    owed, and made in one call once a caller reaches them.
    """

    def __init__(self, rng: np.random.Generator, shape: float, length: int):
        self.rng = rng
        self.shape = shape
        self.length = length
        self.n_drawn = 0
        # Room for the short pairs' extra batches (a tenth of the draws
        # at the default config) before the arrays grow.
        self.gaps = np.empty(length + length // 4)
        self.sums = np.zeros(len(self.gaps) + 1)
        self.reach(length)

    def reach(self, stop: int) -> None:
        """Draw what the stream owes if *stop* lies past the draws made
        so far."""
        lo = self.n_drawn
        hi = self.length
        if stop <= lo:
            return
        if hi > len(self.gaps):
            self.gaps = np.concatenate((self.gaps[:lo], np.empty(hi)))
            self.sums = np.concatenate((self.sums[: lo + 1], np.empty(hi)))
        more = self.gaps[lo:hi]
        np.multiply(
            self.rng.pareto(self.shape, size=hi - lo), self.shape - 1.0,
            out=more,
        )
        np.cumsum(more, out=self.sums[lo + 1 : hi + 1])
        self.sums[lo + 1 : hi + 1] += self.sums[lo]
        self.n_drawn = hi

    def margin(self) -> float:
        """A bound on how far a difference of prefix sums lies from the
        sequential sum of the same gaps: each is off by at most
        ``n_drawn * eps`` of the largest prefix sum."""
        return 4 * self.n_drawn * _EPS * float(self.sums[self.n_drawn])

    def short(self, start: int, end: int, size: int, span: float) -> bool:
        """Whether the arrivals of batches of *size* gaps laid back to
        back on ``[start, end)`` end before *span*; exact, from the
        sequential sums where the prefix sums are within the margin."""
        total = self.sums[end] - self.sums[start]
        margin = self.margin()
        if abs(total - span) > margin:
            return bool(total < span)
        last = 0.0
        for lo in range(start, end, size):
            last = last + np.cumsum(self.gaps[lo : lo + size])[-1]
        return bool(last < span)


def _rowwise_cumsum(values: FloatArray, lengths: IntArray) -> FloatArray:
    """A sequential cumsum within each row of *values*, whose rows lie
    back to back with the given *lengths*.

    Rows are binned by length within a factor of two and each bin is
    summed as one zero-padded matrix, row by row; padding after a row's
    end leaves its sums untouched and at most doubles a bin's size.
    """
    out = np.empty_like(values)
    starts = np.cumsum(lengths) - lengths
    bins = np.frexp(lengths)[1]
    for b in np.unique(bins[lengths > 0]):
        rows = np.flatnonzero(bins == b)
        cols = np.arange(lengths[rows].max())
        inside = cols < lengths[rows, None]
        positions = (starts[rows, None] + cols)[inside]
        block = np.zeros(inside.shape)
        block[inside] = values[positions]
        out[positions] = np.cumsum(block, axis=1)[inside]
    return out
