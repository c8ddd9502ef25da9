"""The bulk conference generator against a frozen per-pair loop.

:func:`repro.contacts.synthetic.conference_trace` draws every pair's
Pareto gaps in bulk.  Traces, trace fingerprints and run-cache keys all
depend on its exact output and on the generator state it leaves behind,
so it must match, bit for bit, the per-pair loop it replaced.  That loop
is frozen below as the oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.contacts.synthetic import ConferenceTraceConfig, conference_trace
from repro.contacts.synthetic.conference import (
    _diurnal_cumulative,
    _GapStream,
    _stable_order,
)


def reference_conference(config, rng):
    """The per-pair generator as it stood before the bulk rewrite, plus
    the number of extra batches its short pairs drew."""
    n = config.n_nodes
    sociability = rng.lognormal(0.0, config.sociability_sigma, size=n)
    iu = np.triu_indices(n, k=1)
    pair_weights = sociability[iu[0]] * sociability[iu[1]]
    pair_rates = pair_weights * (config.mean_pair_rate / pair_weights.mean())
    knot_t, knot_mass = _diurnal_cumulative(config)
    total_mass = knot_mass[-1]
    times_parts, a_parts, b_parts = [], [], []
    extra = 0
    for k in range(len(pair_rates)):
        span = pair_rates[k] * total_mass
        arrivals, n_batches = reference_arrivals(
            rng, config.pareto_shape, span
        )
        extra += max(n_batches - 1, 0)
        if len(arrivals) == 0:
            continue
        event_times = np.interp(arrivals / pair_rates[k], knot_mass, knot_t)
        times_parts.append(event_times)
        a_parts.append(np.full(len(event_times), iu[0][k], dtype=np.int64))
        b_parts.append(np.full(len(event_times), iu[1][k], dtype=np.int64))
    if not times_parts:
        return (
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            extra,
        )
    times = np.concatenate(times_parts)
    node_a = np.concatenate(a_parts)
    node_b = np.concatenate(b_parts)
    order = np.argsort(times, kind="stable")
    return times[order], node_a[order], node_b[order], extra


def reference_arrivals(rng, shape, span):
    if span <= 0:
        return np.empty(0), 0
    scale = shape - 1.0
    batch = max(16, int(span * 2))
    gaps = rng.pareto(shape, size=batch) * scale
    arrivals = np.cumsum(gaps)
    n_batches = 1
    while arrivals[-1] < span:
        gaps = rng.pareto(shape, size=batch) * scale
        arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(gaps)])
        n_batches += 1
    return arrivals[arrivals < span], n_batches


def _config(case: int) -> ConferenceTraceConfig:
    """Seeded configs, every fourth one a short-pair stress: tiny spans
    (every batch is 16 gaps), near-critical Pareto tails, no sociability
    spread, one day and activity from midnight."""
    rng = np.random.default_rng(1000 + case)
    if case % 4 == 0:
        return ConferenceTraceConfig(
            n_nodes=int(rng.integers(2, 30)),
            n_days=1,
            mean_pair_rate=float(rng.uniform(6e-4, 5e-3)),
            day_start=0.0,
            day_end=float(rng.uniform(60.0, 1440.0)),
            sociability_sigma=0.0,
            pareto_shape=1.05,
        )
    day_start = float(rng.uniform(0.0, 1200.0))
    return ConferenceTraceConfig(
        n_nodes=int(rng.integers(2, 40)),
        n_days=int(rng.integers(1, 4)),
        mean_pair_rate=float(rng.choice([2e-4, 2e-3, 7e-3, 0.05])),
        day_start=day_start,
        day_end=float(rng.uniform(day_start + 1.0, 1440.0)),
        night_activity=float(rng.uniform(0.01, 1.0)),
        sociability_sigma=float(rng.choice([0.0, 0.75, 2.0])),
        pareto_shape=float(rng.choice([1.05, 1.2, 1.5, 3.0])),
    )


@pytest.mark.parametrize("case", range(60))
def test_matches_per_pair_loop(case):
    config = _config(case)
    rng_bulk = np.random.default_rng(case)
    rng_loop = np.random.default_rng(case)
    trace = conference_trace(config, seed=rng_bulk)
    times, node_a, node_b, extra = reference_conference(config, rng_loop)
    assert trace.times.dtype == times.dtype
    assert trace.node_a.dtype == node_a.dtype == trace.node_b.dtype
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.node_a, node_a)
    assert np.array_equal(trace.node_b, node_b)
    # The passed-in generator ends where the per-pair loop left it.
    assert rng_bulk.random() == rng_loop.random()
    if case % 4 == 0 and config.n_nodes > 5:
        # The stress configs do make pairs draw extra batches.
        assert extra > 0


def test_borderline_pairs_use_the_sequential_sum():
    """A span within the rounding margin of a pair's prefix-sum total is
    decided by the sequential sum of its batches, as the loop decides."""
    size = 40
    stream = _GapStream(np.random.default_rng(7), 1.5, 5 * size)
    start, end = size, 4 * size  # three batches of one pair
    last = 0.0
    for lo in range(start, end, size):
        last = last + np.cumsum(stream.gaps[lo : lo + size])[-1]
    assert abs(stream.sums[end] - stream.sums[start] - last) <= stream.margin()
    assert not stream.short(start, end, size, last)
    assert stream.short(start, end, size, np.nextafter(last, np.inf))
    assert not stream.short(start, end, size, np.nextafter(last, -np.inf))


#: sha256 over ``times``, ``node_a`` and ``node_b`` bytes of the default
#: config's trace, recorded with the per-pair generator.
DEFAULT_DIGESTS = {
    0: (45139, "d6603d4d66550533ca0b9f01278bc855b899993277d090e3871e34739c2e1391"),
    1: (46550, "6671761986d86c4b94177a7974132725ddbc0128ca9b2c327b03f52ce8bbf99e"),
    404: (44293, "57402f63f141cf700ebc8b09ba43cdb1e3b418e8d1946980af78b4b7a98c6257"),
    505: (45623, "e44ff8f9421081774895309227d052df3513972f932ca9d239796d4951b918b5"),
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_DIGESTS))
def test_default_trace_digest(seed):
    trace = conference_trace(seed=seed)
    digest = hashlib.sha256()
    for column in (trace.times, trace.node_a, trace.node_b):
        digest.update(np.ascontiguousarray(column).tobytes())
    assert (len(trace), digest.hexdigest()) == DEFAULT_DIGESTS[seed]


def test_no_contacts():
    """A vanishing rate keeps no event; the columns keep their dtypes."""
    config = replace(ConferenceTraceConfig(n_nodes=2), mean_pair_rate=1e-12)
    trace = conference_trace(config, seed=0)
    assert len(trace) == 0
    assert trace.times.dtype == np.float64
    assert trace.node_a.dtype == trace.node_b.dtype == np.int64


@pytest.mark.parametrize("n_distinct", [3, 50, 5000])
def test_stable_order(n_distinct):
    """The fast path (all times distinct) and its tie fallback both give
    the stable order."""
    rng = np.random.default_rng(n_distinct)
    times = rng.permutation(5000) % n_distinct / 7.0
    assert np.array_equal(
        _stable_order(times), np.argsort(times, kind="stable")
    )
