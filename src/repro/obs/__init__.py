"""Telemetry: request-lifecycle tracing, run provenance, live progress.

The simulator's end-of-run aggregates answer *how much* welfare an
algorithm earned; the paper's dynamics results (Figures 3-6, Lemma 1)
also need to know *when* and *why*.  This package provides that
observability layer without touching simulation semantics:

* :class:`Tracer` + pluggable sinks (:class:`JsonlSink`,
  :class:`MemorySink`, :class:`NullSink`) — structured request-lifecycle
  events (issued -> contact-seen -> fulfilled/abandoned, plus
  replication events) emitted by the engine.  A ``None`` or
  :class:`NullSink` tracer costs the hot path nothing: the engine keeps
  the hook-free contact fast path and adds no per-event allocations.
* :class:`RunManifest` — provenance of one run (config hash, seed,
  git revision, package versions, wall/CPU timings), its ``phases``
  breakdown and its ``metrics`` counter summary (events, requests,
  fulfilments, expiries, final replicas), attached to
  :class:`~repro.sim.metrics.SimulationResult` and run-cache entries.
* :mod:`repro.obs.log` — a small structured logger for experiment
  progress/status output (CLI-facing ``render()`` prints stay prints).
* :mod:`repro.obs.timing` — the wall/CPU timing shim (the one place
  outside the benchmark harness allowed to read the host clock).
* :mod:`repro.obs.analysis` — trace-file loading, summaries, and the
  Lemma-1 empirical-vs-exponential delay-CDF comparison backing the
  ``repro trace`` CLI.

Event ordering is deterministic: every event carries a monotonically
increasing ``seq`` assigned at emission, so traces from bit-identical
runs are bit-identical too (manifests, which carry timings, are not).
"""

from . import events
from .analysis import (
    delay_cdf_comparison,
    filter_events,
    iter_events,
    lemma1_delay_cdf,
    load_events,
    summarize_events,
    write_events_csv,
    write_events_jsonl,
)
from .log import ObsLogger, get_logger, set_log_level, set_log_stream
from .manifest import RunManifest, environment_provenance
from .sinks import JsonlSink, MemorySink, NullSink, TraceSink
from .timing import Stopwatch
from .tracer import Tracer

__all__ = [
    "events",
    "Tracer",
    "TraceSink",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "RunManifest",
    "environment_provenance",
    "Stopwatch",
    "ObsLogger",
    "get_logger",
    "set_log_level",
    "set_log_stream",
    "iter_events",
    "load_events",
    "filter_events",
    "summarize_events",
    "write_events_jsonl",
    "write_events_csv",
    "delay_cdf_comparison",
    "lemma1_delay_cdf",
]
