"""Content-addressed disk cache for simulation runs.

A completed ``(trial, protocol)`` simulation is a pure function of its
inputs: the realized contact trace and request schedule, the simulation
configuration, the protocol instance, the simulation seed, and the
engine implementation itself.  This package hashes all
of those into one content key and stores the resulting
:class:`~repro.sim.metrics.SimulationResult` on disk, so sweeps that
revisit a configuration (``run_comparison``, ``figures``, ``repro
figure``/``simulate``) skip re-simulating it entirely.

Invalidation is automatic: any semantic change to the inputs — or a bump
of :data:`repro.sim.engine.ENGINE_CODE_VERSION` — produces a different
key, and the stale entry is simply never addressed again.  Corrupted
entries are skipped with a warning (treated as misses), never trusted.

Enable via ``run_comparison(..., run_cache=...)``, the
``REPRO_SIM_CACHE`` environment variable, or the CLI ``--cache`` /
``--no-cache`` flags; inspect and prune with ``repro cache info|clear``.
"""

from .fingerprint import (
    UncacheableRunError,
    fingerprint_protocol,
    fingerprint_request_recipe,
    fingerprint_requests,
    fingerprint_trace,
    fingerprint_trace_recipe,
    run_key,
)
from .store import (
    DEFAULT_CACHE_ROOT,
    ENV_VAR,
    RunCacheStats,
    SimulationRunCache,
    resolve_run_cache,
)

__all__ = [
    "DEFAULT_CACHE_ROOT",
    "ENV_VAR",
    "RunCacheStats",
    "SimulationRunCache",
    "UncacheableRunError",
    "fingerprint_protocol",
    "fingerprint_request_recipe",
    "fingerprint_requests",
    "fingerprint_trace",
    "fingerprint_trace_recipe",
    "resolve_run_cache",
    "run_key",
]
