"""Whole-program static analysis: ``repro analyze``.

Where :mod:`repro.lint` checks one file at a time, this package parses
*all* of ``src/repro`` into a module + call graph and runs a fixed-point
effect-inference pass over a small lattice of effects (seeded/unseeded
RNG, wall clock, set-iteration order, raw vs. atomic filesystem writes,
fork, environment reads).  Three whole-program checkers sit on top of
the inferred summaries:

* **RPA001 determinism-boundary** — no unseeded RNG, host-clock read,
  set-iteration-order dependence, or unresolvable dynamic call may reach
  a declared-deterministic surface (engine hot loops, protocol hooks,
  the simcache run-key, allocation solvers).  Findings print the full
  inter-procedural propagation path, ``file:line`` by ``file:line``.
* **RPA002 durability** — every raw write primitive reachable from
  ``repro.dist`` or ``repro.simcache`` must flow through
  :mod:`repro.durable` (the invariant the lease protocol depends on).
* **RPA003/RPA004 schema drift** — every event kind emitted through
  :class:`repro.obs.Tracer` / ``WorkQueue.log_event`` must exist in the
  :mod:`repro.obs.events` registry (RPA003, error) and every registry
  entry must be emitted somewhere (RPA004, dead-entry warning).

Suppressions reuse the ``# repro-lint: ignore[RPA001]`` comment syntax
shared with :mod:`repro.lint`; a committed baseline file ratchets: new
findings fail, the baseline can only shrink.  See
``docs/static_analysis.md``.

The package exports lazily (PEP 562): product modules that only want
the runtime-no-op markers (``@declared_effects`` /
``@deterministic_surface``, imported from
:mod:`repro.analysis.annotations`) must not pay for — or create import
cycles with — the analyzer machinery itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .annotations import declared_effects, deterministic_surface

if TYPE_CHECKING:  # pragma: no cover - typing-time re-exports
    from .callgraph import CallGraph, FunctionInfo, build_call_graph
    from .effects import (
        ALL_EFFECTS,
        DICT_ORDER,
        DYNAMIC,
        ENV_READ,
        FORK,
        FS_WRITE,
        FS_WRITE_ATOMIC,
        PURE,
        SEEDED_RNG,
        UNSEEDED_RNG,
        WALL_CLOCK,
    )
    from .findings import AnalysisFinding, PathStep
    from .inference import EffectSummary, infer_effects
    from .program import ModuleInfo, Program
    from .runner import AnalysisReport, run_analysis

#: Lazily exported name -> defining submodule.
_EXPORTS = {
    "ALL_EFFECTS": "effects",
    "DICT_ORDER": "effects",
    "DYNAMIC": "effects",
    "ENV_READ": "effects",
    "FORK": "effects",
    "FS_WRITE": "effects",
    "FS_WRITE_ATOMIC": "effects",
    "PURE": "effects",
    "SEEDED_RNG": "effects",
    "UNSEEDED_RNG": "effects",
    "WALL_CLOCK": "effects",
    "AnalysisFinding": "findings",
    "PathStep": "findings",
    "ModuleInfo": "program",
    "Program": "program",
    "CallGraph": "callgraph",
    "FunctionInfo": "callgraph",
    "build_call_graph": "callgraph",
    "EffectSummary": "inference",
    "infer_effects": "inference",
    "AnalysisReport": "runner",
    "run_analysis": "runner",
}

__all__ = sorted(
    list(_EXPORTS) + ["declared_effects", "deterministic_surface"]
)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
