"""The declared-deterministic surface checked by RPA001.

These are the functions whose behavior the repo *documents* as a pure
function of their inputs plus the run seed — the bit-identity claim the
reference-equivalence tests and the simcache rest on:

* the engine's hot loops, the static kernel that stands in for them,
  and event-stream construction (everything ``Simulation.run()``
  dispatches to after provenance capture; ``run`` itself legitimately
  reads the clock and environment for manifests);
* every protocol hook override — ``initialize`` / ``on_fulfill`` /
  ``after_contact`` / ``mandate_totals`` on any
  ``ReplicationProtocol`` subclass, because the engine replays them
  inside the loop;
* the simcache run-key construction (a nondeterministic key silently
  poisons the content-addressed cache);
* the trial-scoped amortization layer — the ``repro.sim.events``
  stream builders and the ``TrialArtifacts`` memoized
  fingerprint/stream accessors, whose outputs substitute for the
  engine's and cache's own computations across every protocol in a
  trial;
* public module-level functions of ``repro.allocation`` (the solvers
  the paper's optimization results depend on);
* anything marked ``@deterministic_surface``.

The collection is name-based and tolerant: entries that do not exist in
the analyzed program (fixture packages in tests) are simply absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .callgraph import CallGraph

__all__ = ["Surface", "collect_surfaces"]

_ENGINE_METHODS = (
    "_build_event_stream",
    "_check_prebuilt",
    "_run_dispatch",
    "_run_plain",
    "_run_static",
    "_run_traced",
    "_settle_unfulfilled",
)

_PROTOCOL_HOOKS = (
    "initialize",
    "on_fulfill",
    "after_contact",
    "mandate_totals",
)


@dataclass(frozen=True)
class Surface:
    """One declared-deterministic root."""

    qname: str
    reason: str


def collect_surfaces(graph: CallGraph) -> List[Surface]:
    """All declared-deterministic roots present in the program."""
    pkg = graph.program.package
    surfaces: List[Surface] = []
    seen = set()

    def add(qname: str, reason: str) -> None:
        if qname in graph.functions and qname not in seen:
            seen.add(qname)
            surfaces.append(Surface(qname=qname, reason=reason))

    engine_cls = f"{pkg}.sim.engine:Simulation"
    for method in _ENGINE_METHODS:
        add(
            f"{engine_cls}.{method}",
            "engine hot loop — replayed bit-identically from the seed",
        )
    base = f"{pkg}.protocols.base:ReplicationProtocol"
    if base in graph.classes:
        for cls_qname in [base] + graph.descendants(base):
            cls = graph.classes.get(cls_qname)
            if cls is None:
                continue
            for hook in _PROTOCOL_HOOKS:
                method = cls.methods.get(hook)
                if method is not None:
                    add(
                        method.qname,
                        "protocol hook — invoked inside the engine loop",
                    )
    add(
        f"{pkg}.simcache.fingerprint:run_key",
        "simcache run key — nondeterminism poisons the cache",
    )
    for name in (
        "build_event_stream",
        "cut_chunks",
        "server_slot_payloads",
    ):
        add(
            f"{pkg}.sim.events:{name}",
            "trial-scoped event-stream builder — shared across protocols",
        )
    for name in ("run_static", "pair_index"):
        add(
            f"{pkg}.sim.static:{name}",
            "static kernel — stands in for the engine loop bit for bit",
        )
    artifacts_cls = f"{pkg}.experiments.artifacts:TrialArtifacts"
    for method in (
        "event_stream",
        "trace_fingerprint",
        "requests_fingerprint",
    ):
        add(
            f"{artifacts_cls}.{method}",
            "trial artifact memo — substitutes bit-identically per protocol",
        )
    allocation_prefix = f"{pkg}.allocation"
    for info in graph.iter_functions():
        if (
            info.module.startswith(allocation_prefix)
            and info.cls is None
            and "<locals>" not in info.qname
            and not info.name.startswith("_")
        ):
            add(info.qname, "allocation solver — paper-facing optimizer")
        if info.surface_marked:
            add(info.qname, "marked @deterministic_surface")
    surfaces.sort(key=lambda s: s.qname)
    return surfaces
