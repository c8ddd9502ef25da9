"""RPA002 — sweep-state writes must go through ``repro.durable``.

The run cache's crash-safety story (atomic rename + fsync, so a killed
sweep never leaves a torn entry behind) only holds if *every* write
under the run cache (``repro.simcache``) and the sweep executors
(``repro.dist``) uses the :mod:`repro.durable` primitives.  One raw
``json.dump`` in a helper three calls deep reintroduces the torn-file
window that resuming a sweep from its cache depends on being closed —
and review rarely catches it, because the write looks innocuous where
it sits.  This checker walks the inferred summaries from every
function defined in those modules and flags any reachable raw
``FS_WRITE`` that did not come from the durable channel (whose own
primitives are relabeled ``FS_WRITE_ATOMIC`` by the effect pass).

``DYNAMIC`` is deliberately *not* an error here: raw write primitives
(``open(..., "w")``, ``json.dump``, ``os.replace``) are syntactically
visible wherever they occur, so a raw write cannot hide exclusively
behind an unresolvable call — flagging dynamic calls would only add
noise on executor indirection.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..callgraph import CallGraph
from ..effects import FS_WRITE
from ..findings import Finding
from ..inference import EffectSummary, witness_trace
from ..program import Program

__all__ = ["CODE", "check_durability"]

CODE = "RPA002"


def _root_modules(program: Program) -> Tuple[str, ...]:
    pkg = program.package
    return (f"{pkg}.dist", f"{pkg}.simcache")


def _is_root_module(module: str, roots: Tuple[str, ...]) -> bool:
    return any(
        module == root or module.startswith(root + ".") for root in roots
    )


def check_durability(
    program: Program,
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    roots = _root_modules(program)
    findings: List[Finding] = []
    #: (leaf path, leaf line) already reported — one finding per raw
    #: write site, not one per caller that can reach it.
    reported: Set[Tuple[str, int]] = set()
    for info in graph.iter_functions():
        if not _is_root_module(info.module, roots):
            continue
        summary = summaries.get(info.qname)
        if summary is None or FS_WRITE not in summary.effects:
            continue
        trace = witness_trace(graph, summaries, info.qname, FS_WRITE)
        if not trace:
            continue
        leaf = trace[-1]
        key = (leaf.path, leaf.line)
        if key in reported:
            continue
        reported.add(key)
        if program.suppresses(
            CODE, (info.path, info.lineno), (leaf.path, leaf.line)
        ):
            continue
        findings.append(
            Finding(
                path=leaf.path,
                line=leaf.line,
                col=0,
                code=CODE,
                message=(
                    f"raw filesystem write reachable from "
                    f"{info.display} (crash-safety root): {leaf.note}"
                ),
                hint=(
                    "distributed state must survive torn writes; use "
                    "repro.durable.atomic_write_json / "
                    "atomic_write_text / append_line, or suppress "
                    f"with # repro-lint: ignore[{CODE}] <why a torn "
                    "file is acceptable here>"
                ),
                trace=trace,
            )
        )
    findings.sort()
    return findings
