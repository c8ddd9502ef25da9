"""RPA003/RPA004 — trace-event schema drift.

The ``repro.obs.events`` registry is the contract between the emitter
(the engine) and every consumer (trace CLI, replay comparators, the
columnar pipeline's codecs).  Drift in
either direction is a real bug that nothing catches at runtime until a
trace is read back:

* **RPA003 (error)** — a call site emits a kind the registry does not
  know.  ``validate_event`` would reject the trace on load, but the
  emission hot path deliberately skips validation, so the bad kind
  lands in files first.
* **RPA004 (warning)** — a registry entry no event source ever emits.
  Dead entries rot: consumers keep codepaths for kinds that can no
  longer occur, and reviewers can't tell intentional reserves from
  leftovers.

Emission sites are call-graph-resolved calls to ``Tracer.emit`` whose
first argument is a string literal or a name resolvable to a
module-level string constant.  Forwarded kinds (``emit(kind, ...)``
where ``kind`` is a parameter) are skipped — the concrete kinds appear
at the forwarding call's own call sites.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..astutil import dotted_name
from ..callgraph import CallGraph
from ..findings import Finding, PathStep
from ..inference import EffectSummary
from ..program import Program

__all__ = ["CODE_UNKNOWN", "CODE_DEAD", "check_schema"]

CODE_UNKNOWN = "RPA003"
CODE_DEAD = "RPA004"

#: Method qname tail that emits one event per call, kind-first.
_EMIT_TAIL = "Tracer.emit"


def _registry(
    program: Program, graph: CallGraph
) -> Tuple[Dict[str, int], Optional[str]]:
    """Schema kinds -> definition line, from ``<pkg>.obs.events``."""
    module_name = f"{program.package}.obs.events"
    module = program.get(module_name)
    if module is None:
        return {}, None
    kinds: Dict[str, int] = {}
    for stmt in module.tree.body:
        if (
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and isinstance(stmt.value, ast.Dict)
        ):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            if not any(
                isinstance(t, ast.Name) and t.id == "EVENT_FIELDS"
                for t in targets
            ):
                continue
            for key in stmt.value.keys:
                if key is None:
                    continue
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    kinds[key.value] = key.lineno
                elif isinstance(key, ast.Name):
                    value = graph.resolve_constant(module_name, key.id)
                    if value is not None:
                        kinds[value] = key.lineno
    return kinds, module.path


def _emitted_kinds(
    graph: CallGraph,
) -> List[Tuple[str, str, int]]:
    """Every statically resolvable emitted kind: (kind, func qname, line)."""
    emitted: List[Tuple[str, str, int]] = []
    for info in graph.iter_functions():
        for site in graph.calls.get(info.qname, ()):
            if site.via_argument or not site.targets:
                continue
            if not any(target.endswith(_EMIT_TAIL) for target in site.targets):
                continue
            if not site.node.args:
                continue
            first = site.node.args[0]
            kind: Optional[str] = None
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                kind = first.value
            else:
                dotted = dotted_name(first)
                if dotted is not None:
                    kind = graph.resolve_constant(info.module, dotted)
            if kind is not None:
                emitted.append((kind, info.qname, site.line))
    return emitted


def check_schema(
    program: Program,
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    del summaries  # schema drift needs the graph, not effect inference
    kinds, registry_path = _registry(program, graph)
    if registry_path is None:
        return []
    findings: List[Finding] = []
    seen_kinds: Set[str] = set()
    for kind, qname, line in _emitted_kinds(graph):
        seen_kinds.add(kind)
        if kind in kinds:
            continue
        info = graph.functions[qname]
        trace = (
            PathStep(
                path=info.path,
                line=line,
                symbol=info.display,
                note=f"emits kind '{kind}'",
            ),
        )
        if program.suppresses(CODE_UNKNOWN, (info.path, line)):
            continue
        findings.append(
            Finding(
                path=info.path,
                line=line,
                col=0,
                code=CODE_UNKNOWN,
                message=(
                    f"event kind '{kind}' emitted by {info.display} is "
                    f"not in the {program.package}.obs.events registry"
                ),
                hint=(
                    "add the kind (and its payload fields) to "
                    "EVENT_FIELDS, or emit an existing constant from "
                    f"{program.package}.obs.events"
                ),
                trace=trace,
            )
        )
    for kind in sorted(set(kinds) - seen_kinds):
        line = kinds[kind]
        trace = (
            PathStep(
                path=registry_path,
                line=line,
                symbol="EVENT_FIELDS",
                note=f"declares kind '{kind}'",
            ),
        )
        if program.suppresses(CODE_DEAD, (registry_path, line)):
            continue
        findings.append(
            Finding(
                path=registry_path,
                line=line,
                col=0,
                code=CODE_DEAD,
                message=(
                    f"schema entry '{kind}' is never emitted by any "
                    "statically resolvable call site"
                ),
                hint=(
                    "delete the dead entry, or suppress with "
                    f"# repro-lint: ignore[{CODE_DEAD}] if the kind is "
                    "reserved on purpose"
                ),
                trace=trace,
            )
        )
    findings.sort()
    return findings
