"""Fixed-point inter-procedural effect inference.

Every function starts from its *leaf* effects (the operations in its
own body, from :func:`repro.analysis.effects.function_leaf_effects`)
and the pass repeatedly joins in the effects of every resolved callee
until nothing changes.  The lattice is a finite powerset and join is
union — monotone, so the fixed point exists and is reached in at most
``|effects| x |functions|`` rounds (in practice two or three).

``@declared_effects(...)`` pins a function's summary: its body is not
scanned and callee effects are not joined in.  That is the structured
escape hatch for code whose correctness argument is not syntactic
(e.g. the lease lockfile dance).

For every effect in every summary the pass records one *witness
origin* — either the leaf operation that introduced it or the call
edge it arrived through.  Witnesses are chosen first-wins under a
deterministic iteration order (sorted qnames, call sites in source
order), so reported propagation paths are stable run to run.  Paths
are reconstructed by :func:`witness_trace` walking origins from a root
to a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .callgraph import CallGraph
from .effects import Leaf, function_leaf_effects
from .findings import PathStep

__all__ = ["EffectSummary", "infer_effects", "witness_trace"]


#: Witness for one effect in one function's summary:
#: ``("leaf", line, note)`` — introduced by an operation in the body;
#: ``("call", callee_qname, line)`` — joined in from a callee;
#: ``("declared", def_line, "")`` — pinned by ``@declared_effects``.
Origin = Tuple[str, object, object]


@dataclass
class EffectSummary:
    """Inferred whole-program effect set of one function."""

    qname: str
    effects: FrozenSet[str]
    #: Leaf operations in the function's own body.
    leaves: Tuple[Leaf, ...] = ()
    #: effect -> witness origin (see :data:`Origin`).
    origins: Dict[str, Origin] = field(default_factory=dict)
    declared: bool = False


def infer_effects(graph: CallGraph) -> Dict[str, EffectSummary]:
    """Run the fixed point; returns summaries keyed by function qname."""
    summaries: Dict[str, EffectSummary] = {}
    for info in graph.iter_functions():
        if info.declared is not None:
            summaries[info.qname] = EffectSummary(
                qname=info.qname,
                effects=info.declared,
                leaves=(),
                origins={
                    effect: ("declared", info.lineno, "")
                    for effect in sorted(info.declared)
                },
                declared=True,
            )
            continue
        leaves = tuple(function_leaf_effects(graph, info))
        origins: Dict[str, Origin] = {}
        for leaf in leaves:
            origins.setdefault(leaf.effect, ("leaf", leaf.line, leaf.note))
        summaries[info.qname] = EffectSummary(
            qname=info.qname,
            effects=frozenset(origins),
            leaves=leaves,
            origins=origins,
        )
    ordered = sorted(summaries)
    changed = True
    while changed:
        changed = False
        for qname in ordered:
            summary = summaries[qname]
            if summary.declared:
                continue
            effects = set(summary.effects)
            for site in graph.calls.get(qname, ()):
                for callee in site.targets:
                    callee_summary = summaries.get(callee)
                    if callee_summary is None:
                        continue
                    for effect in sorted(callee_summary.effects):
                        if effect not in effects:
                            effects.add(effect)
                            summary.origins[effect] = (
                                "call",
                                callee,
                                site.line,
                            )
            if len(effects) != len(summary.effects):
                summary.effects = frozenset(effects)
                changed = True
    return summaries


def witness_trace(
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
    root: str,
    effect: str,
    max_depth: int = 32,
) -> Tuple[PathStep, ...]:
    """The recorded propagation path of *effect* from *root* to a leaf.

    Each step names the function and the call line the effect flows
    through; the final step is the leaf operation (or the
    ``@declared_effects`` declaration) that introduced it.
    """
    steps: List[PathStep] = []
    current: Optional[str] = root
    seen = set()
    for _ in range(max_depth):
        if current is None or current in seen:
            break
        seen.add(current)
        info = graph.functions.get(current)
        summary = summaries.get(current)
        if info is None or summary is None:
            break
        origin = summary.origins.get(effect)
        if origin is None:
            steps.append(
                PathStep(
                    path=info.path,
                    line=info.lineno,
                    symbol=info.display,
                    note=f"summary carries {effect} (origin unrecorded)",
                )
            )
            break
        kind = origin[0]
        if kind == "leaf":
            steps.append(
                PathStep(
                    path=info.path,
                    line=int(origin[1]),  # type: ignore[arg-type]
                    symbol=info.display,
                    note=str(origin[2]),
                )
            )
            break
        if kind == "declared":
            steps.append(
                PathStep(
                    path=info.path,
                    line=int(origin[1]),  # type: ignore[arg-type]
                    symbol=info.display,
                    note=f"declares {effect} via @declared_effects",
                )
            )
            break
        callee = str(origin[1])
        callee_info = graph.functions.get(callee)
        callee_name = (
            callee_info.display if callee_info is not None else callee
        )
        steps.append(
            PathStep(
                path=info.path,
                line=int(origin[2]),  # type: ignore[arg-type]
                symbol=info.display,
                note=f"calls {callee_name}",
            )
        )
        current = callee
    return tuple(steps)
