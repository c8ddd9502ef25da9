"""The effect lattice and per-function leaf-effect extraction.

Effects are plain strings; a function's summary is a ``frozenset`` of
them, so the lattice join is set union — finite and monotone, which is
what lets :mod:`repro.analysis.inference` run a fixed point.

* ``UNSEEDED_RNG`` — global/OS entropy (``random.random``, the
  ``numpy.random.*`` module-level globals, argless ``default_rng()``,
  ``secrets``, ``uuid.uuid4``, ``os.urandom``).  A seeded
  ``default_rng(seed)`` or ``Random(seed)`` is no effect.
* ``WALL_CLOCK`` — host-clock reads (:data:`CLOCK_CALLS`).
* ``DICT_ORDER`` — observable iteration order of a ``set`` (string
  hashing is randomized per process) or an unsorted directory listing.
* ``DYNAMIC`` — conservative TOP marker: the function makes a call the
  graph could not resolve (call through a parameter, computed callee),
  so *any* effect may hide behind it.  The determinism checker treats
  it as an error at surfaces.

:func:`classify_external_call` is the one place that decides which
callee is a hazard: the per-file rules RPL001/RPL002 ask it too.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .astutil import dotted_name
from .callgraph import CallGraph, FunctionInfo, own_body_nodes

__all__ = [
    "CLOCK_CALLS",
    "DICT_ORDER",
    "DYNAMIC",
    "Leaf",
    "PURE",
    "UNSEEDED_RNG",
    "WALL_CLOCK",
    "classify_external_call",
    "function_leaf_effects",
]

UNSEEDED_RNG = "UNSEEDED_RNG"
WALL_CLOCK = "WALL_CLOCK"
DICT_ORDER = "DICT_ORDER"
DYNAMIC = "DYNAMIC"

#: The bottom of the lattice: no effects.
PURE: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Leaf:
    """One leaf operation introducing an effect into a function."""

    effect: str
    line: int
    note: str


# ---------------------------------------------------------------------------
# external-callee tables
# ---------------------------------------------------------------------------

#: Host-clock reads.  ``time.sleep`` is absent on purpose: it waits,
#: it never *reads* time.
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level global-RNG / OS-entropy callees, including the calls
#: that read or reseed numpy's hidden global ``RandomState``.
_UNSEEDED_CALLS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.normalvariate",
        "random.expovariate",
        "random.betavariate",
        "random.getrandbits",
        "random.SystemRandom",
        "numpy.random.seed",
        "numpy.random.get_state",
        "numpy.random.set_state",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.ranf",
        "numpy.random.sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.standard_normal",
        "numpy.random.exponential",
        "numpy.random.poisson",
        "numpy.random.binomial",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
    }
)

#: Directory listings with filesystem-dependent order.  Flagged only
#: when not directly wrapped in ``sorted(...)`` — see the syntactic
#: pass below, which owns these so it can check the wrapper.
_LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Callables whose call consumes an iterable in order (iterating a set
#: through one of these leaks hash order).
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "iter", "enumerate"})


def classify_external_call(
    dotted: str, call: ast.Call
) -> Optional[Tuple[str, str]]:
    """Effect of a call to an external (non-program) callee.

    Returns ``(effect, note)`` or None for effect-free callees.  The
    closed-world assumption — unknown external calls are pure — is
    deliberate: the tables cover the stdlib/numpy surface the repo
    uses, and anything beyond that is visible in review as a new
    import.
    """
    tail = dotted.rsplit(".", 1)[-1]
    if dotted in CLOCK_CALLS:
        return (WALL_CLOCK, f"'{dotted}' reads the host clock")
    if dotted in _UNSEEDED_CALLS:
        return (UNSEEDED_RNG, f"'{dotted}' draws unseeded randomness")
    if (tail == "default_rng" or dotted.endswith(".Random")) and not (
        call.args or call.keywords
    ):
        return (UNSEEDED_RNG, f"argless '{dotted}()' seeds from OS entropy")
    return None


# ---------------------------------------------------------------------------
# per-function extraction
# ---------------------------------------------------------------------------


def function_leaf_effects(
    graph: CallGraph, info: FunctionInfo
) -> List[Leaf]:
    """Leaf effects introduced directly inside *info*'s body.

    Combines the resolved call sites (external-table classification,
    dynamic-call TOP) with a syntactic pass for the effects that are
    not calls: set-order-dependent iteration and unsorted listings.
    """
    leaves: List[Leaf] = []
    for site in graph.calls.get(info.qname, ()):
        if site.dynamic:
            leaves.append(
                Leaf(
                    DYNAMIC,
                    site.line,
                    "dynamic call — callee not statically resolvable",
                )
            )
        elif site.external is not None:
            dotted = site.external
            tail = dotted.rsplit(".", 1)[-1]
            if dotted in _LISTING_CALLS or (
                dotted.startswith("<receiver>.") and tail in _LISTING_METHODS
            ):
                continue  # handled by the syntactic pass (sorted() check)
            classified = classify_external_call(dotted, site.node)
            if classified is not None:
                leaves.append(Leaf(classified[0], site.line, classified[1]))
    leaves.extend(_syntactic_leaves(info))
    deduped: Dict[Tuple[str, int], Leaf] = {}
    for leaf in leaves:
        deduped.setdefault((leaf.effect, leaf.line), leaf)
    return [deduped[key] for key in sorted(deduped)]


def _syntactic_leaves(info: FunctionInfo) -> List[Leaf]:
    node = info.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    leaves: List[Leaf] = []
    parents: Dict[int, ast.AST] = {}
    body_nodes = list(own_body_nodes(node))
    for parent in body_nodes:
        for child in ast.iter_child_nodes(parent):
            parents.setdefault(id(child), parent)
    set_vars = _set_typed_locals(node, body_nodes)

    def is_set_expr(expr: ast.AST) -> bool:
        return _is_set_expr(expr, set_vars)

    for item in body_nodes:
        if isinstance(item, ast.For) and is_set_expr(item.iter):
            leaves.append(
                Leaf(
                    DICT_ORDER,
                    item.iter.lineno,
                    "iteration over a set — order depends on hash "
                    "randomization",
                )
            )
        if isinstance(item, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in item.generators:
                if is_set_expr(gen.iter):
                    leaves.append(
                        Leaf(
                            DICT_ORDER,
                            gen.iter.lineno,
                            "comprehension over a set — order depends "
                            "on hash randomization",
                        )
                    )
        if isinstance(item, ast.Call):
            callee = _call_tail(item)
            if (
                callee in _ORDER_SENSITIVE_WRAPPERS
                and item.args
                and is_set_expr(item.args[0])
            ):
                leaves.append(
                    Leaf(
                        DICT_ORDER,
                        item.lineno,
                        f"'{callee}(...)' materializes a set in hash order",
                    )
                )
            if callee == "join" and item.args and is_set_expr(item.args[0]):
                leaves.append(
                    Leaf(
                        DICT_ORDER,
                        item.lineno,
                        "'.join(...)' over a set concatenates in hash order",
                    )
                )
            if _is_unsorted_listing(item, parents):
                leaves.append(
                    Leaf(
                        DICT_ORDER,
                        item.lineno,
                        "unsorted directory listing — order is "
                        "filesystem-dependent",
                    )
                )
    return leaves


def _call_tail(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_unsorted_listing(
    call: ast.Call, parents: Dict[int, ast.AST]
) -> bool:
    dotted = None
    if isinstance(call.func, ast.Attribute):
        dotted = dotted_name(call.func)
        tail = call.func.attr
    elif isinstance(call.func, ast.Name):
        dotted = call.func.id
        tail = call.func.id
    else:
        return False
    is_listing = (
        dotted in _LISTING_CALLS if dotted else False
    ) or tail in _LISTING_METHODS
    if not is_listing:
        return False
    parent = parents.get(id(call))
    if (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "sorted"
        and parent.args
        and parent.args[0] is call
    ):
        return False
    return True


def _set_typed_locals(
    func: ast.AST, body_nodes: List[ast.AST]
) -> Set[str]:
    """Names of locals that (may) hold a set, by forward propagation."""
    set_vars: Set[str] = set()
    # Two passes so ``a = b & c`` after ``b = set()`` resolves even when
    # ast.walk order is surprising; the set only grows, so this is a
    # tiny fixed point.
    for _ in range(2):
        for item in body_nodes:
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(item, ast.Assign) and len(item.targets) == 1:
                target, value = item.targets[0], item.value
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                target, value = item.target, item.value
            elif isinstance(item, ast.AugAssign):
                target, value = item.target, item.value
                if isinstance(target, ast.Name) and target.id in set_vars:
                    continue  # |= on a set stays a set
            if (
                target is not None
                and isinstance(target, ast.Name)
                and value is not None
                and _is_set_expr(value, set_vars)
            ):
                set_vars.add(target.id)
    return set_vars


def _is_set_expr(expr: ast.AST, set_vars: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_vars
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id in (
            "set",
            "frozenset",
        ):
            return True
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(expr.func.value, set_vars)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(expr.left, set_vars) or _is_set_expr(
            expr.right, set_vars
        )
    return False
