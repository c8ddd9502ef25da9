"""RPL005 — float-equality and NaN-comparison hazards.

The allocation solvers and utility families compute the paper's welfare
numbers (Eq. 1, Theorems 1-2); exact ``==`` against float literals makes
those computations depend on rounding mode and optimization order, and
``x == nan`` is always false, so NaNs propagate into welfare silently.
Equality on *integer-valued* state (counts, budgets) is fine — this rule
only fires on float-literal and NaN comparisons.

Scope: ``allocation/`` and ``utility/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_name
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["FloatCompareRule"]

_NAN_NAMES = frozenset({"np.nan", "numpy.nan", "math.nan", "nan"})


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # Negative literals parse as UnaryOp(USub, Constant).
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


def _is_nan(node: ast.AST) -> bool:
    name = dotted_name(node)
    if name in _NAN_NAMES:
        return True
    # float("nan")
    return (
        isinstance(node, ast.Call)
        and dotted_name(node.func) == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.lower() in ("nan", "-nan")
    )


class FloatCompareRule(Rule):
    code = "RPL005"
    name = "float-compare"
    summary = (
        "welfare math must not use exact float equality or compare "
        "against NaN"
    )
    hint = (
        "use math.isclose(a, b, abs_tol=...) / np.isclose with an "
        "explicit tolerance; test NaN with math.isnan/np.isnan"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_directory("allocation") or ctx.in_directory("utility")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_nan(left) or _is_nan(right):
                    yield self.finding(
                        ctx,
                        node,
                        "comparison against NaN is always False; NaNs "
                        "will flow into the welfare sums undetected",
                    )
                elif _is_float_literal(left) or _is_float_literal(right):
                    literal = next(
                        ast.unparse(side)
                        for side in (left, right)
                        if _is_float_literal(side)
                    )
                    yield self.finding(
                        ctx,
                        node,
                        f"exact float equality against {literal}; welfare "
                        "terms differ in the last ulp across "
                        "platforms/orders",
                    )
