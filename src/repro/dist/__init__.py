"""Sweep execution backends.

:mod:`~repro.dist.executors` holds the executor seam behind
``run_comparison(executor=...)``: :class:`SerialExecutor` (the
in-process walk) and :class:`ProcessPoolExecutor` (a single-host fork
pool), resolved from the ``executor=`` argument by
:func:`resolve_executor`.

The hard invariant across every executor: a sweep's statistics are
**bit-identical** to serial execution.  Work units are deterministic
functions of their seeds and the parent assembles all accounting in
trial-major order, so executors only decide *where and when* units run.
"""

from .executors import (
    ExecutorLike,
    ProcessPoolExecutor,
    SerialExecutor,
    SweepExecutor,
    SweepSpec,
    resolve_executor,
)

__all__ = [
    "ExecutorLike",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "SweepExecutor",
    "SweepSpec",
    "resolve_executor",
]
