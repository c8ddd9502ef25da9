"""The sanctioned wall/CPU timing shim.

Simulation and experiment code must never read the host clock directly
(``repro analyze`` RPL002: wall-clock time breaks determinism and replay).
Provenance timings are the exception the rule exists to channel: this
module is the one place outside the benchmark harness allowed to call
``time.perf_counter``/``time.process_time``, and everything else that
wants a duration goes through :class:`Stopwatch`.

Timings measured here are *metadata* — they land in manifests and
telemetry records, never in simulation state or results that equality
tests compare.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["Stopwatch"]


class _Section:
    """One named timing span; accumulates into the owner on exit.

    Sections nest freely (an inner section's time is also part of every
    enclosing section's), and re-entering the same name accumulates, so
    ``sw.sections`` is a phase-time breakdown whose *disjoint* entries
    sum to at most the stopwatch's total wall time.
    """

    __slots__ = ("_owner", "_name", "_wall0", "_cpu0")

    def __init__(self, owner: "Stopwatch", name: str) -> None:
        self._owner = owner
        self._name = name
        self._wall0: Optional[float] = None
        self._cpu0: Optional[float] = None

    def __enter__(self) -> "_Section":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._wall0 is None or self._cpu0 is None:
            return
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        sections = self._owner.sections
        sections[self._name] = sections.get(self._name, 0.0) + wall
        cpu_sections = self._owner.cpu_sections
        cpu_sections[self._name] = cpu_sections.get(self._name, 0.0) + cpu
        self._wall0 = None
        self._cpu0 = None


class Stopwatch:
    """Measures wall and CPU seconds between :meth:`start` and :meth:`stop`.

    Usable as a context manager::

        with Stopwatch() as sw:
            do_work()
        record(wall=sw.wall, cpu=sw.cpu)

    Until stopped, ``wall``/``cpu`` report the running elapsed time, so
    a long-lived stopwatch can be sampled for live progress.

    Named sections break the total down by phase::

        sw = Stopwatch()
        with sw.section("merge"):
            merge()
        with sw.section("run"):
            run()
        sw.sections  # {"merge": ..., "run": ...} — wall seconds

    Section times accumulate per name across re-entries; disjoint
    sections sum to at most the enclosing stopwatch's wall time.
    """

    def __init__(self, autostart: bool = True) -> None:
        self._wall_start: Optional[float] = None
        self._cpu_start: Optional[float] = None
        self._wall: Optional[float] = None
        self._cpu: Optional[float] = None
        #: Accumulated wall seconds per named section.
        self.sections: Dict[str, float] = {}
        #: Accumulated process-CPU seconds per named section.
        self.cpu_sections: Dict[str, float] = {}
        if autostart:
            self.start()

    def section(self, name: str) -> _Section:
        """A context manager timing one named span (see class docs)."""
        return _Section(self, name)

    def start(self) -> "Stopwatch":
        self._wall = None
        self._cpu = None
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def stop(self) -> "Stopwatch":
        if self._wall_start is None or self._cpu_start is None:
            raise RuntimeError("Stopwatch.stop() before start()")
        self._wall = time.perf_counter() - self._wall_start
        self._cpu = time.process_time() - self._cpu_start
        return self

    @property
    def wall(self) -> float:
        """Elapsed wall-clock seconds (running total until stopped)."""
        if self._wall is not None:
            return self._wall
        if self._wall_start is None:
            return 0.0
        return time.perf_counter() - self._wall_start

    @property
    def cpu(self) -> float:
        """Elapsed process CPU seconds (running total until stopped)."""
        if self._cpu is not None:
            return self._cpu
        if self._cpu_start is None:
            return 0.0
        return time.process_time() - self._cpu_start

    def __enter__(self) -> "Stopwatch":
        if self._wall_start is None:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
