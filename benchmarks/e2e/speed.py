"""The host's momentary speed, measured by a fixed reference kernel.

On a shared machine the same sweep can take 10 s or 19 s depending on
what the neighbours run, and the neighbours come and go within a
second, so repeats alone do not steady it.  The benchmark therefore
runs a small fixed kernel a few times right after set-up, at the
boundaries of every pass and, inside a pass, on a wall-clock timer
every :data:`INTERVAL_S`.  Each stretch of a pass between two samples
is scaled to the speed at which the kernel takes :data:`REFERENCE_S`::

    scaled = sum(stretch * REFERENCE_S / mean(sample before, sample after))

so a slow episode only rescales the stretches it covers.  The timer
spreads the samples evenly over the pass whatever the program does,
which samples at the program's own boundaries would not (a sweep point
can take 0.1 s or 3 s).  The kernel is pure Python over the same kinds
of objects the engine's hot loop touches (list-indexed per-node sets, a
dict of counters), and it shares no code with the program: a change to
the program cannot speed it up or slow it down.  Its own runs fall
outside every stretch.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Any, Iterator, List, Tuple

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedProbe", "normalize"]

#: The kernel's median time on the 2-CPU Xeon VM the baseline was
#: measured on, when its neighbours were quiet; normalized timings are
#: seconds at that speed.
REFERENCE_S = 0.0040
#: Wall seconds between two timed samples inside a pass.  The kernel
#: takes a tenth of that or less: 4-8% of a pass's wall time, which the
#: scaled timings leave out.
INTERVAL_S = 0.1


def _inputs(n: int = 8_000) -> Tuple[List[int], List[int]]:
    state = 12345
    nodes, items = [], []
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        nodes.append(state % 50)
        items.append((state >> 8) % 200)
    return nodes, items


def _kernel(nodes: List[int], items: List[int]) -> int:
    caches = [set() for _ in range(50)]
    hits: dict = {}
    for node, item in zip(nodes, items):
        cache = caches[node]
        if item in cache:
            hits[item] = hits.get(item, 0) + 1
        else:
            cache.add(item)
            if len(cache) > 5:
                cache.discard(min(cache))
    return len(hits)


class SpeedProbe:
    """Kernel samples of one process, and when each was taken."""

    def __init__(self) -> None:
        self._inputs = _inputs()
        self._busy = False
        #: Wall seconds of every kernel run, in order.
        self.samples: List[float] = []
        #: (wall, CPU) clock readings just before and just after each run.
        self.marks: List[Tuple[float, float, float, float]] = []

    def sample(self) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            _kernel(*self._inputs)
            wall1, cpu1 = time.perf_counter(), time.process_time()
            self.samples.append(wall1 - wall0)
            self.marks.append((wall0, cpu0, wall1, cpu1))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self, interval: float = INTERVAL_S) -> Iterator[None]:
        """Also :meth:`sample` every *interval* wall seconds inside the
        block (on ``SIGALRM``, in the main thread); the previous handler
        and timer are restored on exit."""

        def on_alarm(signum: int, frame: Any) -> None:
            self.sample()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def span(
        self, wall0: float, cpu0: float, wall1: float, cpu1: float
    ) -> Tuple[float, float, float, float]:
        """(wall, CPU, scaled wall, scaled CPU) seconds of a span.

        The span runs from the clock readings (*wall0*, *cpu0*) to
        (*wall1*, *cpu1*) and must lie between two samples.  Kernel runs
        inside it are left out; every stretch between two consecutive
        samples is scaled by the mean of those two.
        """
        wall = cpu = scaled_wall = scaled_cpu = 0.0
        runs = list(zip(self.samples, self.marks))
        for (before, mark_a), (after, mark_b) in zip(runs, runs[1:]):
            stretch_wall = max(0.0, min(mark_b[0], wall1) - max(mark_a[2], wall0))
            stretch_cpu = max(0.0, min(mark_b[1], cpu1) - max(mark_a[3], cpu0))
            factor = REFERENCE_S / ((before + after) / 2.0)
            wall += stretch_wall
            cpu += stretch_cpu
            scaled_wall += stretch_wall * factor
            scaled_cpu += stretch_cpu * factor
        return wall, cpu, scaled_wall, scaled_cpu


def normalize(seconds: float, kernel_samples: List[float]) -> float:
    """*seconds* at the speed where the kernel takes :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / statistics.median(kernel_samples)
