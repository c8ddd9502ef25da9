"""The sweep-infrastructure clock.

Lease TTLs and supervisor polls need *real* time — the one thing the
rest of the library is forbidden to read (``repro analyze`` RPL002).  This
module is the sanctioned channel for the :mod:`repro.dist` layer, the
same way :mod:`repro.obs.timing` is for provenance stopwatches: every
``dist`` component takes a :class:`Clock` so tests drive lease expiry
and backoff deterministically with :class:`FakeClock`, and nothing in
this package touches ``time`` directly.

Lease deadlines use epoch seconds (``time.time``), not a monotonic
clock: a work queue on a shared filesystem is read by workers on
*other hosts*, and epoch time is the only clock they share.  Modest
clock skew only stretches or shrinks a TTL — expiry stays eventual.
"""

from __future__ import annotations

import time
from typing import List, Protocol

__all__ = ["Clock", "FakeClock", "SystemClock"]


class Clock(Protocol):
    """What the dist layer needs from time: read it, and wait."""

    def now(self) -> float:
        """Current time in (epoch) seconds."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block for *seconds* (no-op for ``seconds <= 0``)."""
        ...


class SystemClock:
    """The real wall clock (epoch seconds, host-shared)."""

    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock:
    """A manually advanced clock for deterministic lease/backoff tests.

    ``sleep`` advances the clock instead of blocking, so supervisor
    loops run at test speed; ``sleeps`` records every requested delay
    for assertions on backoff schedules.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.sleeps: List[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        if seconds > 0:
            self._now += seconds

    def advance(self, seconds: float) -> None:
        """Jump forward without registering a sleep."""
        self._now += seconds
