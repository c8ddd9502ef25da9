"""Trial-scoped shared artifacts: realize once, reuse per protocol.

A sweep compares P protocols over the *same* realized trial — the same
contact trace, request schedule, and fault schedule.  Three per-trial
quantities are pure functions of those inputs and were historically
recomputed once per protocol:

* the **content fingerprints** the simcache key hashes (the trace hash
  is a full sha256 pass over every column — by far the dominant cache
  probe cost);
* the **merged event stream** (the stable lexsort interleaving of
  contacts, requests, and faults, plus the plain-mode payload columns);
* the **realized trace itself**, which parallel workers each
  regenerated from the trial seed.

:class:`TrialArtifacts` carries all three with memoization: build it
once per trial, hand it to every protocol's run, and each quantity is
computed at most once (or zero times — a fingerprint spilled alongside
a binary trace is trusted without re-hashing).  Results stay
bit-identical by construction: the fingerprints substitute string-equal
values into the same key derivation, and the engine validates a
prebuilt stream against the run's own objects before trusting it.

The spill helpers implement the zero-copy worker handoff: the parent
realizes a trial's trace once, writes it to the ``.ctb`` binary format
(content bytes identical to memory, so the fingerprint is preserved),
and workers ``np.memmap`` the columns instead of regenerating — the
engine's streamed mode then reads them lazily, also bit-identically.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from ..contacts import ContactTrace
from ..contacts.binary import binary_trace_metadata, load_binary, save_binary
from ..demand import RequestSchedule
from ..durable import PathLike
from ..faults import FaultSchedule
from ..sim.config import SimulationConfig
from ..sim.events import EventStream, build_event_stream, memmap_backed
from ..simcache import (
    fingerprint_faults,
    fingerprint_requests,
    fingerprint_trace,
)

__all__ = [
    "SPILL_FINGERPRINT_KEY",
    "TrialArtifacts",
    "load_spilled_trace",
    "spill_trial_trace",
]

#: Header-metadata key under which a spilled trial trace carries its
#: precomputed simcache fingerprint.
SPILL_FINGERPRINT_KEY = "trace_fingerprint"


class TrialArtifacts:
    """One trial's shared inputs plus memoized derived artifacts.

    *trace*, *requests* and *sim_seed* are the trial's shared
    randomness; *faults* is the trial's resolved fault schedule
    (``None`` for fault-free trials) and must be the exact object later
    passed to the engine — the prebuilt event stream is built from it
    and validated by identity.

    Memoization is per-instance and lazy: nothing is computed until a
    consumer asks, and each artifact is computed at most once.  A
    *trace_fingerprint* passed at construction (recovered from a spill
    header) pre-seeds the memo, so workers never re-hash a spilled
    trace.
    """

    __slots__ = (
        "trace",
        "requests",
        "sim_seed",
        "faults",
        "_trace_fp",
        "_requests_fp",
        "_faults_fp",
        "_stream",
    )

    def __init__(
        self,
        trace: ContactTrace,
        requests: RequestSchedule,
        sim_seed: int,
        *,
        faults: Optional[FaultSchedule] = None,
        trace_fingerprint: Optional[str] = None,
    ) -> None:
        self.trace = trace
        self.requests = requests
        self.sim_seed = sim_seed
        self.faults = faults
        self._trace_fp = trace_fingerprint
        self._requests_fp: Optional[str] = None
        self._faults_fp: Optional[str] = None
        self._stream: Optional[EventStream] = None

    def trace_fingerprint(self) -> str:
        """Memoized :func:`~repro.simcache.fingerprint_trace`."""
        if self._trace_fp is None:
            self._trace_fp = fingerprint_trace(self.trace)
        return self._trace_fp

    def requests_fingerprint(self) -> str:
        """Memoized :func:`~repro.simcache.fingerprint_requests`."""
        if self._requests_fp is None:
            self._requests_fp = fingerprint_requests(self.requests)
        return self._requests_fp

    def faults_fingerprint(self) -> str:
        """Memoized :func:`~repro.simcache.fingerprint_faults`."""
        if self._faults_fp is None:
            self._faults_fp = fingerprint_faults(self.faults)
        return self._faults_fp

    def event_stream(self, config: SimulationConfig) -> Optional[EventStream]:
        """The trial's merged event stream, built lazily at most once.

        Returns ``None`` — and the caller falls back to the engine's
        own merge — when the trace is memory-mapped: a memmapped trace
        selects the engine's streamed mode precisely so the merge never
        materializes, and an eager prebuilt stream would defeat that
        memory bound.

        The memo is keyed implicitly by the config fingerprint: a
        second call with an equivalent config reuses the stream, a
        different config rebuilds it (sweeps use one config, so this
        never triggers there).
        """
        if memmap_backed(self.trace.times):
            return None
        stream = self._stream
        if (
            stream is None
            or stream.config_fingerprint != config.fingerprint()
        ):
            stream = build_event_stream(
                self.trace, self.requests, config, self.faults
            )
            self._stream = stream
        return stream

    def drop_event_stream(self) -> None:
        """Release the memoized stream (pool workers bound memory with
        this when they move on to another trial)."""
        self._stream = None


def spill_trial_trace(
    trace: ContactTrace,
    path: PathLike,
    *,
    trace_fingerprint: Optional[str] = None,
) -> str:
    """Write one realized trial trace to a ``.ctb`` spill at *path*.

    The binary column bytes equal the in-memory column bytes, so the
    spilled trace's content fingerprint is the original's; when
    *trace_fingerprint* is given it travels in the header metadata and
    :func:`load_spilled_trace` returns it without re-hashing.  Returns
    the (string) path for manifest/context records.
    """
    metadata: Optional[Dict[str, str]] = None
    if trace_fingerprint is not None:
        metadata = {SPILL_FINGERPRINT_KEY: trace_fingerprint}
    save_binary(trace, path, metadata=metadata)
    return os.fspath(path)


def load_spilled_trace(
    path: PathLike,
) -> tuple[ContactTrace, Optional[str]]:
    """Memory-map a spilled trial trace and its travelling fingerprint.

    The returned trace's columns are read-only ``np.memmap`` views —
    opening is O(1) in the trace size, workers share the page cache,
    and the engine streams the events block by block (bit-identically
    to eager).  Validation is skipped: spills are written by the
    sweep's own parent process in the same run.
    """
    trace = load_binary(path, mmap=True, validate=False)
    fingerprint = binary_trace_metadata(path).get(SPILL_FINGERPRINT_KEY)
    return trace, fingerprint
