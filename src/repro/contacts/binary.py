"""Binary on-disk contact traces: raw columns plus a JSON header.

The text formats (:mod:`repro.contacts.io`) parse every row through
Python — fine for conference-scale traces, prohibitive at the 10^8-event
vehicular scales the columnar pipeline targets.  This module stores the
three trace columns as raw little-endian arrays next to a small JSON
header::

    trace.ctb/
        header.json   {"format": "repro-binary-trace", "version": 1, ...}
        times.f8      float64 contact times, non-decreasing
        node_a.i8     int64 endpoint ids, canonical node_a < node_b
        node_b.i8

Loading memory-maps the columns (``np.memmap``, read-only), so a trace
far larger than RAM opens in milliseconds and the simulator streams it
chunk by chunk; :class:`BinaryTraceWriter` appends chunks incrementally,
so generators never hold the full event set either.  The byte content
is exactly the in-memory column content — converting a CSV/JSONL trace
to binary preserves its simcache fingerprint.
"""

from __future__ import annotations

import json
import os
from types import TracebackType
from typing import Dict, Optional, Type, Union

import numpy as np

from ..durable import StagedFile, atomic_write_text
from ..errors import TraceFormatError
from ..types import FloatArray, IntArray
from .trace import ContactTrace

__all__ = [
    "BINARY_FORMAT_NAME",
    "BinaryTraceWriter",
    "binary_trace_metadata",
    "is_binary_trace",
    "load_binary",
    "save_binary",
]

PathLike = Union[str, "os.PathLike[str]"]

BINARY_FORMAT_NAME = "repro-binary-trace"
_HEADER_FILE = "header.json"
_COLUMN_FILES = {
    "times": ("times.f8", "<f8"),
    "node_a": ("node_a.i8", "<i8"),
    "node_b": ("node_b.i8", "<i8"),
}
#: Events validated per block when checking a loaded trace.
_VALIDATE_BLOCK = 1 << 22


def is_binary_trace(path: PathLike) -> bool:
    """True when *path* looks like a binary trace directory."""
    return os.path.isdir(path) and os.path.isfile(
        os.path.join(path, _HEADER_FILE)
    )


class BinaryTraceWriter:
    """Incrementally write a binary trace, one column chunk at a time.

    Chunks must arrive in time order; each ``append`` validates the
    incoming columns (finite non-decreasing times continuing the
    previous chunk, ids in range) and canonicalizes ``node_a < node_b``
    before writing, so a finished directory always loads cleanly.  Use
    as a context manager or call :meth:`close` explicitly — the header
    is only written on close, which is what makes a directory complete.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        n_nodes: int,
        duration: float,
        metadata: Optional[Dict[str, str]] = None,
    ) -> None:
        if n_nodes < 2:
            raise TraceFormatError(f"need >= 2 nodes, got {n_nodes}")
        if duration <= 0:
            raise TraceFormatError(
                f"duration must be > 0, got {duration}"
            )
        if metadata is not None and not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in metadata.items()
        ):
            raise TraceFormatError("metadata must map str to str")
        self.path = os.fspath(path)
        self.metadata: Dict[str, str] = dict(metadata or {})
        self.n_nodes = int(n_nodes)
        self.duration = float(duration)
        self.n_events = 0
        self._last_time = -np.inf
        os.makedirs(self.path, exist_ok=True)
        # Overwriting a trace: drop its header first, so the directory
        # reads as incomplete until close() writes the new one.
        header_path = os.path.join(self.path, _HEADER_FILE)
        if os.path.exists(header_path):
            os.remove(header_path)
        self._handles: Dict[str, StagedFile] = {}
        try:
            for column, (filename, _) in _COLUMN_FILES.items():
                self._handles[column] = StagedFile(
                    os.path.join(self.path, filename)
                )
        except OSError:
            self._close_handles()
            raise
        self._closed = False

    def append(
        self,
        times: FloatArray,
        node_a: IntArray,
        node_b: IntArray,
    ) -> None:
        """Validate, canonicalize, and write one chunk of contacts."""
        if self._closed:
            raise TraceFormatError("writer is closed")
        t = np.ascontiguousarray(times, dtype="<f8")
        a = np.ascontiguousarray(node_a, dtype="<i8")
        b = np.ascontiguousarray(node_b, dtype="<i8")
        if not (len(t) == len(a) == len(b)):
            raise TraceFormatError("times/node_a/node_b lengths differ")
        if len(t) == 0:
            return
        if not np.all(np.isfinite(t)):
            raise TraceFormatError("contact times must be finite")
        if t[0] < self._last_time or np.any(np.diff(t) < 0):
            raise TraceFormatError(
                "contact times must be non-decreasing across chunks"
            )
        if t[0] < 0 or t[-1] > self.duration:
            raise TraceFormatError(
                "contact times must lie in [0, duration]"
            )
        if np.any(a == b):
            raise TraceFormatError("self-contacts are not allowed")
        if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= self.n_nodes:
            raise TraceFormatError("node ids must lie in [0, n_nodes)")
        swap = a > b
        if np.any(swap):
            a, b = np.where(swap, b, a), np.where(swap, a, b)
            a = np.ascontiguousarray(a, dtype="<i8")
            b = np.ascontiguousarray(b, dtype="<i8")
        self._handles["times"].write(t.tobytes())
        self._handles["node_a"].write(a.tobytes())
        self._handles["node_b"].write(b.tobytes())
        self.n_events += len(t)
        self._last_time = float(t[-1])

    def close(self) -> None:
        """Commit the columns, then write the header, completing the trace.

        Columns and header each appear atomically, and the header last,
        so a writer killed at any point leaves a directory that does not
        load rather than one that loads wrong contacts.
        """
        if self._closed:
            return
        # No fsync: a killed writer leaves no partial file behind, and
        # after a power loss the loader's size check rejects a short
        # column.
        for handle in self._handles.values():
            handle.commit()
        header = {
            "format": BINARY_FORMAT_NAME,
            "version": 1,
            "n_nodes": self.n_nodes,
            "duration": repr(self.duration),
            "n_events": self.n_events,
            "columns": {
                column: {"file": filename, "dtype": dtype}
                for column, (filename, dtype) in _COLUMN_FILES.items()
            },
        }
        if self.metadata:
            # Side-channel annotations (e.g. a precomputed simcache
            # fingerprint travelling with a spilled sweep trial); never
            # consulted when loading the columns themselves.
            header["metadata"] = dict(sorted(self.metadata.items()))
        atomic_write_text(
            os.path.join(self.path, _HEADER_FILE),
            json.dumps(header, indent=2) + "\n",
            fsync=False,
        )
        self._closed = True

    def _close_handles(self) -> None:
        for handle in self._handles.values():
            try:
                handle.discard()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.close()
        else:
            self._close_handles()


def save_binary(
    trace: ContactTrace,
    path: PathLike,
    *,
    chunk_events: int = 1 << 22,
    metadata: Optional[Dict[str, str]] = None,
) -> None:
    """Write *trace* to a binary trace directory at *path*.

    *metadata* string pairs land verbatim in the header's
    ``"metadata"`` object (read back with
    :func:`binary_trace_metadata`); the column bytes are unaffected,
    so the trace's content fingerprint is too.
    """
    with BinaryTraceWriter(
        path, n_nodes=trace.n_nodes, duration=trace.duration,
        metadata=metadata,
    ) as writer:
        for chunk in trace.iter_chunks(chunk_events):
            writer.append(chunk.times, chunk.node_a, chunk.node_b)


def binary_trace_metadata(path: PathLike) -> Dict[str, str]:
    """The header's metadata annotations (empty when none were written)."""
    header = _load_header(os.fspath(path))
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TraceFormatError(f"{path}: header metadata must be an object")
    return {str(k): str(v) for k, v in metadata.items()}


def _load_header(path: str) -> dict:
    header_path = os.path.join(path, _HEADER_FILE)
    try:
        with open(header_path, "r", encoding="utf-8") as handle:
            header = json.load(handle)
    except FileNotFoundError:
        raise TraceFormatError(
            f"{path}: not a binary trace (missing {_HEADER_FILE})"
        ) from None
    except json.JSONDecodeError as error:
        raise TraceFormatError(
            f"{header_path}: invalid JSON header: {error}"
        ) from None
    if (
        not isinstance(header, dict)
        or header.get("format") != BINARY_FORMAT_NAME
    ):
        raise TraceFormatError(
            f"{header_path}: missing {BINARY_FORMAT_NAME} header"
        )
    if header.get("version") != 1:
        raise TraceFormatError(
            f"{header_path}: unsupported version {header.get('version')!r}"
        )
    return header


def _open_column(
    path: str, header: dict, column: str, n_events: int, mmap: bool
) -> np.ndarray:
    filename, dtype = _COLUMN_FILES[column]
    spec = header.get("columns", {}).get(column, {})
    filename = spec.get("file", filename)
    dtype = spec.get("dtype", dtype)
    column_path = os.path.join(path, filename)
    expected = n_events * np.dtype(dtype).itemsize
    try:
        actual = os.path.getsize(column_path)
    except OSError:
        raise TraceFormatError(
            f"{path}: missing column file {filename}"
        ) from None
    if actual != expected:
        raise TraceFormatError(
            f"{column_path}: expected {expected} bytes for "
            f"{n_events} events, found {actual}"
        )
    if n_events == 0:
        return np.empty(0, dtype=dtype)
    if mmap:
        return np.memmap(column_path, dtype=dtype, mode="r")
    return np.fromfile(column_path, dtype=dtype)


def _validate_columns(
    times: np.ndarray,
    node_a: np.ndarray,
    node_b: np.ndarray,
    n_nodes: int,
    duration: float,
) -> None:
    """Block-wise invariant checks that never materialize full columns."""
    previous = -np.inf
    for start in range(0, len(times), _VALIDATE_BLOCK):
        stop = start + _VALIDATE_BLOCK
        t = np.asarray(times[start:stop])
        a = np.asarray(node_a[start:stop])
        b = np.asarray(node_b[start:stop])
        if not np.all(np.isfinite(t)):
            raise TraceFormatError("contact times must be finite")
        if t[0] < previous or np.any(np.diff(t) < 0):
            raise TraceFormatError("contact times must be sorted")
        previous = float(t[-1])
        if t[0] < 0 or t[-1] > duration:
            raise TraceFormatError(
                "contact times must lie in [0, duration]"
            )
        if np.any(a >= b):
            raise TraceFormatError(
                "node pairs must be canonical (node_a < node_b)"
            )
        if a.min() < 0 or b.max() >= n_nodes:
            raise TraceFormatError("node ids must lie in [0, n_nodes)")


def load_binary(
    path: PathLike,
    *,
    mmap: bool = True,
    validate: bool = True,
) -> ContactTrace:
    """Load a binary trace directory written by :class:`BinaryTraceWriter`.

    With ``mmap=True`` (the default) the columns are read-only memory
    maps: opening is O(1) in the trace size and the simulator streams
    the events without ever materializing them.  ``validate`` runs
    block-wise invariant checks (sortedness, canonical pairs, id
    ranges) — cheap vectorized scans whose peak memory is one block.
    """
    path = os.fspath(path)
    header = _load_header(path)
    try:
        n_nodes = int(header["n_nodes"])
        duration = float(header["duration"])
        n_events = int(header["n_events"])
    except (KeyError, TypeError, ValueError):
        raise TraceFormatError(
            f"{path}: header must carry numeric n_nodes/duration/n_events"
        ) from None
    if n_nodes < 2 or duration <= 0 or n_events < 0:
        raise TraceFormatError(
            f"{path}: invalid header values (n_nodes={n_nodes}, "
            f"duration={duration}, n_events={n_events})"
        )
    times = _open_column(path, header, "times", n_events, mmap)
    node_a = _open_column(path, header, "node_a", n_events, mmap)
    node_b = _open_column(path, header, "node_b", n_events, mmap)
    if validate and n_events:
        _validate_columns(times, node_a, node_b, n_nodes, duration)
    return ContactTrace.from_trusted_columns(
        times, node_a, node_b, n_nodes=n_nodes, duration=duration
    )
