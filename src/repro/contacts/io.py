"""Contact-trace file formats.

Two interchangeable on-disk representations:

* **CSV** — one ``time,node_a,node_b`` row per contact, preceded by
  ``# key=value`` header comments carrying ``n_nodes`` and ``duration``.
  This mirrors the flat event lists real data sets (Infocom/CRAWDAD,
  Cabspotting) are distributed as.
* **JSONL** — a metadata object on the first line, one ``[t, a, b]``
  triple per subsequent line.

Both round-trip exactly through :class:`~repro.contacts.trace.ContactTrace`.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import TraceFormatError
from .trace import ContactTrace

__all__ = [
    "detect_trace_format",
    "load_contact_trace",
    "save_csv",
    "load_csv",
    "save_jsonl",
    "load_jsonl",
    "load_interval_format",
]

PathLike = Union[str, "os.PathLike[str]"]


def _parse_event(
    path: PathLike, line_number: int, t_raw: object, a_raw: object, b_raw: object
) -> Tuple[float, int, int]:
    """Validate one contact record; all failures are TraceFormatError.

    Guards corrupt files: non-numeric fields, non-finite or negative
    times, and negative node ids all get a clear, located message rather
    than a bare ``ValueError`` bubbling out of ``float()``/``int()``.
    (Upper-bound id checks need ``n_nodes`` and happen in the loaders.)
    """
    try:
        t = float(t_raw)  # type: ignore[arg-type]
        a = int(a_raw)  # type: ignore[arg-type]
        b = int(b_raw)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise TraceFormatError(
            f"{path}:{line_number}: non-numeric contact record "
            f"({t_raw!r}, {a_raw!r}, {b_raw!r})"
        ) from None
    if float(a_raw) != a or float(b_raw) != b:  # type: ignore[arg-type]
        raise TraceFormatError(
            f"{path}:{line_number}: non-integer node id in "
            f"({a_raw!r}, {b_raw!r})"
        )
    if not math.isfinite(t) or t < 0:
        raise TraceFormatError(
            f"{path}:{line_number}: contact time must be finite and >= 0, "
            f"got {t!r}"
        )
    if a < 0 or b < 0:
        raise TraceFormatError(
            f"{path}:{line_number}: negative node id in ({a}, {b})"
        )
    return t, a, b


def _check_node_range(
    path: PathLike, line_number: int, a: int, b: int, n_nodes: int
) -> None:
    if a >= n_nodes or b >= n_nodes:
        raise TraceFormatError(
            f"{path}:{line_number}: node id {max(a, b)} out of range for "
            f"n_nodes={n_nodes}"
        )


def save_csv(trace: ContactTrace, path: PathLike) -> None:
    """Write *trace* to a CSV file with metadata header comments."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# n_nodes={trace.n_nodes}\n")
        handle.write(f"# duration={trace.duration!r}\n")
        handle.write("time,node_a,node_b\n")
        for t, a, b in trace:
            handle.write(f"{t!r},{a},{b}\n")


class _ColumnBuffers:
    """Geometrically growing column buffers for streaming loaders.

    Replaces the old per-row tuple list: validated values land directly
    in NumPy arrays, so loading never materializes one Python object
    per event beyond the line being parsed.  Line numbers ride along so
    range checks deferred until ``n_nodes`` is known can still point at
    the offending row.
    """

    def __init__(self) -> None:
        self._capacity = 1024
        self.count = 0
        self.times = np.empty(self._capacity, dtype=float)
        self.node_a = np.empty(self._capacity, dtype=np.int64)
        self.node_b = np.empty(self._capacity, dtype=np.int64)
        self.line_numbers = np.empty(self._capacity, dtype=np.int64)

    def append(self, line_number: int, t: float, a: int, b: int) -> None:
        if self.count == self._capacity:
            self._capacity *= 2
            for name in ("times", "node_a", "node_b", "line_numbers"):
                grown = np.empty(
                    self._capacity, dtype=getattr(self, name).dtype
                )
                grown[: self.count] = getattr(self, name)[: self.count]
                setattr(self, name, grown)
        k = self.count
        self.times[k] = t
        self.node_a[k] = a
        self.node_b[k] = b
        self.line_numbers[k] = line_number
        self.count = k + 1

    def check_node_range(self, path: PathLike, n_nodes: int) -> None:
        """Range-check all buffered ids, reporting the first bad line."""
        a = self.node_a[: self.count]
        b = self.node_b[: self.count]
        bad = np.flatnonzero((a >= n_nodes) | (b >= n_nodes))
        if len(bad):
            k = int(bad[0])
            _check_node_range(
                path,
                int(self.line_numbers[k]),
                int(a[k]),
                int(b[k]),
                n_nodes,
            )


def load_csv(path: PathLike) -> ContactTrace:
    """Read a trace written by :func:`save_csv`.

    Corrupt rows — non-numeric fields, non-finite times, negative or
    out-of-range node ids — raise :class:`TraceFormatError` with the
    offending line number.
    """
    metadata: Dict[str, str] = {}
    buffers = _ColumnBuffers()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if line.startswith("time,"):
                continue  # column header
            fields = line.split(",")
            if len(fields) != 3:
                raise TraceFormatError(
                    f"{path}:{line_number}: malformed CSV row: {line!r}"
                )
            buffers.append(
                line_number, *_parse_event(path, line_number, *fields)
            )
    if "n_nodes" not in metadata or "duration" not in metadata:
        raise TraceFormatError(
            "CSV trace must carry '# n_nodes=' and '# duration=' headers"
        )
    try:
        n_nodes = int(metadata["n_nodes"])
        duration = float(metadata["duration"])
    except ValueError:
        raise TraceFormatError(
            f"{path}: non-numeric n_nodes/duration headers "
            f"({metadata['n_nodes']!r}, {metadata['duration']!r})"
        ) from None
    buffers.check_node_range(path, n_nodes)
    return ContactTrace(
        times=buffers.times[: buffers.count].copy(),
        node_a=buffers.node_a[: buffers.count].copy(),
        node_b=buffers.node_b[: buffers.count].copy(),
        n_nodes=n_nodes,
        duration=duration,
    )


def load_interval_format(
    path: PathLike,
    *,
    time_scale: float = 1.0,
    comment_prefix: str = "#",
) -> ContactTrace:
    """Read a CRAWDAD/Haggle-style contact-interval list.

    The common distribution format of real opportunistic data sets
    (including the Infocom sightings the paper uses) is one whitespace-
    separated record per encounter::

        <node_a> <node_b> <t_start> <t_end> [extra columns ignored]

    Node ids may be arbitrary integers (1-based, sparse); they are
    remapped to dense 0-based ids in first-appearance order.  Each
    interval becomes one instantaneous contact at ``t_start`` (the
    paper's meeting semantics); times are shifted so the trace starts at
    0 and multiplied by *time_scale* (e.g. ``1/60`` to convert seconds
    to minutes).  The observation window ends at the latest interval
    end.
    """
    if time_scale <= 0:
        raise TraceFormatError(f"time_scale must be > 0, got {time_scale}")
    raw_a: List[int] = []
    raw_b: List[int] = []
    starts: List[float] = []
    ends: List[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(comment_prefix):
                continue
            fields = line.split()
            if len(fields) < 4:
                raise TraceFormatError(
                    f"{path}:{line_number}: expected "
                    f"'a b t_start t_end', got {line!r}"
                )
            try:
                a, b = int(fields[0]), int(fields[1])
                t_start, t_end = float(fields[2]), float(fields[3])
            except ValueError as error:
                raise TraceFormatError(
                    f"{path}:{line_number}: {error}"
                ) from None
            if a == b:
                continue  # some data sets log self-sightings; drop them
            if t_end < t_start:
                raise TraceFormatError(
                    f"{path}:{line_number}: interval ends before it starts"
                )
            raw_a.append(a)
            raw_b.append(b)
            starts.append(t_start)
            ends.append(t_end)
    if not starts:
        raise TraceFormatError(f"{path}: no contact records found")

    dense: Dict[int, int] = {}
    for raw_id in [*raw_a, *raw_b]:
        if raw_id not in dense:
            dense[raw_id] = len(dense)
    origin = min(starts)
    times = (np.asarray(starts) - origin) * time_scale
    duration = (max(ends) - origin) * time_scale
    if duration <= 0:
        duration = float(times.max()) + time_scale  # degenerate window
    order = np.argsort(times, kind="stable")
    return ContactTrace(
        times=times[order],
        node_a=np.asarray([dense[a] for a in raw_a], dtype=np.int64)[order],
        node_b=np.asarray([dense[b] for b in raw_b], dtype=np.int64)[order],
        n_nodes=len(dense),
        duration=float(duration),
    )


def save_jsonl(trace: ContactTrace, path: PathLike) -> None:
    """Write *trace* as JSON lines: a metadata object then event triples."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "format": "repro-contact-trace",
            "version": 1,
            "n_nodes": trace.n_nodes,
            "duration": trace.duration,
            "n_events": len(trace),
        }
        handle.write(json.dumps(header) + "\n")
        for t, a, b in trace:
            handle.write(json.dumps([t, a, b]) + "\n")


def load_jsonl(path: PathLike) -> ContactTrace:
    """Read a trace written by :func:`save_jsonl`.

    Corrupt lines — invalid JSON, wrong arity, non-numeric fields,
    non-finite times, negative or out-of-range node ids — raise
    :class:`TraceFormatError` with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise TraceFormatError("empty JSONL trace file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as error:
            raise TraceFormatError(
                f"{path}:1: invalid JSON header: {error}"
            ) from None
        if (
            not isinstance(header, dict)
            or header.get("format") != "repro-contact-trace"
        ):
            raise TraceFormatError("missing repro-contact-trace header")
        try:
            n_nodes = int(header["n_nodes"])
            duration = float(header["duration"])
        except (KeyError, TypeError, ValueError):
            raise TraceFormatError(
                f"{path}:1: header must carry numeric n_nodes and duration"
            ) from None
        buffers = _ColumnBuffers()
        for line_number, raw in enumerate(handle, start=2):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            if not isinstance(record, (list, tuple)) or len(record) != 3:
                raise TraceFormatError(
                    f"{path}:{line_number}: expected a [t, a, b] triple, "
                    f"got {record!r}"
                )
            t, a, b = _parse_event(path, line_number, *record)
            _check_node_range(path, line_number, a, b, n_nodes)
            buffers.append(line_number, t, a, b)
    return ContactTrace(
        times=buffers.times[: buffers.count].copy(),
        node_a=buffers.node_a[: buffers.count].copy(),
        node_b=buffers.node_b[: buffers.count].copy(),
        n_nodes=n_nodes,
        duration=duration,
    )


def detect_trace_format(path: PathLike) -> Optional[str]:
    """Best-effort sniff of a contact-trace container at *path*.

    Returns ``"csv"``, ``"jsonl"``, or ``"interval"`` when *path* looks
    like one of the supported contact-trace formats, and ``None`` when it
    does not (e.g. a telemetry event log or a directory).  A path that
    does not exist at all raises :class:`TraceFormatError` rather than
    being reported as merely unrecognized.
    """
    if not os.path.exists(path):
        raise TraceFormatError(f"{path}: no such file or directory")
    if os.path.isdir(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "=" in line:
                        return "csv"
                    continue  # interval-format comment: keep sniffing
                if line.startswith("time,"):
                    return "csv"
                if line.startswith("{"):
                    try:
                        header = json.loads(line)
                    except json.JSONDecodeError:
                        return None
                    if (
                        isinstance(header, dict)
                        and header.get("format") == "repro-contact-trace"
                    ):
                        return "jsonl"
                    return None
                fields = line.split()
                if len(fields) >= 4 and "," not in line:
                    return "interval"
                return None
    except (OSError, UnicodeDecodeError):
        return None
    return None


def load_contact_trace(
    path: PathLike, *, fmt: Optional[str] = None
) -> ContactTrace:
    """Load a contact trace in any supported format.

    *fmt* forces a format (``csv``/``jsonl``/``interval``); when omitted
    it is sniffed with :func:`detect_trace_format`.
    """
    if fmt is None:
        fmt = detect_trace_format(path)
    if fmt == "csv":
        return load_csv(path)
    if fmt == "jsonl":
        return load_jsonl(path)
    if fmt == "interval":
        return load_interval_format(path)
    raise TraceFormatError(
        f"{path}: not a recognized contact-trace format"
    )
