"""Crash-durable file primitives shared by the persistence layers.

Every on-disk artifact that must survive a sweep being SIGKILLed — or
the host losing power — mid-write goes through this module: above all
the simulation run-cache entries a rerun resumes from.  The contract
is:

* *atomicity* — readers only ever observe the old file or the complete
  new file, never a partial write (temp file in the same directory +
  ``os.replace``);
* *durability* — with ``fsync=True`` (the default) the file's bytes are
  flushed to stable storage **before** the rename, and the parent
  directory entry is flushed after it, so a power loss cannot leave a
  truncated-but-renamed JSON file behind.  Filesystems that do not
  support directory fsync (some network mounts) degrade gracefully —
  durability weakens, atomicity does not.

Appends (:func:`append_line`) are single ``write`` calls on an
``O_APPEND`` descriptor: concurrent writers from multiple processes
interleave at line granularity, and a reader tolerating one torn final
line sees a consistent log.
"""

from __future__ import annotations

import json
import os
from typing import Any, Union

__all__ = [
    "append_line",
    "atomic_write_json",
    "atomic_write_text",
    "fsync_directory",
    "truncate_error_text",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Byte budget for persisted error strings (tracebacks, exception
#: messages).  A recursive repr or a deeply nested traceback can reach
#: megabytes; anything recorded (failure records, telemetry) is
#: truncated to this budget at the source.
MAX_ERROR_BYTES = 4096

_TRUNCATION_MARKER = "... [truncated {dropped} bytes]"


def truncate_error_text(text: str, budget: int = MAX_ERROR_BYTES) -> str:
    """Bound *text* to *budget* UTF-8 bytes with an explicit marker.

    Keeps the head of the message (the exception type and the first
    frames carry the signal; the repeated tail of a recursive traceback
    does not).  Strings within budget pass through unchanged.
    """
    encoded = text.encode("utf-8", errors="replace")
    if len(encoded) <= budget:
        return text
    keep = max(budget - 64, 0)  # leave room for the marker
    head = encoded[:keep].decode("utf-8", errors="ignore")
    return head + _TRUNCATION_MARKER.format(dropped=len(encoded) - keep)


def fsync_directory(path: PathLike) -> None:
    """Flush directory entries at *path* to stable storage (best effort).

    Needed after ``os.replace`` so the *rename itself* survives a power
    loss.  Raises nothing: filesystems without directory-fd fsync
    (vfat, some NFS mounts) simply provide weaker durability.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: PathLike, text: str, *, fsync: bool = True
) -> None:
    """Atomically (and, by default, durably) replace *path* with *text*.

    The temp file lives in the target directory so the final
    ``os.replace`` never crosses a filesystem boundary.  Errors
    propagate as ``OSError`` after the temp file is cleaned up.
    """
    target = os.fspath(path)
    tmp_path = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except OSError:
        if os.path.exists(tmp_path):
            try:
                os.remove(tmp_path)
            except OSError:  # pragma: no cover - best effort
                pass
        raise
    if fsync:
        fsync_directory(os.path.dirname(target) or ".")


def atomic_write_json(
    path: PathLike, payload: Any, *, fsync: bool = True
) -> None:
    """Atomically serialize *payload* as JSON to *path* (see above)."""
    atomic_write_text(path, json.dumps(payload), fsync=fsync)


def append_line(path: PathLike, line: str, *, fsync: bool = False) -> None:
    """Append one newline-terminated line with a single ``write``.

    ``O_APPEND`` makes concurrent appends from multiple processes land
    whole (at ordinary line sizes) on POSIX filesystems; readers must
    still tolerate a torn final line after a crash.
    """
    data = (line.rstrip("\n") + "\n").encode("utf-8")
    fd = os.open(
        os.fspath(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
