"""Crash-durable file primitives shared by the persistence layers.

Every on-disk artifact that must survive a sweep being SIGKILLed — or
the host losing power — mid-write goes through this module: above all
the simulation run-cache entries a rerun resumes from.  The contract
is:

* *atomicity* — readers only ever observe the old file or the complete
  new file, never a partial write (temp file in the same directory +
  ``os.replace``);
* *durability* — the file's bytes are flushed to stable storage
  **before** the rename, and the parent directory entry is flushed
  after it, so a power loss cannot leave a truncated-but-renamed file
  behind.  Filesystems that do not support directory fsync (some
  network mounts) degrade gracefully — durability weakens, atomicity
  does not.
"""

from __future__ import annotations

import os
from typing import Iterable, Union

__all__ = ["atomic_write_bytes", "fsync_directory"]

PathLike = Union[str, "os.PathLike[str]"]

#: A bytes-like chunk: ``bytes``, ``bytearray`` or a ``memoryview``.
Buffer = Union[bytes, bytearray, memoryview]


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


def atomic_write_bytes(path: PathLike, chunks: Iterable[Buffer]) -> None:
    """Atomically and durably replace *path* with the concatenation of
    *chunks*, written in order.

    The temp file lives in the target directory so the final
    ``os.replace`` never crosses a filesystem boundary.  Errors (an
    ``OSError``, or whatever producing a chunk raised) propagate after
    the temp file is cleaned up, leaving any old *path* intact.
    """
    target = os.fspath(path)
    tmp_path = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        if os.path.exists(tmp_path):
            try:
                os.remove(tmp_path)
            except OSError:  # pragma: no cover - best effort
                pass
        raise
    fsync_directory(os.path.dirname(target) or ".")
