"""Disk storage for cached simulation runs.

Entries live under ``<root>/<key[:2]>/<key>.entry`` (two-level fan-out
keeps directories small) and are written atomically and durably
(temp file + fsync + ``os.replace`` + parent-directory fsync, see
:mod:`repro.durable`), so concurrent sweep workers — which share the
cache root through fork or a shared filesystem — can race on the same
key without ever exposing a half-written entry, and a host power loss
cannot leave a truncated-but-renamed file behind.  Unreadable or
malformed entries are logged as warnings and treated as misses; the
cache never turns a corrupted file into a crash or a wrong result.

This module owns the one on-disk format of a completed
:class:`~repro.sim.metrics.SimulationResult`: the versioned
``repro-simcache-entry`` file written by :func:`write_entry` and
validated by :func:`read_entry`.  The run cache stores entries under
content keys.

A version-4 entry is one binary file:

* an 8-byte magic, ``b"RPSIMC"`` followed by the version as a
  little-endian u16;
* the header's length in bytes, a little-endian u64;
* the header, UTF-8 JSON: ``format``, ``version``, the ``key`` the entry
  was stored under, and ``result``, which holds every scalar field,
  ``manifest``, and for each array field ``{"dtype": "<f8" | "<i8",
  "shape": [...], "offset": ..., "nbytes": ...}``.  Spaces pad it so
  that the body starts 8-aligned;
* the body: each array's C-contiguous little-endian bytes, in field
  order, each starting at an 8-aligned ``offset`` from the body start.

A read is one ``readinto`` of the whole file and one ``np.frombuffer``
view per array, with no decoding, and every bit round-trips (``-0.0``,
NaN payloads, subnormals).  The reader accepts only the layout the
writer produces: a wrong magic, format, version or key, a header that
is not JSON or overruns the file, a dtype other than the field's
canonical one, a byte count that does not fill the shape, an array out
of place, or bytes past the last array make the entry a warned miss.
Entries of earlier versions — version 3 (this layout with other result
fields) and version 2 (one JSON file with base64 arrays,
``<key>.json``) — are never read: their runs miss once and are stored
anew.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..durable import atomic_write_bytes
from ..obs.log import get_logger
from ..sim.metrics import SimulationResult

__all__ = [
    "DEFAULT_CACHE_ROOT",
    "ENV_VAR",
    "CorruptEntryError",
    "RunCacheStats",
    "SimulationRunCache",
    "read_entry",
    "resolve_run_cache",
    "result_from_dict",
    "result_to_dict",
    "write_entry",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Environment variable controlling the default cache.  Unset or empty
#: disables caching; ``0``/``off``/``false``/``no`` disable explicitly;
#: ``1``/``on``/``true``/``yes`` enable at :data:`DEFAULT_CACHE_ROOT`;
#: anything else is used as the cache root path.
ENV_VAR = "REPRO_SIM_CACHE"

#: Where ``REPRO_SIM_CACHE=1`` (and ``run_cache=True``) put entries.
DEFAULT_CACHE_ROOT = os.path.join(
    os.path.expanduser("~"), ".cache", "repro", "simcache"
)

_FORMAT = "repro-simcache-entry"
_VERSION = 4
_MAGIC_PREFIX = b"RPSIMC"
_MAGIC = _MAGIC_PREFIX + _VERSION.to_bytes(2, "little")
#: Magic, then the header length.
_PREAMBLE = struct.Struct("<8sQ")
_ALIGN = 8

_SUFFIX = ".entry"
#: Version-2 entries, listed so ``repro cache info|clear`` see them.
_LEGACY_SUFFIX = ".json"

_OFF_VALUES = frozenset({"0", "off", "false", "no"})
_ON_VALUES = frozenset({"1", "on", "true", "yes"})

#: Stored dtype of every SimulationResult array field: little-endian
#: int64 for the count arrays, float64 for the rest.
_ARRAY_DTYPES = {
    **dict.fromkeys(
        (
            "window_fulfillments",
            "snapshot_counts",
            "snapshot_mandates",
            "snapshot_tracked",
            "final_counts",
        ),
        np.dtype("<i8"),
    ),
    **dict.fromkeys(
        (
            "delays",
            "window_gains",
            "snapshot_times",
        ),
        np.dtype("<f8"),
    ),
}

#: The array fields in dataclass order: the order of an entry's body.
_ARRAY_FIELDS = tuple(
    spec.name
    for spec in dataclasses.fields(SimulationResult)
    if spec.name in _ARRAY_DTYPES
)


def _encode_array(name: str, value: np.ndarray) -> Dict[str, Any]:
    array = np.ascontiguousarray(value, dtype=_ARRAY_DTYPES[name])
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": array.tobytes(),
    }


def _decode_array(name: str, value: Any) -> np.ndarray:
    """Rebuild one array stored by :func:`_encode_array` as a writeable,
    C-contiguous native int64/float64 array; raises ``ValueError`` on a
    payload that does not describe exactly one such array.

    A writeable buffer (an entry's ``bytearray``) is viewed, not copied.
    """
    dtype = _ARRAY_DTYPES[name]
    if not isinstance(value, dict) or value.get("dtype") != dtype.str:
        raise ValueError(f"{name}: not a {dtype.str} array payload")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ValueError(f"{name}: bad shape {shape!r}")
    data = value.get("data")
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValueError(f"{name}: array data is not bytes")
    nbytes = memoryview(data).nbytes
    if nbytes != math.prod(shape) * dtype.itemsize:
        raise ValueError(
            f"{name}: {nbytes} bytes do not hold shape {tuple(shape)}"
        )
    array = np.frombuffer(data, dtype=dtype).reshape(shape)
    if not array.flags.writeable:
        # frombuffer over immutable bytes is read-only.
        array = array.copy()
    return array.astype(dtype.type, copy=False)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Convert a :class:`SimulationResult` to a dict of plain values.

    Every array becomes ``{"dtype", "shape", "data"}`` with its raw
    little-endian bytes as ``data`` (see the module docstring), so a
    result rebuilt by :func:`result_from_dict` is bit-identical to the
    stored one, and two results convert to equal dicts only when their
    arrays are equal byte for byte.
    """
    payload: Dict[str, Any] = {}
    for spec in dataclasses.fields(SimulationResult):
        value = getattr(result, spec.name)
        payload[spec.name] = (
            _encode_array(spec.name, value)
            if isinstance(value, np.ndarray)
            else value
        )
    return payload


def result_from_dict(payload: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`.

    Unknown keys are ignored (forward compatibility); missing keys fall
    back to the dataclass defaults where they exist.  A malformed array
    payload raises ``ValueError``.
    """
    kwargs: Dict[str, Any] = {}
    for spec in dataclasses.fields(SimulationResult):
        if spec.name not in payload:
            continue
        value = payload[spec.name]
        if value is not None and spec.name in _ARRAY_DTYPES:
            value = _decode_array(spec.name, value)
        kwargs[spec.name] = value
    return SimulationResult(**kwargs)


class CorruptEntryError(ValueError):
    """A stored run exists but cannot be trusted (torn, foreign, stale)."""


def write_entry(
    path: PathLike,
    key: str,
    result: SimulationResult,
) -> None:
    """Store *result* at *path* as the entry for content key *key*.

    The write is atomic and fsynced.  Raises :class:`OSError` when the
    write fails.
    """
    fields = result_to_dict(result)
    body: List[bytes] = []
    offset = 0
    for name in _ARRAY_FIELDS:
        array = fields[name]
        if array is None:
            continue
        # Every stored dtype is 8 bytes wide, so the next array starts
        # 8-aligned with no padding.
        data = array.pop("data")
        array["offset"] = offset
        array["nbytes"] = len(data)
        body.append(data)
        offset += len(data)
    header = json.dumps(
        {"format": _FORMAT, "version": _VERSION, "key": key, "result": fields}
    ).encode("utf-8")
    header += b" " * (-(_PREAMBLE.size + len(header)) % _ALIGN)
    atomic_write_bytes(
        path, [_PREAMBLE.pack(_MAGIC, len(header)), header, *body]
    )


def _parse_entry(buffer: bytearray, key: str) -> Dict[str, Any]:
    """The ``result`` payload of the entry in *buffer*, its arrays as
    writeable views of *buffer*; raises :class:`CorruptEntryError`."""
    if len(buffer) < _PREAMBLE.size:
        raise CorruptEntryError("not a cache entry: shorter than its preamble")
    magic, header_length = _PREAMBLE.unpack_from(buffer)
    if magic != _MAGIC:
        if magic.startswith(_MAGIC_PREFIX):
            raise CorruptEntryError(
                f"entry version {int.from_bytes(magic[6:], 'little')}, "
                f"this build reads version {_VERSION}"
            )
        raise CorruptEntryError("not a cache entry: bad magic")
    body_start = _PREAMBLE.size + header_length
    if body_start > len(buffer):
        raise CorruptEntryError(
            f"header of {header_length} bytes runs past the end of the entry"
        )
    if body_start % _ALIGN:
        raise CorruptEntryError(f"body starts at {body_start}, not 8-aligned")
    view = memoryview(buffer)
    try:
        header = json.loads(str(view[_PREAMBLE.size:body_start], "utf-8"))
    except ValueError as error:
        # ValueError covers json.JSONDecodeError and UnicodeDecodeError.
        raise CorruptEntryError(f"unreadable header: {error}") from error
    if (
        not isinstance(header, dict)
        or header.get("format") != _FORMAT
        or not isinstance(header.get("result"), dict)
    ):
        raise CorruptEntryError("not a valid cache entry")
    if header.get("version") != _VERSION:
        raise CorruptEntryError(
            f"entry version {header.get('version')!r}, this build reads "
            f"version {_VERSION}"
        )
    if header.get("key") != key:
        raise CorruptEntryError(
            f"entry stored for key {header.get('key')!r}, read for {key!r}"
        )
    fields: Dict[str, Any] = header["result"]
    body = view[body_start:]
    cursor = 0
    for name in _ARRAY_FIELDS:
        array = fields.get(name)
        if array is None:
            continue
        if not isinstance(array, dict):
            raise CorruptEntryError(f"{name}: not an array descriptor")
        offset, nbytes = array.pop("offset", None), array.pop("nbytes", None)
        if type(offset) is not int or type(nbytes) is not int or nbytes < 0:
            raise CorruptEntryError(f"{name}: bad offset or nbytes")
        if offset % _ALIGN:
            raise CorruptEntryError(f"{name}: offset {offset} not 8-aligned")
        end = offset + nbytes
        if end > len(body):
            raise CorruptEntryError(
                f"{name}: bytes {offset}..{end} past the end of a "
                f"{len(body)}-byte body"
            )
        if offset != cursor:
            raise CorruptEntryError(
                f"{name}: offset {offset}, the previous array ends at {cursor}"
            )
        array["data"] = body[offset:end]
        cursor = end
    if cursor != len(body):
        raise CorruptEntryError(
            f"{len(body) - cursor} bytes past the last array"
        )
    return fields


def read_entry(path: PathLike, key: str) -> SimulationResult:
    """Load and validate the entry for content key *key* at *path*.

    Raises :class:`FileNotFoundError` when there is no entry, and
    :class:`CorruptEntryError` (with the reason) when the file is
    unreadable, is not an entry of this build's version laid out as
    :func:`write_entry` lays it out, was stored under another key (a
    copied or renamed file), or holds a result that no longer rebuilds.
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            buffer = bytearray(os.fstat(handle.fileno()).st_size)
            n_read = handle.readinto(buffer)
    except FileNotFoundError:
        raise
    except OSError as error:
        raise CorruptEntryError(f"unreadable entry: {error}") from error
    if n_read != len(buffer):
        raise CorruptEntryError(
            f"read {n_read} of the entry's {len(buffer)} bytes"
        )
    fields = _parse_entry(buffer, key)
    try:
        return result_from_dict(fields)
    # Any malformed payload must surface as a corrupt entry, whatever
    # the rebuild raises.  # repro-lint: ignore[RPL007]
    except Exception as error:
        raise CorruptEntryError(f"entry does not rebuild: {error}") from error


@dataclasses.dataclass
class RunCacheStats:
    """Hit/miss counters of one cache instance.

    A pooled sweep adds what its forked workers counted to the
    caller's instance, so serial and pooled sweeps count alike.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def add(self, counts: Dict[str, int]) -> None:
        """Add *counts* (a :meth:`to_dict` of the same fields)."""
        for name, value in counts.items():
            setattr(self, name, getattr(self, name) + value)


class SimulationRunCache:
    """Content-addressed store of completed simulation results."""

    def __init__(self, root: PathLike) -> None:
        self.root = os.fspath(root)
        self.stats = RunCacheStats()
        self._logger = get_logger("repro.simcache")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulationRunCache(root={self.root!r})"

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + _SUFFIX)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for *key*, or ``None`` on a miss.

        A corrupted entry (unreadable file, wrong format or key, a
        broken layout, or a payload that no longer rebuilds) counts as a
        miss and logs a warning — it is never allowed to crash the sweep.
        """
        path = self._entry_path(key)
        try:
            result = read_entry(path, key)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except CorruptEntryError as error:
            self._warn_corrupt(path, str(error))
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        key: str,
        result: SimulationResult,
    ) -> None:
        """Store *result* under *key* (atomic + fsync, last writer wins)."""
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            write_entry(path, key, result)
        except OSError as error:
            self.stats.errors += 1
            self._logger.warning(
                "cache write failed", path=path, error=str(error)
            )
            return
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _entry_files(self) -> list:
        entries = []
        if not os.path.isdir(self.root):
            return entries
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith((_SUFFIX, _LEGACY_SUFFIX)):
                    entries.append(os.path.join(shard_dir, name))
        return entries

    def __len__(self) -> int:
        return len(self._entry_files())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_files():
            try:
                os.remove(path)
                removed += 1
            except OSError as error:  # pragma: no cover - race/permission
                self._logger.warning(
                    "could not remove cache entry", path=path, error=str(error)
                )
        return removed

    def info(self) -> Dict[str, Any]:
        """Entry count and total size, for ``repro cache info``."""
        files = self._entry_files()
        total_bytes = 0
        for path in files:
            try:
                total_bytes += os.path.getsize(path)
            except OSError:  # pragma: no cover - race
                pass
        return {
            "root": self.root,
            "n_entries": len(files),
            "total_bytes": total_bytes,
        }

    def _warn_corrupt(self, path: str, reason: str) -> None:
        self.stats.errors += 1
        self.stats.misses += 1
        self._logger.warning(
            "skipping corrupted cache entry", path=path, reason=reason
        )


def resolve_run_cache(
    setting: Union[None, bool, PathLike, SimulationRunCache] = None,
) -> Optional[SimulationRunCache]:
    """Resolve a ``run_cache`` argument to a cache instance (or None).

    - ``None`` defers to :data:`ENV_VAR` (unset/empty/off -> disabled,
      on -> :data:`DEFAULT_CACHE_ROOT`, anything else -> that path);
    - ``False`` disables unconditionally (the ``--no-cache`` switch);
    - ``True`` enables at the env-var path or the default root;
    - a path enables at that root;
    - an existing :class:`SimulationRunCache` is passed through.
    """
    if isinstance(setting, SimulationRunCache):
        return setting
    if setting is False:
        return None
    env = os.environ.get(ENV_VAR, "").strip()
    if setting is True:
        if env and env.lower() not in _OFF_VALUES | _ON_VALUES:
            return SimulationRunCache(env)
        return SimulationRunCache(DEFAULT_CACHE_ROOT)
    if setting is not None:
        return SimulationRunCache(setting)
    # setting is None: environment decides.
    if not env or env.lower() in _OFF_VALUES:
        return None
    if env.lower() in _ON_VALUES:
        return SimulationRunCache(DEFAULT_CACHE_ROOT)
    return SimulationRunCache(env)
