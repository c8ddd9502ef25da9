"""Disk storage for cached simulation runs.

Entries live under ``<root>/<key[:2]>/<key>.json`` (two-level fan-out
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
``repro-simcache-entry`` envelope written by :func:`write_entry` and
validated by :func:`read_entry`.  The run cache stores entries under
content keys; the distributed work queue publishes its
``results/<unit>.json`` through the same pair, with the executing
worker, claim, timing and run key in the envelope's ``meta``.

In a version-2 entry every array field of the result is an object
``{"dtype": "<f8" | "<i8", "shape": [...], "data": <base64>}``: the
array's C-contiguous little-endian bytes, base64-encoded so the entry
stays one JSON file (one atomic write, no sidecar) and loads without
parsing thousands of float reprs.  The bytes round-trip exactly,
including ``-0.0``, NaN payloads and subnormals.  Scalars, ``manifest``
and ``meta`` stay plain JSON.  Entries of any other version (the
version-1 entries stored arrays as JSON lists) are warned misses, which
the next store rewrites.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import os
from typing import Any, Dict, NamedTuple, Optional, Union

import numpy as np

from ..durable import atomic_write_json
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..sim.metrics import SimulationResult

__all__ = [
    "DEFAULT_CACHE_ROOT",
    "ENV_VAR",
    "CorruptEntryError",
    "RunCacheStats",
    "SimulationRunCache",
    "StoredRun",
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
_VERSION = 2

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
            "fault_times",
            "recovery_times",
        ),
        np.dtype("<f8"),
    ),
}


def _encode_array(name: str, value: np.ndarray) -> Dict[str, Any]:
    array = np.ascontiguousarray(value, dtype=_ARRAY_DTYPES[name])
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(name: str, value: Any) -> np.ndarray:
    """Rebuild one array stored by :func:`_encode_array` as a writeable,
    C-contiguous native int64/float64 array; raises ``ValueError`` on a
    payload that does not describe exactly one such array."""
    dtype = _ARRAY_DTYPES[name]
    if not isinstance(value, dict) or value.get("dtype") != dtype.str:
        raise ValueError(f"{name}: not a {dtype.str} array payload")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ValueError(f"{name}: bad shape {shape!r}")
    data = value.get("data")
    if not isinstance(data, str):
        raise ValueError(f"{name}: array data is not a string")
    raw = base64.b64decode(data, validate=True)
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise ValueError(
            f"{name}: {len(raw)} bytes do not hold shape {tuple(shape)}"
        )
    # A bytearray, because frombuffer over immutable bytes is read-only.
    array = np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)
    return array.astype(dtype.type, copy=False)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Convert a :class:`SimulationResult` to a JSON-serializable dict.

    Arrays are stored as their raw bytes (see the module docstring), so
    a result rebuilt by :func:`result_from_dict` is bit-identical to the
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


class StoredRun(NamedTuple):
    """One entry read back by :func:`read_entry`."""

    result: SimulationResult
    meta: Dict[str, Any]


def write_entry(
    path: PathLike,
    key: str,
    result: SimulationResult,
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Store *result* at *path* as one entry (atomic + fsync).

    *key* is the address the entry is stored under (a content key in
    the run cache, a unit id in the work queue); *meta* is free-form
    JSON provenance carried alongside.  Raises :class:`OSError` when
    the write fails.
    """
    payload: Dict[str, Any] = {
        "format": _FORMAT,
        "version": _VERSION,
        "key": key,
        "result": result_to_dict(result),
    }
    if meta:
        payload["meta"] = meta
    atomic_write_json(path, payload, fsync=True)


def read_entry(path: PathLike) -> StoredRun:
    """Load and validate the entry at *path*.

    Raises :class:`FileNotFoundError` when there is no entry, and
    :class:`CorruptEntryError` (with the reason) when the file is
    unreadable, is not valid UTF-8 JSON, is not an entry of this
    build's version, or holds a result that no longer rebuilds.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as error:
        # ValueError covers json.JSONDecodeError and UnicodeDecodeError.
        raise CorruptEntryError(f"unreadable entry: {error}") from error
    meta = data.get("meta", {}) if isinstance(data, dict) else None
    if (
        not isinstance(data, dict)
        or data.get("format") != _FORMAT
        or not isinstance(data.get("result"), dict)
        or not isinstance(meta, dict)
    ):
        raise CorruptEntryError("not a valid cache entry")
    if data.get("version") != _VERSION:
        raise CorruptEntryError(
            f"entry version {data.get('version')!r}, this build reads "
            f"version {_VERSION}"
        )
    try:
        result = result_from_dict(data["result"])
    # Any malformed payload must surface as a corrupt entry, whatever
    # the rebuild raises.  # repro-lint: ignore[RPL007]
    except Exception as error:
        raise CorruptEntryError(f"entry does not rebuild: {error}") from error
    return StoredRun(result, meta)


@dataclasses.dataclass
class RunCacheStats:
    """Hit/miss counters of one cache instance (this process only)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class SimulationRunCache:
    """Content-addressed store of completed simulation results."""

    def __init__(self, root: PathLike) -> None:
        self.root = os.fspath(root)
        self.stats = RunCacheStats()
        self._logger = get_logger("repro.simcache")
        # Tracer-style resolve: one is-None test per cache *operation*
        # (never per event) mirrors the per-instance stats into the
        # process registry so sweeps expose a live hit rate.
        self._metrics_reg = obs_metrics.enabled_registry()

    def _count(self, outcome: str) -> None:
        """Mirror one get/put outcome into the process metrics registry."""
        reg = self._metrics_reg
        if reg is None:
            return
        reg.counter(
            "repro_simcache_ops_total",
            help="simulation run-cache operations by outcome",
            labels={"outcome": outcome},
        ).inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulationRunCache(root={self.root!r})"

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for *key*, or ``None`` on a miss.

        A corrupted entry (unreadable file, bad JSON, wrong format, or a
        payload that no longer rebuilds) counts as a miss and logs a
        warning — it is never allowed to crash the sweep.
        """
        path = self._entry_path(key)
        try:
            result = read_entry(path).result
        except FileNotFoundError:
            self.stats.misses += 1
            self._count("miss")
            return None
        except CorruptEntryError as error:
            self._warn_corrupt(path, str(error))
            return None
        self.stats.hits += 1
        self._count("hit")
        return result

    def put(
        self,
        key: str,
        result: SimulationResult,
        *,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store *result* under *key* (atomic + fsync, last writer wins)."""
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            write_entry(path, key, result, meta=meta)
        except OSError as error:
            self.stats.errors += 1
            self._count("write_error")
            self._logger.warning(
                "cache write failed", path=path, error=str(error)
            )
            return
        self.stats.stores += 1
        self._count("store")

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
                if name.endswith(".json"):
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
        self._count("corrupt")
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
