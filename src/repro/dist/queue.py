"""The on-disk work queue shared by sweep workers.

One queue directory describes one sweep: its identity (seed walk, trial
count, protocol set, config fingerprint), its ``(trial, protocol)``
units, and — as workers make progress — leases, published results,
failure records, quarantine markers, and a lifecycle event log::

    <root>/
      manifest.json         sweep identity + policy (max_claims, ttl)
      units/<id>.json       unit spec: trial, protocol, seed triple
      leases/<id>.json      live claims (see repro.dist.leases)
      results/<id>.json     published results: run-cache entries
                            (repro.simcache.store), atomic + fsync
      failures/<id>.<k>.json one record per failed claim
      quarantine/<id>.json  poison units parked after the claim budget
      metrics/<worker>.json per-worker progress frames (atomic, advisory;
                            read by ``repro sweep watch``)
      events.jsonl          claim/publish/fail/expire/requeue/... log

Every state transition is one atomic durable file operation, so any
writer may die at any instruction — including SIGKILL mid-write — and
readers still see either the old state or the new state.  Results are
deterministic functions of the unit's seeds, so duplicated execution
(two workers racing one unit after a lease was reaped early) publishes
identical bytes and "last writer wins" is correct, not just safe.

A unit's *claims-used* count is ``requeues + failure records``: every
way a claim can end badly (lease expiry after a crash or hang, or an
explicit failure) consumes one unit of the ``max_claims`` budget, after
which the supervisor quarantines the unit instead of letting it wedge
the sweep.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..durable import append_line, atomic_write_json, truncate_error_text
from ..errors import ConfigurationError
from ..obs import events as ev
from ..obs.log import get_logger
from ..simcache.store import (
    CorruptEntryError,
    StoredRun,
    read_entry,
    write_entry,
)
from .clock import Clock, SystemClock
from .leases import LeaseManager

__all__ = ["UnitRecord", "WorkQueue"]

PathLike = Union[str, "os.PathLike[str]"]

_FORMAT = "repro-sweep-queue"
_VERSION = 1


def unit_id(trial: int, protocol_index: int) -> str:
    """Filename-safe unit identifier, ordering-stable within a sweep."""
    return f"t{trial:05d}-p{protocol_index:03d}"


@dataclasses.dataclass(frozen=True)
class UnitRecord:
    """One ``(trial, protocol)`` work unit's immutable spec."""

    unit: str
    trial: int
    protocol: str
    seeds: Tuple[int, int, int]

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UnitRecord":
        return cls(
            unit=str(data["unit"]),
            trial=int(data["trial"]),
            protocol=str(data["protocol"]),
            seeds=tuple(int(s) for s in data["seeds"]),
        )


class WorkQueue:
    """Filesystem-backed sweep state shared by workers and supervisor."""

    def __init__(
        self, root: PathLike, *, clock: Optional[Clock] = None
    ) -> None:
        self.root = os.fspath(root)
        self.clock: Clock = clock if clock is not None else SystemClock()
        self._logger = get_logger("repro.dist.queue")
        self._event_seq = 0
        manifest_path = os.path.join(self.root, "manifest.json")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise ConfigurationError(
                f"{self.root} is not a sweep queue (no manifest.json); "
                "create one with WorkQueue.create()"
            ) from None
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"unreadable queue manifest {manifest_path}: {error}"
            ) from error
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != _FORMAT
            or manifest.get("version") != _VERSION
        ):
            raise ConfigurationError(
                f"{manifest_path} is not a version-{_VERSION} sweep queue"
            )
        self.manifest: Dict[str, Any] = manifest
        self.max_claims = int(manifest["max_claims"])
        self.ttl = float(manifest["ttl"])
        self.unit_ids: List[str] = list(manifest["units"])
        self.leases = LeaseManager(
            os.path.join(self.root, "leases"), ttl=self.ttl, clock=self.clock
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: PathLike,
        units: Sequence[UnitRecord],
        *,
        identity: Dict[str, Any],
        max_claims: int = 3,
        ttl: float = 30.0,
        scenario: Optional[Dict[str, Any]] = None,
        trial_spills: Optional[Dict[int, str]] = None,
        clock: Optional[Clock] = None,
    ) -> "WorkQueue":
        """Create a queue at *root*, or attach to a matching existing one.

        Attaching (resume after a crashed or interrupted sweep) requires
        the stored identity to match exactly — a queue directory is
        never silently reused for a different sweep.  Already-published
        results survive; that is the whole point.

        *trial_spills* (trial -> path of the parent's spilled ``.ctb``
        trace) is persisted in the manifest, with string trial keys, so
        workers joining from any process memory-map the spill instead
        of regenerating the trace.  Purely an optimization channel — a
        worker that ignores it regenerates inputs from the unit seeds
        and produces bit-identical results.
        """
        if max_claims < 1:
            raise ConfigurationError(
                f"max_claims must be >= 1, got {max_claims}"
            )
        path = os.fspath(root)
        manifest_path = os.path.join(path, "manifest.json")
        if os.path.exists(manifest_path):
            queue = cls(path, clock=clock)
            if queue.manifest.get("identity") != identity:
                raise ConfigurationError(
                    f"queue {path} belongs to a different sweep: "
                    f"{queue.manifest.get('identity')!r} != {identity!r}"
                )
            return queue
        for sub in ("units", "leases", "results", "failures", "quarantine"):
            os.makedirs(os.path.join(path, sub), exist_ok=True)
        for record in units:
            atomic_write_json(
                os.path.join(path, "units", f"{record.unit}.json"),
                {**record.to_dict(), "requeues": 0},
                fsync=False,
            )
        manifest: Dict[str, Any] = {
            "format": _FORMAT,
            "version": _VERSION,
            "identity": identity,
            "max_claims": int(max_claims),
            "ttl": float(ttl),
            "units": [record.unit for record in units],
        }
        if scenario is not None:
            manifest["scenario"] = scenario
        if trial_spills:
            manifest["trial_spills"] = {
                str(trial): path for trial, path in trial_spills.items()
            }
        # The manifest lands last (durably), so a half-created queue
        # directory is simply not a queue yet and create() retries are
        # idempotent.
        atomic_write_json(manifest_path, manifest, fsync=True)
        return cls(path, clock=clock)

    @classmethod
    def open(
        cls, root: PathLike, *, clock: Optional[Clock] = None
    ) -> "WorkQueue":
        """Attach to an existing queue (workers joining from any host)."""
        return cls(root, clock=clock)

    # ------------------------------------------------------------------
    # unit state
    # ------------------------------------------------------------------
    def _unit_path(self, unit: str) -> str:
        return os.path.join(self.root, "units", f"{unit}.json")

    def read_unit(self, unit: str) -> UnitRecord:
        with open(self._unit_path(unit), "r", encoding="utf-8") as handle:
            return UnitRecord.from_dict(json.load(handle))

    def requeues(self, unit: str) -> int:
        try:
            with open(self._unit_path(unit), "r", encoding="utf-8") as handle:
                return int(json.load(handle).get("requeues", 0))
        except (OSError, json.JSONDecodeError, ValueError):
            return 0

    def record_requeue(self, unit: str) -> int:
        """Supervisor-only: bump the unit's requeue counter; returns it."""
        path = self._unit_path(unit)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["requeues"] = int(data.get("requeues", 0)) + 1
        atomic_write_json(path, data, fsync=True)
        return int(data["requeues"])

    def failure_count(self, unit: str) -> int:
        failures_dir = os.path.join(self.root, "failures")
        prefix = f"{unit}."
        try:
            names = os.listdir(failures_dir)
        except FileNotFoundError:
            return 0
        return sum(
            1
            for name in names
            if name.startswith(prefix) and name.endswith(".json")
        )

    def record_failure(
        self, unit: str, *, worker: str, claim: int, error: str
    ) -> None:
        """One failed claim; the error text is byte-bounded on write."""
        payload = {
            "unit": unit,
            "worker": worker,
            "claim": int(claim),
            "error": truncate_error_text(error),
            "at": self.clock.now(),
        }
        atomic_write_json(
            os.path.join(self.root, "failures", f"{unit}.{claim}.json"),
            payload,
            fsync=True,
        )

    def read_failures(self, unit: str) -> List[Dict[str, Any]]:
        failures_dir = os.path.join(self.root, "failures")
        prefix = f"{unit}."
        records = []
        try:
            names = sorted(os.listdir(failures_dir))
        except FileNotFoundError:
            return []
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".json")):
                continue
            try:
                with open(
                    os.path.join(failures_dir, name), "r", encoding="utf-8"
                ) as handle:
                    records.append(json.load(handle))
            except (OSError, json.JSONDecodeError):
                continue
        return records

    def claims_used(self, unit: str) -> int:
        """Spent retry budget: crash-requeues plus explicit failures."""
        return self.requeues(unit) + self.failure_count(unit)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _result_path(self, unit: str) -> str:
        return os.path.join(self.root, "results", f"{unit}.json")

    def has_result(self, unit: str) -> bool:
        return os.path.exists(self._result_path(unit))

    def publish_result(
        self,
        unit: str,
        result: Any,
        *,
        worker: str,
        claim: int,
        timing: Dict[str, float],
        run_key: Optional[str] = None,
    ) -> None:
        """Atomically + durably publish one completed unit.

        The file is a run-cache entry keyed by the unit id, with the
        executing worker, claim, timing and run key in its ``meta``.
        A SIGKILL at any point leaves either no result file or a
        complete one; last (identical) writer wins on races.
        """
        write_entry(
            self._result_path(unit),
            unit,
            result,
            meta={
                "worker": worker,
                "claim": int(claim),
                "timing": dict(timing),
                "run_key": run_key,
            },
        )

    def read_result(self, unit: str) -> Optional[StoredRun]:
        """The published entry, or ``None`` (corrupt files warn+discard).

        A corrupt result entry — possible only if durability was
        degraded (filesystem without fsync) — is deleted and treated as
        never published, so the unit is simply executed again.
        """
        path = self._result_path(unit)
        try:
            return read_entry(path)
        except FileNotFoundError:
            return None
        except CorruptEntryError as error:
            self._logger.warning(
                "discarding corrupt result entry", path=path, error=str(error)
            )
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - race
                pass
            return None

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def _quarantine_path(self, unit: str) -> str:
        return os.path.join(self.root, "quarantine", f"{unit}.json")

    def is_quarantined(self, unit: str) -> bool:
        return os.path.exists(self._quarantine_path(unit))

    def quarantine(self, unit: str, reason: str) -> None:
        atomic_write_json(
            self._quarantine_path(unit),
            {
                "unit": unit,
                "reason": truncate_error_text(reason),
                "claims_used": self.claims_used(unit),
                "failures": self.read_failures(unit),
                "at": self.clock.now(),
            },
            fsync=True,
        )

    def read_quarantine(self, unit: str) -> Optional[Dict[str, Any]]:
        try:
            with open(
                self._quarantine_path(unit), "r", encoding="utf-8"
            ) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    # ------------------------------------------------------------------
    # scheduling views
    # ------------------------------------------------------------------
    def is_done(self, unit: str) -> bool:
        return self.has_result(unit) or self.is_quarantined(unit)

    def complete(self) -> bool:
        return all(self.is_done(unit) for unit in self.unit_ids)

    def claimable_units(self, offset: int = 0) -> List[str]:
        """Units a worker may claim right now, in rotated manifest order.

        Rotating the scan start by a per-worker *offset* spreads
        concurrent claimants over the unit list instead of having every
        worker contend on unit 0.  Budget-exhausted units are excluded
        (the supervisor quarantines them).
        """
        n = len(self.unit_ids)
        if n == 0:
            return []
        ordered = [self.unit_ids[(offset + k) % n] for k in range(n)]
        claimable = []
        for unit in ordered:
            if self.is_done(unit):
                continue
            if self.claims_used(unit) >= self.max_claims:
                continue
            lease = self.leases.read(unit)
            if lease is not None and not self.leases.is_stale(lease):
                continue
            claimable.append(unit)
        return claimable

    def status(self) -> Dict[str, Any]:
        """Counts + live leases, for ``repro sweep status`` and tests."""
        published = sum(1 for u in self.unit_ids if self.has_result(u))
        quarantined = sum(
            1 for u in self.unit_ids if self.is_quarantined(u)
        )
        leases = [
            lease.to_dict()
            for lease in self.leases.active()
            if not self.leases.is_stale(lease)
        ]
        return {
            "root": self.root,
            "n_units": len(self.unit_ids),
            "published": published,
            "quarantined": quarantined,
            "pending": len(self.unit_ids) - published - quarantined,
            "live_leases": leases,
        }

    # ------------------------------------------------------------------
    # lifecycle event log
    # ------------------------------------------------------------------
    def log_event(self, kind: str, **fields: Any) -> None:
        """Append one schema-valid lifecycle event to ``events.jsonl``.

        ``seq`` is per-writer (every worker counts its own emissions);
        a multi-writer log totally orders by ``(t, worker, seq)``.
        """
        event: Dict[str, Any] = {
            "seq": self._event_seq,
            "kind": kind,
            "t": self.clock.now(),
        }
        event.update(fields)
        ev.validate_event(event)
        self._event_seq += 1
        try:
            append_line(
                os.path.join(self.root, "events.jsonl"), json.dumps(event)
            )
        except OSError as error:  # pragma: no cover - diskless degrade
            self._logger.warning("event log write failed", error=str(error))

    def read_events(self) -> List[Dict[str, Any]]:
        """Every logged event (a torn final line is tolerated)."""
        path = os.path.join(self.root, "events.jsonl")
        events = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue
        except FileNotFoundError:
            return []
        return events
