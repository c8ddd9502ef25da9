"""Run provenance: the :class:`RunManifest`.

A manifest answers "what exactly produced this result?" — the config
fingerprint, the seed, the code revision, the package versions, and
how long the run took.  It is attached to
:class:`~repro.sim.metrics.SimulationResult` (as a plain dict, so
results stay JSON-serializable), so it travels into run-cache entries.

Manifests are *metadata*: they carry host timings and therefore differ
between otherwise bit-identical runs.  Equality checks on results
(reference-engine equivalence, parallel determinism, run-cache
round-trips) must compare everything *except* the manifest.
"""

from __future__ import annotations

import dataclasses
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

__all__ = ["RunManifest", "environment_provenance"]

_ENV_CACHE: Optional[Dict[str, Any]] = None


def _git_revision() -> Optional[str]:
    """The repo's HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def _package_versions() -> Dict[str, str]:
    versions: Dict[str, str] = {}
    for name in ("numpy", "scipy"):
        try:
            module = __import__(name)
        except ImportError:  # pragma: no cover - both ship in the image
            continue
        versions[name] = str(getattr(module, "__version__", "unknown"))
    return versions


def environment_provenance() -> Dict[str, Any]:
    """Host environment facts, computed once per process and cached.

    The git revision is resolved with a guarded subprocess call; in a
    non-git deployment it is simply ``None``.
    """
    global _ENV_CACHE
    if _ENV_CACHE is None:
        _ENV_CACHE = {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "git_revision": _git_revision(),
            "packages": _package_versions(),
        }
    return dict(_ENV_CACHE)


@dataclasses.dataclass
class RunManifest:
    """Provenance of one simulation run.

    ``config_fingerprint`` is :meth:`SimulationConfig.fingerprint`;
    ``seed`` is the engine's integer seed; ``wall_s``/``cpu_s`` come
    from the :class:`~repro.obs.timing.Stopwatch` shim; ``phases`` is
    the named-section timing breakdown (merge/run/settle wall seconds
    from :meth:`Stopwatch.section`); ``metrics`` is the run's embedded
    counter snapshot (see :mod:`repro.obs.metrics`); ``extra`` holds
    caller context (trial index, protocol name, sweep parameters, ...).
    """

    config_fingerprint: str
    seed: Optional[int] = None
    protocol: Optional[str] = None
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    n_events: Optional[int] = None
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, Any] = dataclasses.field(default_factory=dict)
    environment: Dict[str, Any] = dataclasses.field(
        default_factory=environment_provenance
    )
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready plain dict (the form stored results carry)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
