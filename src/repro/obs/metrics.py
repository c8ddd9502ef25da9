"""Process-wide metrics: counters, gauges, histograms, and exporters.

The tracer (:mod:`repro.obs.tracer`) answers *what happened to one
request*; this module answers *how the process is doing right now* —
events processed per chunk, replica churn, runs per protocol —
as cheap in-memory aggregates that can be snapshotted at any time.

The discipline mirrors the tracer exactly:

* **disabled ⇒ zero cost.**  Hot-path owners resolve
  :func:`enabled_registry` once at setup; a ``None`` result selects the
  bare code path, so a disabled run carries no per-event ``if`` and no
  metric loads at all (enablement: the ``REPRO_METRICS`` environment
  variable, or :func:`set_enabled` programmatically).
* **enabled ⇒ aggregation only.**  ``inc``/``set``/``observe`` mutate
  plain Python floats and lists; nothing here ever performs I/O, takes
  a lock, or reads a clock.  Exporters run on demand from a
  :meth:`MetricsRegistry.snapshot` (``repro analyze`` RPL002: only
  :mod:`repro.obs.timing` may read the host clock).
* **metrics are metadata.**  Aggregates never feed back into
  simulation state, so metrics-enabled runs stay bit-identical to
  disabled ones — enforced by ``tests/sim/test_metrics_identity.py``.

Exporters: :func:`render_prometheus` (text exposition format 0.0.4)
and the snapshot dict itself (embedded in run and sweep manifests).
:func:`parse_prometheus` reads the exposition format back for
round-trip tests and the ``repro metrics`` CLI.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "ENV_VAR",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "registry",
    "enabled_registry",
    "metrics_enabled",
    "set_enabled",
    "reset_registry",
    "render_prometheus",
    "parse_prometheus",
    "coerce_snapshot",
]

#: Environment variable that turns metrics collection on ("1", "true",
#: "yes", "on" — case-insensitive).
ENV_VAR = "REPRO_METRICS"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def exponential_buckets(
    start: float, factor: float, count: int
) -> Tuple[float, ...]:
    """``count`` upper bounds ``start * factor**k`` (``+Inf`` is implicit)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"need start > 0, factor > 1, count >= 1; got "
            f"({start}, {factor}, {count})"
        )
    return tuple(start * factor**k for k in range(count))


#: Default histogram buckets: 16 powers of four from 1e-3 — spans
#: sub-millisecond durations through multi-million-event chunk sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = exponential_buckets(1e-3, 4.0, 16)


class Counter:
    """A monotonically increasing value.  Not thread-safe by design:
    the hot paths that feed it are single-threaded per process."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (e.g. replicas held at the end)."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram (exponential bounds by default).

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in the implicit ``+Inf`` bucket.  Exposed cumulatively
    (Prometheus ``le`` semantics) by :meth:`cumulative_buckets`.
    """

    kind = "histogram"
    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(cleaned, cleaned[1:])):
            raise ValueError(f"bucket bounds must increase: {cleaned}")
        if any(not math.isfinite(b) for b in cleaned):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.bounds = cleaned
        self._counts = [0] * (len(cleaned) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self._counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out


_Metric = Union[Counter, Gauge, Histogram]


class _Family:
    """All series of one metric name (same kind, help, label names)."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self.children: Dict[Tuple[str, ...], _Metric] = {}


class MetricsRegistry:
    """Named metric families with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the live child for the
    given labels, creating family and child on first use; repeated
    calls with the same name must agree on kind and label names.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- registration ------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Optional[Mapping[str, str]],
        buckets: Optional[Tuple[float, ...]],
    ) -> Tuple[_Family, Tuple[str, ...]]:
        label_map = dict(labels) if labels else {}
        label_names = tuple(sorted(label_map))
        family = self._families.get(name)
        if family is None:
            # Name/label validation only on creation: the get path of an
            # existing family is dict lookups and tuple builds only.
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            for key in label_map:
                if not _LABEL_RE.match(key):
                    raise ValueError(f"invalid label name {key!r}")
            family = _Family(name, kind, help_text, label_names, buckets)
            self._families[name] = family
        else:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            if family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} has labels {family.label_names}, "
                    f"got {label_names}"
                )
            if help_text and not family.help:
                family.help = help_text
        values = tuple(str(label_map[key]) for key in family.label_names)
        return family, values

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        family, values = self._family(name, "counter", help, labels, None)
        child = family.children.get(values)
        if child is None:
            child = family.children[values] = Counter()
        assert isinstance(child, Counter)
        return child

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        family, values = self._family(name, "gauge", help, labels, None)
        child = family.children.get(values)
        if child is None:
            child = family.children[values] = Gauge()
        assert isinstance(child, Gauge)
        return child

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        bounds = tuple(float(b) for b in buckets)
        family, values = self._family(name, "histogram", help, labels, bounds)
        child = family.children.get(values)
        if child is None:
            child = family.children[values] = Histogram(
                family.buckets or bounds
            )
        assert isinstance(child, Histogram)
        return child

    # -- introspection -----------------------------------------------
    def __len__(self) -> int:
        return len(self._families)

    def clear(self) -> None:
        self._families.clear()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every family and series.

        The format is the interchange form all exporters and the
        ``repro metrics`` CLI consume::

            {name: {"kind": ..., "help": ..., "label_names": [...],
                    "series": [{"labels": {...}, ...values...}]}}

        Counter/gauge series carry ``"value"``; histogram series carry
        ``"sum"``, ``"count"``, and cumulative ``"buckets"`` as
        ``[upper_bound, count]`` pairs with ``"+Inf"`` last.
        """
        out: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series: List[Dict[str, Any]] = []
            for values in sorted(family.children):
                child = family.children[values]
                entry: Dict[str, Any] = {
                    "labels": dict(zip(family.label_names, values)),
                }
                if isinstance(child, Histogram):
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                    entry["buckets"] = [
                        ["+Inf" if math.isinf(le) else le, n]
                        for le, n in child.cumulative_buckets()
                    ]
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            }
        return out

    def to_prometheus(self) -> str:
        return render_prometheus(self.snapshot())


# ---------------------------------------------------------------------
# process-wide registry with tracer-style disabled resolution
# ---------------------------------------------------------------------
_REGISTRY = MetricsRegistry()
_ENABLED: Optional[bool] = None


def registry() -> MetricsRegistry:
    """The process-wide registry (always usable, even when disabled)."""
    return _REGISTRY


def metrics_enabled() -> bool:
    """True when collection is on (``set_enabled`` beats ``REPRO_METRICS``)."""
    if _ENABLED is not None:
        return _ENABLED
    import os

    return os.environ.get(ENV_VAR, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def set_enabled(flag: Optional[bool]) -> None:
    """Force collection on/off; ``None`` defers to ``REPRO_METRICS``."""
    global _ENABLED
    _ENABLED = flag


def enabled_registry() -> Optional[MetricsRegistry]:
    """The registry iff collection is enabled, else ``None``.

    The tracer-style resolve: hot-path owners call this once at setup
    and select the bare code path on ``None`` — never per event.
    """
    return _REGISTRY if metrics_enabled() else None


def reset_registry() -> None:
    """Drop every family (tests; enablement state is untouched)."""
    _REGISTRY.clear()


# ---------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_block(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in labels
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Text exposition format 0.0.4 from a registry snapshot."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for entry in family["series"]:
            labels = dict(entry.get("labels") or {})
            if family["kind"] == "histogram":
                for le, count in entry["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = (
                        le if isinstance(le, str) else _format_value(float(le))
                    )
                    lines.append(
                        f"{name}_bucket{_label_block(bucket_labels)} "
                        f"{_format_value(float(count))}"
                    )
                lines.append(
                    f"{name}_sum{_label_block(labels)} "
                    f"{_format_value(float(entry['sum']))}"
                )
                lines.append(
                    f"{name}_count{_label_block(labels)} "
                    f"{_format_value(float(entry['count']))}"
                )
            else:
                lines.append(
                    f"{name}{_label_block(labels)} "
                    f"{_format_value(float(entry['value']))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_labels(block: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    n = len(block)
    while i < n:
        eq = block.index("=", i)
        key = block[i:eq].strip().lstrip(",").strip()
        i = eq + 1
        if block[i] != '"':
            raise ValueError(f"unquoted label value in {block!r}")
        i += 1
        out: List[str] = []
        while i < n:
            ch = block[i]
            if ch == "\\":
                nxt = block[i + 1]
                out.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt)
                )
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                out.append(ch)
                i += 1
        labels[key] = "".join(out)
        while i < n and block[i] in ", ":
            i += 1
    return labels


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Read the exposition format back: the round-trip counterpart.

    Returns ``{name: {"kind": ..., "help": ..., "samples": [...]}}``
    where each sample is ``{"name": ..., "labels": {...}, "value":
    ...}`` (histogram ``_bucket``/``_sum``/``_count`` samples attach to
    their base family).  Raises ``ValueError`` on malformed lines.
    """
    families: Dict[str, Any] = {}

    def family_for(sample_name: str) -> Dict[str, Any]:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)]
            if (
                sample_name.endswith(suffix)
                and trimmed in families
                and families[trimmed]["kind"] == "histogram"
            ):
                base = trimmed
                break
        return families.setdefault(
            base, {"kind": "untyped", "help": "", "samples": []}
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            entry = families.setdefault(
                name, {"kind": "untyped", "help": "", "samples": []}
            )
            entry["help"] = help_text.replace("\\n", "\n").replace(
                "\\\\", "\\"
            )
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            entry = families.setdefault(
                name, {"kind": "untyped", "help": "", "samples": []}
            )
            entry["kind"] = kind.strip()
        elif line.startswith("#"):
            continue
        else:
            match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$", line)
            if match is None:
                raise ValueError(f"malformed exposition line: {raw!r}")
            sample_name, label_block, value_text = match.groups()
            labels = (
                _parse_labels(label_block[1:-1]) if label_block else {}
            )
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
            family_for(sample_name)["samples"].append(
                {"name": sample_name, "labels": labels, "value": value}
            )
    return families


def _is_registry_snapshot(data: Mapping[str, Any]) -> bool:
    return bool(data) and all(
        isinstance(value, Mapping) and "kind" in value and "series" in value
        for value in data.values()
    )


def coerce_snapshot(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize any snapshot-bearing JSON payload to registry form.

    Accepts, in order of preference:

    * a registry snapshot itself (:meth:`MetricsRegistry.snapshot`);
    * any dict with a ``"metrics"`` key holding one (run and sweep
      manifests) — applied recursively;
    * a flat numeric mapping (the per-run summary embedded in a
      :class:`~repro.obs.manifest.RunManifest`), which is synthesized
      into gauges named ``repro_manifest_<key>``.

    Raises ``ValueError`` for anything else.
    """
    if _is_registry_snapshot(data):
        return {name: dict(family) for name, family in data.items()}
    inner = data.get("metrics")
    if isinstance(inner, Mapping):
        return coerce_snapshot(inner)
    if data and all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in data.values()
    ):
        out: Dict[str, Any] = {}
        for key in sorted(data):
            name = f"repro_manifest_{key}"
            if not _NAME_RE.match(name):
                raise ValueError(f"cannot map {key!r} to a metric name")
            out[name] = {
                "kind": "gauge",
                "help": f"run-manifest summary field {key}",
                "label_names": [],
                "series": [{"labels": {}, "value": float(data[key])}],
            }
        return out
    raise ValueError("payload holds no recognizable metrics snapshot")

