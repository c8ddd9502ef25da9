"""Outside-in instrumentation of the figure pipeline, by module layer.

Nothing under ``src/`` knows it is being measured.  Every probe here
replaces a module attribute that the sweep code already looks up at
call time (a function imported into ``experiments.runner``,
``experiments.scenarios``, ``experiments.figures`` or
``experiments.artifacts``, or a ``SimulationRunCache`` method) with a
wrapper that calls the original, and :func:`instrumented` puts every
original back in ``finally``.

Two probe sets exist:

* the **counters** (``runner.simulate`` and the two sweep entry points
  of ``experiments.figures``) run in every pass.  They add one Python
  call per simulation run and per sweep point, and count the simulated
  events and the attempted and failed (trial, protocol) units that the
  figure results do not carry;
* the **layer spans** run only in the separate traced repeat.  Each
  span is kept in memory as (id, parent, name, start, end, attrs); a
  layer's self time is its span's duration minus the part covered by
  its child spans (:func:`self_times`), and :func:`layer_metrics` folds
  the spans into the per-layer numbers.  The traced ``runner.simulate``
  forwards ``manifest=True`` so the engine reports its merge/run/settle
  phases; the traced ``SimulationRunCache.put`` stores the result
  without that manifest, so the cache holds the same bytes as untraced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counters",
    "Span",
    "SpanRecorder",
    "instrumented",
    "layer_metrics",
    "patch_targets",
    "self_times",
]

#: The paper's protocol suite, as the per-protocol engine metrics name it.
SUITE = ("OPT", "QCR", "SQRT", "PROP", "UNI", "DOM")

Wrap = Callable[[Callable[..., Any]], Callable[..., Any]]


def resolve_owner(path: str) -> Any:
    """The module (``pkg.mod``) or class (``pkg.mod:Class``) at *path*."""
    module_name, _, class_name = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)


class SpanRecorder:
    """Keeps every span of one traced repeat in memory.

    The sweep runs serially in one thread, so the innermost open span
    is the parent of the next one.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        #: Wall seconds spent recording, outside every span's interval.
        self.overhead_s = 0.0

    def call(
        self,
        name: str,
        attrs: Dict[str, Any],
        fn: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Tuple[Any, Span]:
        """``fn(*args, **kwargs)`` inside a new span; returns both."""
        entered = time.perf_counter()
        span = Span(
            id=len(self.spans),
            parent=self._open[-1] if self._open else None,
            name=name,
            start=0.0,
            attrs=attrs,
        )
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self.overhead_s += (span.start - entered) + (
                time.perf_counter() - span.end
            )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = dataclasses.asdict(span)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Counters:
    """Work the figure results do not report, counted per pass."""

    #: Simulation runs executed (cache hits execute none).
    simulations: int = 0
    #: Contacts + requests over the executed runs.
    events: int = 0
    #: (trial, protocol) units the sweeps attempted, and those that failed.
    units: int = 0
    failures: int = 0


def _counter_wrappers(
    counters: Counters, recorder: Optional[SpanRecorder]
) -> Dict[Tuple[str, str], Wrap]:
    def simulate(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(trace: Any, requests: Any, config: Any, protocol: Any,
                    *args: Any, **kwargs: Any) -> Any:
            counters.simulations += 1
            counters.events += len(trace) + len(requests)
            if recorder is None:
                return original(trace, requests, config, protocol,
                                *args, **kwargs)
            attrs = {
                "protocol": protocol.name,
                "family": type(config.utility).__name__,
                "timeout": config.request_timeout is not None,
            }
            result, span = recorder.call(
                "sim.engine", attrs, original, trace, requests, config,
                protocol, *args, **dict(kwargs, manifest=True),
            )
            manifest = result.manifest or {}
            attrs["phases"] = dict(manifest.get("phases", {}))
            attrs["n_events"] = int(manifest.get("n_events", 0))
            attrs["n_expired"] = int(
                manifest.get("metrics", {}).get("n_expired", 0)
            )
            return result
        return wrapper

    def sweep(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if recorder is None:
                comparison = original(*args, **kwargs)
            else:
                comparison, _ = recorder.call(
                    "experiments.sweep", {}, original, *args, **kwargs
                )
            counters.units += len(comparison.telemetry)
            counters.failures += comparison.n_failures
            return comparison
        return wrapper

    return {
        ("repro.experiments.runner", "simulate"): simulate,
        ("repro.experiments.figures", "run_comparison"): sweep,
        ("repro.experiments.figures", "run_scenario"): sweep,
    }


def _span_wrappers(recorder: SpanRecorder) -> Dict[Tuple[str, str], Wrap]:
    def timed(
        name: str, count: Optional[Callable[[Any], Dict[str, Any]]] = None
    ) -> Wrap:
        def wrap(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result, span = recorder.call(name, {}, original,
                                             *args, **kwargs)
                if count is not None:
                    span.attrs.update(count(result))
                return result
            return wrapper
        return wrap

    def protocol_suite(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return {
                name: _traced_factory(recorder, name, factory)
                for name, factory in original(*args, **kwargs).items()
            }
        return wrapper

    def cache_get(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, key: str) -> Any:
            result, span = recorder.call("simcache.get", {}, original,
                                         self, key)
            span.attrs["hit"] = result is not None
            return result
        return wrapper

    def cache_put(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, key: str, result: Any, **kwargs: Any) -> Any:
            bare = dataclasses.replace(result, manifest=None)
            return recorder.call("simcache.put", {}, original,
                                 self, key, bare, **kwargs)[0]
        return wrapper

    def realized(trace: Any) -> Dict[str, Any]:
        return {"n_contacts": len(trace)}

    return {
        ("repro.experiments.scenarios", "homogeneous_poisson_trace"):
            timed("contacts", realized),
        ("repro.experiments.scenarios", "conference_trace"):
            timed("contacts", realized),
        ("repro.experiments.scenarios", "homogenized_poisson"):
            timed("contacts", realized),
        ("repro.experiments.runner", "generate_requests"):
            timed("demand", lambda r: {"n_requests": len(r)}),
        ("repro.experiments.scenarios", "greedy_heterogeneous"):
            timed("allocation", lambda r: {"evaluations": int(r.evaluations)}),
        ("repro.experiments.scenarios", "opt_protocol"): timed("allocation"),
        ("repro.experiments.scenarios", "standard_protocols"): protocol_suite,
        ("repro.experiments.figures", "standard_protocols"): protocol_suite,
        ("repro.experiments.artifacts", "build_event_stream"):
            timed("sim.events"),
        ("repro.experiments.runner", "run_key"): timed("simcache.key"),
        ("repro.simcache.store:SimulationRunCache", "get"): cache_get,
        ("repro.simcache.store:SimulationRunCache", "put"): cache_put,
    }


def _traced_factory(
    recorder: SpanRecorder, name: str, factory: Callable[..., Any]
) -> Callable[..., Any]:
    def wrapper(trace: Any, requests: Any) -> Any:
        return recorder.call("protocols", {"protocol": name}, factory,
                             trace, requests)[0]
    return wrapper


def _wrappers(
    counters: Counters, recorder: Optional[SpanRecorder]
) -> Dict[Tuple[str, str], Wrap]:
    wrappers = _counter_wrappers(counters, recorder)
    if recorder is not None:
        wrappers.update(_span_wrappers(recorder))
    return wrappers


def patch_targets(traced: bool) -> List[Tuple[str, str]]:
    """Every (owner path, attribute) a timed or traced pass replaces."""
    return list(_wrappers(Counters(), SpanRecorder() if traced else None))


@contextlib.contextmanager
def instrumented(
    counters: Counters, recorder: Optional[SpanRecorder] = None
) -> Iterator[None]:
    """Install the counters (and, with a *recorder*, the layer spans).

    Every replaced attribute is restored on exit, whatever the sweep
    raised.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        wrappers = _wrappers(counters, recorder)
        for (path, attr), wrap in wrappers.items():
            owner = resolve_owner(path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    recorder: SpanRecorder, traced_wall: float
) -> Dict[str, float]:
    """Fold one traced repeat's spans into the per-layer numbers.

    *traced_wall* is the wall time of the whole traced section, timed
    independently of the spans.  ``unattributed_frac`` is the share of
    it that no span's self time covers, ``trace_overhead_frac`` the
    share the recorder spent outside the spans' intervals.
    """
    spans = recorder.spans
    own = self_times(spans)
    self_s: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        self_s[span.name] = self_s.get(span.name, 0.0) + seconds

    def attr_sum(name: str, key: str) -> int:
        return sum(int(s.attrs.get(key, 0)) for s in spans if s.name == name)

    def count(name: str, **match: Any) -> int:
        return sum(
            1 for s in spans
            if s.name == name
            and all(s.attrs.get(k) == v for k, v in match.items())
        )

    engine = [s for s in spans if s.name == "sim.engine"]

    def phase(key: str, runs: List[Span]) -> float:
        return sum(float(s.attrs.get("phases", {}).get(key, 0.0)) for s in runs)

    merge_s, run_s, settle_s = (
        phase(key, engine) for key in ("merge", "run", "settle")
    )
    n_events = attr_sum("sim.engine", "n_events")
    hits = count("simcache.get", hit=True)
    misses = count("simcache.get", hit=False)
    metrics: Dict[str, float] = {
        "contacts.realize_s": self_s.get("contacts", 0.0),
        "contacts.n_contacts": attr_sum("contacts", "n_contacts"),
        "demand.generate_s": self_s.get("demand", 0.0),
        "demand.n_requests": attr_sum("demand", "n_requests"),
        "allocation.solve_s": self_s.get("allocation", 0.0),
        "allocation.n_solves": count("allocation"),
        "allocation.celf_evaluations": attr_sum("allocation", "evaluations"),
        "protocols.build_s": self_s.get("protocols", 0.0),
        "sim.events.build_s": self_s.get("sim.events", 0.0),
        "sim.events.n_builds": count("sim.events"),
        "sim.engine.init_s": (
            self_s.get("sim.engine", 0.0) - merge_s - run_s - settle_s
        ),
        "sim.engine.merge_s": merge_s,
        "sim.engine.run_s": run_s,
        "sim.engine.settle_s": settle_s,
        "sim.engine.n_runs": len(engine),
        "sim.engine.n_events": n_events,
        "sim.engine.events_per_s": n_events / run_s if run_s > 0 else 0.0,
        "sim.engine.n_expired": attr_sum("sim.engine", "n_expired"),
    }
    for name in SUITE:
        metrics[f"sim.engine.run_s.{name}"] = phase(
            "run", [s for s in engine if s.attrs.get("protocol") == name]
        )
    metrics["sim.engine.run_s.timeout"] = phase(
        "run", [s for s in engine if s.attrs.get("timeout")]
    )
    metrics["sim.engine.run_s.no_timeout"] = phase(
        "run", [s for s in engine if not s.attrs.get("timeout")]
    )
    metrics.update({
        "simcache.key_s": self_s.get("simcache.key", 0.0),
        "simcache.get_s": self_s.get("simcache.get", 0.0),
        "simcache.put_s": self_s.get("simcache.put", 0.0),
        "simcache.n_hits": hits,
        "simcache.n_misses": misses,
        "simcache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "experiments.sweep_self_s": self_s.get("experiments.sweep", 0.0),
        "experiments.figure_self_s": self_s.get("experiments.figure", 0.0),
        "unattributed_frac": (traced_wall - sum(own)) / traced_wall,
        "trace_overhead_frac": recorder.overhead_s / traced_wall,
    })
    return metrics
