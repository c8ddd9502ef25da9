"""Trial-scoped shared artifacts: realize once, reuse per protocol.

A sweep compares P protocols over the *same* realized trial — the same
contact trace and request schedule.  Three per-trial
quantities are pure functions of those inputs and would otherwise be
recomputed once per protocol:

* the **content fingerprints** the simcache key hashes (the trace hash
  is a full sha256 pass over every column — by far the dominant cache
  probe cost);
* the **merged event stream** (the stable lexsort interleaving of
  contacts and requests, plus the plain-mode payload columns);
* the **realized trace and requests themselves**.

:class:`TrialArtifacts` carries all three with memoization: build it
once per trial, hand it to every protocol's run, and each quantity is
computed at most once.  Results stay bit-identical by construction: the
fingerprints substitute string-equal values into the same key
derivation, and the engine validates a prebuilt stream against the
run's own objects before trusting it.

A trial whose trace comes from a :class:`TraceRecipe` goes one step
further: its trace is keyed by the recipe and seed, and realized only
when a run actually simulates, so a sweep whose every run hits the run
cache never realizes a trace at all.  A sweep trial's requests are
handled the same way, keyed by their
:class:`~repro.experiments.runner.RequestRecipe` and seed.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Protocol, Tuple

from ..contacts import ContactTrace
from ..demand import RequestSchedule
from ..errors import ConfigurationError
from ..sim.config import SimulationConfig
from ..sim.events import EventStream, build_event_stream
from ..simcache import (
    fingerprint_request_recipe,
    fingerprint_requests,
    fingerprint_trace,
    fingerprint_trace_recipe,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (runner imports us)
    from .runner import RequestRecipe, RequestSource

__all__ = [
    "TraceRecipe",
    "TraceShape",
    "TrialArtifacts",
]


class TraceShape(Protocol):
    """What protocol factories and request generation read of a trace.

    A :class:`~repro.contacts.ContactTrace` satisfies it, and so does a
    :class:`TraceRecipe`, which declares its shape without realizing.
    """

    @property
    def n_nodes(self) -> int: ...

    @property
    def duration(self) -> float: ...


class TraceRecipe(abc.ABC):
    """A seeded trace generator described by value.

    Subclasses are frozen, value-equal dataclasses of generator
    parameters: ``recipe(seed)`` realizes the trace, and ``n_nodes`` /
    ``duration`` declare its shape without realizing it.  A sweep keys
    such a trial's trace by :func:`~repro.simcache.fingerprint_trace_recipe`
    instead of the content hash, so two equal recipes share run-cache
    entries across processes.
    """

    if TYPE_CHECKING:  # pragma: no cover - fields or properties of subclasses

        @property
        def n_nodes(self) -> int: ...

        @property
        def duration(self) -> float: ...

    @abc.abstractmethod
    def __call__(self, seed: int) -> ContactTrace:
        """Realize the trace for *seed*."""


class TrialArtifacts:
    """One trial's shared inputs plus memoized derived artifacts.

    *trace*, *requests* and *sim_seed* are the trial's shared
    randomness.

    With a *recipe* and its *trace_seed*, the trial's trace fingerprint
    is the recipe's rather than a content hash, so keying never needs
    the trace, and *trace* may be ``None``: it is then
    ``recipe(trace_seed)``, realized on first access of :attr:`trace`.
    A trace that differs from the shape the recipe declares raises
    :class:`~repro.errors.ConfigurationError`.  A *request_recipe* and
    its *request_seed* do the same for *requests*.

    Memoization is per-instance and lazy: nothing is computed until a
    consumer asks, and each artifact is computed at most once.
    """

    __slots__ = (
        "_trace",
        "_recipe",
        "_trace_seed",
        "_requests",
        "_request_recipe",
        "_request_seed",
        "sim_seed",
        "_trace_fp",
        "_requests_fp",
        "_config_fp",
        "_stream",
    )

    def __init__(
        self,
        trace: Optional[ContactTrace],
        requests: Optional[RequestSchedule],
        sim_seed: int,
        *,
        recipe: Optional[TraceRecipe] = None,
        trace_seed: int = 0,
        request_recipe: Optional["RequestRecipe"] = None,
        request_seed: int = 0,
    ) -> None:
        if trace is None and recipe is None:
            raise ConfigurationError("TrialArtifacts needs a trace or a recipe")
        if requests is None and request_recipe is None:
            raise ConfigurationError(
                "TrialArtifacts needs requests or a request recipe"
            )
        self._recipe = recipe
        self._trace_seed = trace_seed
        self._trace = None if trace is None else self._checked(trace)
        self._request_recipe = request_recipe
        self._request_seed = request_seed
        self._requests = requests
        self.sim_seed = sim_seed
        self._trace_fp: Optional[str] = None
        self._requests_fp: Optional[str] = None
        self._config_fp: Optional[Tuple[SimulationConfig, str]] = None
        self._stream: Optional[EventStream] = None

    @property
    def trace(self) -> ContactTrace:
        """The trial's contact trace, realized on first access."""
        if self._trace is None:
            assert self._recipe is not None
            self._trace = self._checked(self._recipe(self._trace_seed))
        return self._trace

    @property
    def requests(self) -> RequestSchedule:
        """The trial's request schedule, generated on first access."""
        if self._requests is None:
            assert self._request_recipe is not None
            self._requests = self._request_recipe(self._request_seed)
        return self._requests

    @property
    def shape(self) -> TraceShape:
        """What protocol factories see: the recipe when there is one, so
        building a protocol never realizes the trace."""
        if self._recipe is not None:
            return self._recipe
        return self.trace

    @property
    def request_source(self) -> "RequestSource":
        """What protocol factories get for the requests: the recipe when
        there is one, so building a protocol never generates them."""
        if self._request_recipe is not None:
            return self._request_recipe
        return self.requests

    def _checked(self, trace: ContactTrace) -> ContactTrace:
        recipe = self._recipe
        if recipe is not None and (
            trace.n_nodes != recipe.n_nodes
            or trace.duration != recipe.duration
        ):
            raise ConfigurationError(
                f"{recipe!r} declares {recipe.n_nodes} nodes over "
                f"{recipe.duration!r} but realized {trace.n_nodes} nodes "
                f"over {trace.duration!r} for seed {self._trace_seed}"
            )
        return trace

    def trace_fingerprint(self) -> str:
        """Memoized trace key: :func:`~repro.simcache.fingerprint_trace_recipe`
        for a recipe, else :func:`~repro.simcache.fingerprint_trace`."""
        if self._trace_fp is None:
            if self._recipe is not None:
                self._trace_fp = fingerprint_trace_recipe(
                    self._recipe, self._trace_seed
                )
            else:
                self._trace_fp = fingerprint_trace(self.trace)
        return self._trace_fp

    def requests_fingerprint(self) -> str:
        """Memoized requests key:
        :func:`~repro.simcache.fingerprint_request_recipe` for a recipe,
        else :func:`~repro.simcache.fingerprint_requests`."""
        if self._requests_fp is None:
            if self._request_recipe is not None:
                self._requests_fp = fingerprint_request_recipe(
                    self._request_recipe, self._request_seed
                )
            else:
                self._requests_fp = fingerprint_requests(self.requests)
        return self._requests_fp

    def config_fingerprint(self, config: SimulationConfig) -> str:
        """*config*'s :meth:`~repro.sim.SimulationConfig.fingerprint`,
        memoized for this trial while the same config object is passed.

        The memo lives here, not on the config: utilities are mutable
        objects, and a trial's runs share one config that nothing
        mutates while they key.
        """
        memo = self._config_fp
        if memo is None or memo[0] is not config:
            memo = (config, config.fingerprint())
            self._config_fp = memo
        return memo[1]

    def event_stream(self, config: SimulationConfig) -> EventStream:
        """The trial's merged event stream, built lazily at most once.

        The memo is keyed implicitly by the config fingerprint: a
        second call with an equivalent config reuses the stream, a
        different config rebuilds it (sweeps use one config, so this
        never triggers there).
        """
        stream = self._stream
        if (
            stream is None
            or stream.config_fingerprint != config.fingerprint()
        ):
            stream = build_event_stream(self.trace, self.requests, config)
            self._stream = stream
        return stream
