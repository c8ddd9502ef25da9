"""Evaluation scenarios (Section 6) and protocol suites.

Three scenario builders mirror the paper's three evaluation settings:

* :func:`homogeneous_scenario` — 50 nodes meeting pairwise at Poisson rate
  ``mu = 0.05`` (Section 6.2);
* :func:`conference_scenario` — the Infocom '06-like synthetic trace, with
  optional memoryless controls (Section 6.3 / Figure 5);
* :func:`vehicular_scenario` — the Cabspotting-like synthetic trace
  (Section 6.3 / Figure 6).

Each returns a :class:`Scenario` bundling a trace recipe
(:class:`PoissonTraces`, :class:`ConferenceTraces` or
:class:`VehicularTraces`: value-equal generator parameters, realized per
trial seed), demand, and simulation config; :func:`standard_protocols`
attaches the paper's algorithm suite (OPT / QCR / QCRWOM / SQRT / PROP /
UNI / DOM), with OPT switching automatically between the Theorem-2
greedy (homogeneous) and the submodular lazy greedy on trace-estimated
rates (heterogeneous).
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Union

import numpy as np

from ..allocation import HeterogeneousProblem, greedy_heterogeneous, submodular
from ..contacts import ContactTrace, homogeneous_poisson_trace, pair_rate_matrix
from ..contacts.synthetic import (
    ConferenceTraceConfig,
    VehicularTraceConfig,
    conference_trace,
    homogenized_poisson,
    rate_matched_poisson,
    vehicular_trace,
)
from ..demand import DemandModel
from ..durable import PathLike
from ..errors import ConfigurationError
from ..protocols import (
    QCR,
    QCRConfig,
    StaticAllocation,
    dom_protocol,
    opt_protocol,
    prop_protocol,
    sqrt_protocol,
    uni_protocol,
)
from ..sim import SimulationConfig
from ..utility import DelayUtility
from .artifacts import TraceRecipe, TraceShape
from .runner import (
    ComparisonResult,
    ProgressLike,
    ProtocolFactory,
    RequestSource,
    RunCacheLike,
    run_comparison,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dist.executors import ExecutorLike
    from ..sim import Simulation

__all__ = [
    "ConferenceTraces",
    "PoissonTraces",
    "Scenario",
    "VehicularTraces",
    "homogeneous_scenario",
    "conference_scenario",
    "vehicular_scenario",
    "default_qcr_config",
    "standard_protocols",
    "run_scenario",
]

#: The paper's simulation defaults (Section 6.1/6.2).
N_NODES = 50
N_ITEMS = 50
RHO = 5
MU = 0.05
PARETO_OMEGA = 1.0
#: System-wide request rate (requests per minute); the paper does not
#: state its value — this yields ~one request per node per 12 minutes.
TOTAL_DEMAND = 4.0


@dataclass(frozen=True)
class PoissonTraces(TraceRecipe):
    """Homogeneous Poisson contacts: every pair meets at rate ``mu``."""

    n_nodes: int
    mu: float
    duration: float

    def __call__(self, seed: int) -> ContactTrace:
        # Generators are looked up as module globals per call, so a
        # probe that patches them here sees every realization.
        return homogeneous_poisson_trace(
            self.n_nodes, self.mu, self.duration, seed=seed
        )


_VARIANTS = ("actual", "synthesized", "rate_matched")


@dataclass(frozen=True)
class _SyntheticTraces(TraceRecipe):
    """A synthetic trace generator and its memoryless control variant.

    ``"actual"`` is the generator's trace; ``"synthesized"`` (identical
    pair rates, memoryless) and ``"rate_matched"`` (heterogeneous rates
    kept, memoryless) are drawn from it on an independent child seed.
    """

    config: Union[ConferenceTraceConfig, VehicularTraceConfig]
    variant: str = "actual"

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ConfigurationError(
                f"unknown {type(self).__name__} variant {self.variant!r}"
            )

    @abc.abstractmethod
    def _generate(self, seed: int) -> ContactTrace:
        """The generator's own trace for *seed*."""

    def __call__(self, seed: int) -> ContactTrace:
        seq = np.random.SeedSequence(seed)
        gen_seed, control_seed = (
            int(s.generate_state(1)[0]) for s in seq.spawn(2)
        )
        trace = self._generate(gen_seed)
        if self.variant == "synthesized":
            return homogenized_poisson(trace, seed=control_seed)
        if self.variant == "rate_matched":
            return rate_matched_poisson(trace, seed=control_seed)
        return trace


@dataclass(frozen=True)
class ConferenceTraces(_SyntheticTraces):
    """The Infocom'06-like conference trace (or a control of it)."""

    config: ConferenceTraceConfig = ConferenceTraceConfig()

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def duration(self) -> float:
        return self.config.duration

    def _generate(self, seed: int) -> ContactTrace:
        return conference_trace(self.config, seed=seed)


@dataclass(frozen=True)
class VehicularTraces(_SyntheticTraces):
    """The Cabspotting-like vehicular trace (or a control of it)."""

    config: VehicularTraceConfig = VehicularTraceConfig()

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def duration(self) -> float:
        return self.config.trace_duration

    def _generate(self, seed: int) -> ContactTrace:
        return vehicular_trace(self.config, seed=seed)


@dataclass(frozen=True)
class Scenario:
    """A ready-to-run evaluation setting."""

    name: str
    trace_factory: Callable[[int], ContactTrace]
    demand: DemandModel
    config: SimulationConfig
    #: Meeting-rate constant handed to QCR and the homogeneous OPT.
    mu_estimate: float
    #: Whether OPT should use the trace-estimated heterogeneous greedy.
    heterogeneous: bool
    n_nodes: int = N_NODES

    def with_utility(self, utility: DelayUtility) -> "Scenario":
        """A copy of the scenario evaluating a different delay-utility."""
        return replace(self, config=replace(self.config, utility=utility))


def _base_config(
    utility: DelayUtility,
    *,
    n_items: int,
    rho: int,
    record_interval: Optional[float],
    window_length: float,
) -> SimulationConfig:
    return SimulationConfig(
        n_items=n_items,
        rho=rho,
        utility=utility,
        record_interval=record_interval,
        window_length=window_length,
        track_items=tuple(range(min(5, n_items))),
    )


def homogeneous_scenario(
    utility: DelayUtility,
    *,
    n_nodes: int = N_NODES,
    n_items: int = N_ITEMS,
    rho: int = RHO,
    mu: float = MU,
    duration: float = 5000.0,
    total_demand: float = TOTAL_DEMAND,
    omega: float = PARETO_OMEGA,
    record_interval: Optional[float] = 250.0,
    window_length: float = 60.0,
) -> Scenario:
    """The Section-6.2 homogeneous pure-P2P setting."""
    demand = DemandModel.pareto(n_items, omega=omega, total_rate=total_demand)
    return Scenario(
        name="homogeneous",
        trace_factory=PoissonTraces(n_nodes, mu, duration),
        demand=demand,
        config=_base_config(
            utility,
            n_items=n_items,
            rho=rho,
            record_interval=record_interval,
            window_length=window_length,
        ),
        mu_estimate=mu,
        heterogeneous=False,
        n_nodes=n_nodes,
    )


def conference_scenario(
    utility: DelayUtility,
    *,
    trace_config: ConferenceTraceConfig = ConferenceTraceConfig(),
    variant: str = "actual",
    rho: int = RHO,
    n_items: int = N_ITEMS,
    total_demand: float = TOTAL_DEMAND,
    omega: float = PARETO_OMEGA,
    record_interval: Optional[float] = 250.0,
    window_length: float = 60.0,
) -> Scenario:
    """The Infocom'06-like conference setting (Section 6.3, Figure 5).

    ``variant`` selects the trace: ``"actual"`` (heterogeneous + bursty +
    diurnal), ``"synthesized"`` (the paper's Fig. 5(c) control: identical
    pair rates, memoryless), or ``"rate_matched"`` (heterogeneous rates
    preserved, memoryless times).
    """
    traces = ConferenceTraces(trace_config, variant)
    demand = DemandModel.pareto(n_items, omega=omega, total_rate=total_demand)
    mean_rate = trace_config.mean_pair_rate
    return Scenario(
        name=f"conference[{variant}]",
        trace_factory=traces,
        demand=demand,
        config=_base_config(
            utility,
            n_items=n_items,
            rho=rho,
            record_interval=record_interval,
            window_length=window_length,
        ),
        mu_estimate=mean_rate,
        heterogeneous=True,
        n_nodes=trace_config.n_nodes,
    )


def vehicular_scenario(
    utility: DelayUtility,
    *,
    trace_config: VehicularTraceConfig = VehicularTraceConfig(),
    variant: str = "actual",
    rho: int = RHO,
    n_items: int = N_ITEMS,
    total_demand: float = TOTAL_DEMAND,
    omega: float = PARETO_OMEGA,
    record_interval: Optional[float] = 250.0,
    window_length: float = 60.0,
) -> Scenario:
    """The Cabspotting-like vehicular setting (Section 6.3, Figure 6)."""
    traces = VehicularTraces(trace_config, variant)
    demand = DemandModel.pareto(n_items, omega=omega, total_rate=total_demand)
    return Scenario(
        name=f"vehicular[{variant}]",
        trace_factory=traces,
        demand=demand,
        config=_base_config(
            utility,
            n_items=n_items,
            rho=rho,
            record_interval=record_interval,
            window_length=window_length,
        ),
        mu_estimate=max(_vehicular_mean_rate(trace_config), 1e-6),
        heterogeneous=True,
        n_nodes=trace_config.n_nodes,
    )


@functools.lru_cache(maxsize=8)
def _vehicular_mean_rate(trace_config: VehicularTraceConfig) -> float:
    """A rough mean pair rate for QCR's constant, from the seed-0 trace.

    Memoized per (frozen) config: each Fig. 6 sweep point builds its
    scenario anew, and the probe trace costs about a second.
    """
    return vehicular_trace(trace_config, seed=0).mean_pair_rate


def default_qcr_config(
    utility: DelayUtility,
    n_servers: int = N_NODES,
    mu: float = MU,
) -> QCRConfig:
    """Reaction-function tuning used by the experiment harness.

    Property 2 fixes ``psi`` only up to a multiplicative constant.  For
    the step and exponential families ``psi`` is bounded (by ``1/e`` and
    ``1/4``), so the Table-1 constant works as-is.  The power family's
    ``psi ∝ y**(1-alpha)`` is unbounded: large query counts fire large
    replica bursts, and the resulting allocation variance is costly under
    a concave welfare.  The harness therefore scales the power-family
    reaction down and caps per-request bursts (see
    ``benchmarks/bench_ablation_variants.py`` for the supporting sweep).
    """
    # Probe the reaction at a representative query count (~2 rho, the
    # expected counter when items hold their fair cache share) and damp
    # the free Property-2 constant so a typical fulfillment creates a
    # sub-replica burst.  For the bounded step/exponential reactions this
    # keeps the Table-1 constant; for the unbounded power family it
    # shrinks as psi grows (supporting sweep:
    # benchmarks/bench_ablation_variants.py).
    target_burst = 0.15
    psi_probe = utility.psi(2.0 * RHO, n_servers, mu)
    scale = 1.0 if psi_probe <= target_burst else target_burst / psi_probe
    return QCRConfig(psi_scale=scale, max_mandates_per_request=25)


class _StaticBuild(StaticAllocation):
    """A fixed-allocation competitor held as its builder's inputs.

    UNI, SQRT, PROP and DOM depend only on demand, the server count and
    ``rho``.  The instance holds the name of its
    :mod:`repro.protocols.static` builder, those inputs and
    :data:`~repro.allocation.submodular.STATIC_CODE_VERSION`, and calls
    the builder in :meth:`initialize`.  So the run cache keys the run by
    its inputs, a cache hit computes no allocation, and the fingerprint
    is the same before and after the run (the computed counts never
    land on the instance).  Inputs are plain attributes, which the key's
    structural walk describes most cheaply.
    """

    def __init__(
        self,
        name: str,
        builder: str,
        demand: DemandModel,
        n_servers: int,
        rho: int,
    ) -> None:
        self.name = name
        self.builder = builder
        self.demand = demand
        self.n_servers = n_servers
        self.rho = rho
        self.allocation_version = submodular.STATIC_CODE_VERSION

    def build(self) -> StaticAllocation:
        """The builder's protocol.  Builders are module globals, looked
        up per call, so a probe that patches one sees every build."""
        args = (self.demand, self.n_servers, self.rho)
        if self.builder == "uni_protocol":
            return uni_protocol(*args)
        if self.builder == "sqrt_protocol":
            return sqrt_protocol(*args)
        if self.builder == "prop_protocol":
            return prop_protocol(*args)
        if self.builder == "dom_protocol":
            return dom_protocol(*args)
        raise ConfigurationError(f"unknown builder {self.builder!r}")

    def initialize(self, sim: "Simulation") -> None:
        self.build().initialize(sim)


class _HomogeneousOPT(_StaticBuild):
    """OPT under homogeneous contacts: the Theorem-2 greedy, solved by
    ``opt_protocol`` in :meth:`initialize` and keyed by its inputs."""

    def __init__(
        self,
        demand: DemandModel,
        utility: DelayUtility,
        mu: float,
        n_servers: int,
        rho: int,
        *,
        pure_p2p: bool,
        n_clients: int,
    ) -> None:
        super().__init__("OPT", "opt_protocol", demand, n_servers, rho)
        self.utility = utility
        self.mu = mu
        self.pure_p2p = pure_p2p
        self.n_clients = n_clients

    def build(self) -> StaticAllocation:
        return opt_protocol(
            self.demand,
            self.utility,
            self.mu,
            self.n_servers,
            self.rho,
            pure_p2p=self.pure_p2p,
            n_clients=self.n_clients,
        )


class _TraceOPT(StaticAllocation):
    """OPT on a trace: the lazy greedy (Theorem 1) on its pair rates.

    The instance holds the allocation problem minus its rate matrix and,
    in :meth:`initialize`, estimates the pair rates of the run's trace
    and solves.  So the run cache keys the run by the problem's other
    inputs plus :data:`~repro.allocation.submodular.GREEDY_CODE_VERSION`
    (the trace leg of the key covers the rates), and a cache hit neither
    realizes the trace nor solves.
    """

    def __init__(
        self,
        demand: DemandModel,
        utility: DelayUtility,
        rho: int,
        server_of_client: Optional[np.ndarray],
        rate_floor: float,
    ) -> None:
        self.demand = demand
        self.utility = utility
        self.rho = rho
        self.server_of_client = server_of_client
        self.rate_floor = rate_floor
        self.solver_version = submodular.GREEDY_CODE_VERSION
        self.name = "OPT"

    def initialize(self, sim: "Simulation") -> None:
        # Module globals, looked up per call, so a probe that patches
        # ``scenarios.pair_rate_matrix`` or ``greedy_heterogeneous``
        # sees every call.
        problem = HeterogeneousProblem(
            demand=self.demand,
            utility=self.utility,
            rate_matrix=pair_rate_matrix(sim.trace),
            rho=self.rho,
            server_of_client=self.server_of_client,
            rate_floor=self.rate_floor,
        )
        result = greedy_heterogeneous(problem)
        sim.set_initial_allocation(result.allocation)


#: The closed-form competitors' builders, by protocol name; each takes
#: ``(demand, n_servers, rho)``.
_FIXED_BUILDERS = {
    "UNI": "uni_protocol",
    "SQRT": "sqrt_protocol",
    "PROP": "prop_protocol",
    "DOM": "dom_protocol",
}


def standard_protocols(
    scenario: Scenario,
    *,
    qcr_config: Optional[QCRConfig] = None,
    include: Sequence[str] = ("OPT", "QCR", "SQRT", "PROP", "UNI", "DOM"),
    rate_floor: Optional[float] = None,
) -> Dict[str, ProtocolFactory]:
    """Build the paper's algorithm suite for *scenario*.

    ``include`` may also name ``"QCRWOM"`` (no mandate routing) and
    ``"PASSIVE"``.  *rate_floor* regularizes the heterogeneous OPT greedy
    for unbounded-cost utilities on sparse traces (default:
    one-over-trace-duration).
    """
    demand = scenario.demand
    utility = scenario.config.utility
    rho = scenario.config.rho
    qcr_cfg = qcr_config or default_qcr_config(
        utility, scenario.n_nodes, scenario.mu_estimate
    )

    def make_opt(trace: TraceShape, _req: RequestSource):
        if not scenario.heterogeneous:
            return _HomogeneousOPT(
                demand,
                utility,
                scenario.mu_estimate,
                trace.n_nodes,
                rho,
                pure_p2p=utility.finite_at_zero,
                n_clients=trace.n_nodes,
            )
        floor = rate_floor
        if floor is None:
            # A floor is needed whenever a zero fulfillment rate has
            # infinite disutility (unbounded waiting costs) — on sparse
            # traces some (item, client) rates are genuinely zero.
            unbounded = not math.isfinite(
                utility.gain_never
            ) or not utility.finite_at_zero
            floor = 1.0 / trace.duration if unbounded else 0.0
        return _TraceOPT(
            demand,
            utility,
            rho,
            np.arange(trace.n_nodes) if utility.finite_at_zero else None,
            floor,
        )

    def make_fixed(name: str) -> ProtocolFactory:
        builder = _FIXED_BUILDERS[name]
        return lambda tr, _rq: _StaticBuild(
            name, builder, demand, tr.n_nodes, rho
        )

    factories: Dict[str, ProtocolFactory] = {}
    for name in include:
        if name == "OPT":
            factories[name] = make_opt
        elif name == "QCR":
            factories[name] = lambda tr, _rq: QCR(
                utility, scenario.mu_estimate, qcr_cfg
            )
        elif name == "QCRWOM":
            factories[name] = lambda tr, _rq: QCR(
                utility,
                scenario.mu_estimate,
                replace(qcr_cfg, mandate_routing=False),
            )
        elif name == "PASSIVE":
            from ..protocols import PassiveReplication

            factories[name] = lambda tr, _rq: PassiveReplication()
        elif name in _FIXED_BUILDERS:
            factories[name] = make_fixed(name)
        else:
            raise ConfigurationError(f"unknown protocol {name!r}")
    return factories


def run_scenario(
    scenario: Scenario,
    *,
    n_trials: int = 5,
    base_seed: int = 0,
    include: Sequence[str] = ("OPT", "QCR", "SQRT", "PROP", "UNI", "DOM"),
    qcr_config: Optional[QCRConfig] = None,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
) -> ComparisonResult:
    """Run the standard comparison on *scenario*.

    *executor* selects the execution backend — serial or a fork pool of
    ``K`` workers — with bit-identical statistics; *progress* and
    *profile_dir* enable the live reporter and per-process cProfile
    dumps; *run_cache* reuses previously computed runs by content key
    (see
    :func:`repro.experiments.runner.run_comparison` and
    :mod:`repro.dist`).
    """
    return run_comparison(
        trace_factory=scenario.trace_factory,
        demand=scenario.demand,
        config=scenario.config,
        protocols=standard_protocols(
            scenario, qcr_config=qcr_config, include=include
        ),
        n_trials=n_trials,
        base_seed=base_seed,
        baseline="OPT" if "OPT" in include else include[0],
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
