"""repro — a reproduction of Reich & Chaintreau, "The Age of Impatience:
Optimal Replication Schemes for Opportunistic Networks" (CoNEXT 2009).

The library implements the paper's entire system from scratch:

* :mod:`repro.utility` — delay-utility (impatience) models and the
  Table-1 transforms ``c``, ``phi``, ``psi``;
* :mod:`repro.demand` — content popularity and request arrivals;
* :mod:`repro.contacts` — contact traces: containers, I/O, statistics,
  Poisson/slotted generators, and synthetic conference/vehicular traces;
* :mod:`repro.mobility` — random-waypoint mobility and proximity contact
  extraction (the vehicular substrate);
* :mod:`repro.allocation` — social welfare and the optimal-allocation
  solvers (Theorems 1-2, Property 1, Eq. 7 dynamics);
* :mod:`repro.protocols` — Query Counting Replication with Mandate
  Routing, plus every fixed-allocation competitor;
* :mod:`repro.sim` — the discrete-event opportunistic-caching simulator;
* :mod:`repro.experiments` — scenarios and the harness regenerating every
  table and figure of the paper's evaluation.

Quickstart::

    from repro import (
        DemandModel, StepUtility, homogeneous_poisson_trace,
        generate_requests, SimulationConfig, simulate, QCR,
    )

    demand = DemandModel.pareto(50, omega=1.0, total_rate=4.0)
    trace = homogeneous_poisson_trace(50, rate=0.05, duration=2000, seed=1)
    requests = generate_requests(demand, 50, trace.duration, seed=2)
    config = SimulationConfig(n_items=50, rho=5, utility=StepUtility(10.0))
    result = simulate(trace, requests, config, QCR(config.utility, 0.05))
    print(result.gain_rate, result.fulfillment_ratio)
"""

from .allocation import (
    greedy_heterogeneous,
    greedy_homogeneous,
    heterogeneous_welfare,
    homogeneous_welfare,
    solve_relaxed,
)
from .contacts import (
    ContactTrace,
    heterogeneous_poisson_trace,
    homogeneous_poisson_trace,
)
from .demand import DemandModel, RequestSchedule, generate_requests
from .errors import (
    AllocationError,
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceFormatError,
    UtilityDomainError,
)
from .protocols import (
    QCR,
    PassiveReplication,
    QCRConfig,
    StaticAllocation,
    dom_protocol,
    opt_protocol,
    prop_protocol,
    sqrt_protocol,
    uni_protocol,
)
from .sim import Simulation, SimulationConfig, SimulationResult, simulate
from .utility import (
    DelayUtility,
    ExponentialUtility,
    MixtureUtility,
    NegLogUtility,
    PowerUtility,
    StepUtility,
    TabulatedUtility,
    power_family,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # utilities
    "DelayUtility",
    "StepUtility",
    "ExponentialUtility",
    "PowerUtility",
    "NegLogUtility",
    "MixtureUtility",
    "TabulatedUtility",
    "power_family",
    # demand
    "DemandModel",
    "RequestSchedule",
    "generate_requests",
    # contacts
    "ContactTrace",
    "homogeneous_poisson_trace",
    "heterogeneous_poisson_trace",
    # allocation
    "homogeneous_welfare",
    "heterogeneous_welfare",
    "greedy_homogeneous",
    "greedy_heterogeneous",
    "solve_relaxed",
    # protocols
    "QCR",
    "QCRConfig",
    "PassiveReplication",
    "StaticAllocation",
    "uni_protocol",
    "sqrt_protocol",
    "prop_protocol",
    "dom_protocol",
    "opt_protocol",
    # simulator
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    # errors
    "ReproError",
    "ConfigurationError",
    "TraceFormatError",
    "AllocationError",
    "UtilityDomainError",
    "SimulationError",
]
