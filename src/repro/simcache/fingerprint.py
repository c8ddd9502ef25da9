"""Content-key derivation for the simulation run cache.

The key must change whenever anything that can change the simulation
output changes, and must be stable across processes and hosts otherwise.
Array inputs are hashed by dtype/shape/bytes; scalars by exact ``repr``
(floats round-trip); protocol instances by a structural walk over their
attributes.  Anything the walk cannot prove stable (callables, open
files, unknown extension types) raises :class:`UncacheableRunError`, and
the caller runs uncached — correctness is never traded for a hit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
from typing import Any, Optional

import numpy as np

from ..contacts import ContactTrace
from ..demand import RequestSchedule
from ..errors import ReproError
from ..protocols.base import ReplicationProtocol
from ..sim.config import SimulationConfig

__all__ = [
    "UncacheableRunError",
    "fingerprint_protocol",
    "fingerprint_request_recipe",
    "fingerprint_requests",
    "fingerprint_trace",
    "fingerprint_trace_recipe",
    "run_key",
]

#: Recursion bound for the structural protocol walk; protocols that nest
#: deeper than this are treated as uncacheable rather than guessed at.
_MAX_DEPTH = 12


class UncacheableRunError(ReproError):
    """The run's inputs cannot be fingerprinted reliably.

    Raised when the structural walk meets state with no stable content
    representation (a callable, an unrecognized extension type, or
    pathological nesting).  Callers should fall back to running the
    simulation uncached.
    """


#: Elements hashed per block; bounds the temporary bytes copy of a column.
_HASH_BLOCK = 1 << 22


def _hash_array(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode("utf-8"))
    digest.update(str(array.shape).encode("utf-8"))
    if array.ndim == 1:
        # Feed the digest block-wise: sha256 over concatenated updates
        # equals sha256 over the whole buffer, so the hash is unchanged,
        # but no more than one block is ever copied at once.
        for start in range(0, len(array), _HASH_BLOCK):
            block = np.ascontiguousarray(array[start : start + _HASH_BLOCK])
            digest.update(block.tobytes())
    else:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _describe(value: Any, depth: int = 0) -> Any:
    """A JSON-ready, content-stable description of *value*.

    Covers the state actually found on protocol instances: primitives,
    containers, dataclasses, numpy scalars/arrays, and plain objects
    (``__dict__`` or ``__slots__``).  Everything else is uncacheable.
    """
    if depth > _MAX_DEPTH:
        raise UncacheableRunError(
            f"protocol state nests deeper than {_MAX_DEPTH} levels"
        )
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return repr(value.item())
    if isinstance(value, np.ndarray):
        return {"__ndarray__": _hash_array(value)}
    if isinstance(value, (list, tuple)):
        return [_describe(item, depth + 1) for item in value]
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                json.dumps(_describe(item, depth + 1), sort_keys=True)
                for item in value
            )
        }
    if isinstance(value, dict):
        return {
            "__dict__": sorted(
                (
                    json.dumps(_describe(key, depth + 1), sort_keys=True),
                    _describe(item, depth + 1),
                )
                for key, item in value.items()
            )
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            "fields": {
                spec.name: _describe(getattr(value, spec.name), depth + 1)
                for spec in dataclasses.fields(value)
            },
        }
    attrs = _instance_attrs(value)
    if attrs is not None:
        return {
            "__object__": f"{type(value).__module__}.{type(value).__qualname__}",
            "attrs": {
                name: _describe(item, depth + 1)
                for name, item in sorted(attrs.items())
            },
        }
    raise UncacheableRunError(
        f"cannot fingerprint {type(value).__module__}."
        f"{type(value).__qualname__} instances"
    )


def _instance_attrs(value: Any) -> Optional[dict]:
    """Instance attributes of a plain object, or ``None`` if opaque.

    Bare functions, lambdas, and bound methods are rejected outright:
    their behavior is not captured by their attributes.  (Objects that
    merely *define* ``__call__`` — the delay-utilities — are fine: their
    behavior is fully determined by their parameters.)
    """
    if isinstance(
        value,
        (
            types.FunctionType,
            types.LambdaType,
            types.MethodType,
            types.BuiltinFunctionType,
            types.BuiltinMethodType,
        ),
    ):
        return None
    attrs: dict = {}
    instance_dict = getattr(value, "__dict__", None)
    if isinstance(instance_dict, dict):
        attrs.update(instance_dict)
    for klass in type(value).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name.startswith("__") or name in attrs:
                continue
            if hasattr(value, name):
                attrs[name] = getattr(value, name)
    if not attrs and instance_dict is None:
        return None
    return attrs


def fingerprint_trace(trace: ContactTrace) -> str:
    """Content hash of a realized contact trace."""
    digest = hashlib.sha256()
    digest.update(_hash_array(np.asarray(trace.times)).encode("utf-8"))
    digest.update(_hash_array(np.asarray(trace.node_a)).encode("utf-8"))
    digest.update(_hash_array(np.asarray(trace.node_b)).encode("utf-8"))
    digest.update(f"{trace.n_nodes}:{trace.duration!r}".encode("utf-8"))
    return digest.hexdigest()


def _fingerprint_recipe(recipe: Any, seed: int, versions: dict) -> str:
    """sha256 of a recipe's structural description, its seed, the given
    code *versions* and numpy's version (every generator draws from
    numpy's random streams)."""
    payload = json.dumps(
        {
            "recipe": _describe(recipe),
            "seed": int(seed),
            **versions,
            "numpy": np.__version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_trace_recipe(recipe: Any, seed: int) -> str:
    """Key of the trace a value-equal *recipe* realizes from *seed*.

    Stands in for :func:`fingerprint_trace` without realizing anything:
    it hashes the recipe's structural description, the seed,
    :data:`repro.contacts.TRACE_CODE_VERSION` and numpy's version (the
    generators draw from numpy's random streams).  Raises
    :class:`UncacheableRunError` when the recipe holds state the
    structural walk cannot describe.
    """
    # Read dynamically so a version bump (or a test monkeypatching it)
    # is picked up by every subsequent key.
    from .. import contacts

    return _fingerprint_recipe(
        recipe, seed, {"trace_version": str(contacts.TRACE_CODE_VERSION)}
    )


def fingerprint_request_recipe(recipe: Any, seed: int) -> str:
    """Key of the request schedule a value-equal *recipe* realizes from
    *seed*.

    Stands in for :func:`fingerprint_requests` without generating: it
    hashes the recipe's structural description (demand rates, client
    count, horizon), the seed,
    :data:`repro.demand.REQUEST_CODE_VERSION` and numpy's version.
    """
    from .. import demand

    return _fingerprint_recipe(
        recipe, seed, {"request_version": str(demand.REQUEST_CODE_VERSION)}
    )


def fingerprint_requests(requests: RequestSchedule) -> str:
    """Content hash of a realized request schedule."""
    digest = hashlib.sha256()
    digest.update(_hash_array(np.asarray(requests.times)).encode("utf-8"))
    digest.update(_hash_array(np.asarray(requests.items)).encode("utf-8"))
    digest.update(_hash_array(np.asarray(requests.nodes)).encode("utf-8"))
    digest.update(repr(requests.duration).encode("utf-8"))
    return digest.hexdigest()


def fingerprint_protocol(protocol: ReplicationProtocol) -> str:
    """Structural content hash of a freshly built protocol instance.

    The hash covers the instance's attributes, so a protocol keyed by
    its inputs must hold only those, never state it computes from them.
    The paper's static competitors do: trace OPT holds its allocation
    problem minus the rates, and UNI, SQRT, PROP, DOM and homogeneous
    OPT their builder's name and inputs
    (:func:`repro.experiments.standard_protocols`), each with the
    version of the code that turns them into an allocation.  They
    compute the allocation in ``initialize``, so a run-cache hit
    computes none, and the hash is the same before and after the run.

    Raises :class:`UncacheableRunError` when the instance holds state
    with no stable representation.
    """
    payload = json.dumps(
        {"name": protocol.name, "state": _describe(protocol)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _engine_code_version() -> str:
    # Imported lazily and read dynamically so a version bump (or a test
    # monkeypatching it) is picked up by every subsequent key.
    from ..sim import engine

    return str(engine.ENGINE_CODE_VERSION)


def run_key(
    config: SimulationConfig,
    protocol: ReplicationProtocol,
    sim_seed: int,
    trace: Optional[ContactTrace],
    requests: Optional[RequestSchedule],
    *,
    config_fingerprint: Optional[str] = None,
    trace_fingerprint: Optional[str] = None,
    requests_fingerprint: Optional[str] = None,
) -> str:
    """The content key of one simulation run.

    Any change to the configuration, the realized inputs, the protocol's
    parameterization, the seed, or the engine code version
    yields a different key.

    The ``*_fingerprint`` keywords accept memoized values of
    :meth:`SimulationConfig.fingerprint` / :func:`fingerprint_trace` /
    :func:`fingerprint_requests` over the *same* inputs, substituting
    byte-identically for the inline hash passes.  A sweep computes each
    trial's content hashes once and probes the cache for every protocol
    with them — the trace hash (by far the dominant cost) would
    otherwise be repeated per protocol.  Callers are responsible for
    the memo matching the passed objects; the sweep runner's
    trial-scoped :class:`~repro.experiments.artifacts.TrialArtifacts`
    guarantees it by construction.  With a *trace_fingerprint* (the
    content hash or :func:`fingerprint_trace_recipe`) *trace* may be
    ``None``, so a trial keyed by its recipe never realizes its trace;
    likewise *requests* with a *requests_fingerprint* (the content hash
    or :func:`fingerprint_request_recipe`).
    """
    if trace_fingerprint is None:
        if trace is None:
            raise ValueError("run_key needs a trace or a trace_fingerprint")
        trace_fingerprint = fingerprint_trace(trace)
    if requests_fingerprint is None:
        if requests is None:
            raise ValueError(
                "run_key needs requests or a requests_fingerprint"
            )
        requests_fingerprint = fingerprint_requests(requests)
    payload = json.dumps(
        {
            "engine_version": _engine_code_version(),
            "config": (
                config_fingerprint
                if config_fingerprint is not None
                else config.fingerprint()
            ),
            "sim_seed": int(sim_seed),
            "trace": trace_fingerprint,
            "requests": requests_fingerprint,
            "protocol": fingerprint_protocol(protocol),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
