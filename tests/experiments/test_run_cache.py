"""Content-addressed simulation run cache: keys, store, sweep reuse.

The cache contract has three legs:

* **identity** — a hit returns a ``SimulationResult`` bit-identical to
  the one that was stored; a second identical sweep performs *zero*
  simulations;
* **invalidation** — the key covers the engine code version, the config
  fingerprint, the seed, and the trace/request content, so
  changing any of them is a miss.  A scenario's trace is keyed by its
  recipe (generator parameters, seed, ``TRACE_CODE_VERSION`` and the
  numpy version) rather than its contacts, so a warm pass realizes no
  trace; any other trace factory keeps the content hash.  A sweep keys
  each trial's requests by their recipe (demand, client count, horizon,
  seed, ``REQUEST_CODE_VERSION`` and the numpy version) the same way, so
  a warm pass generates no request schedule either.  Trace OPT adds
  its allocation problem and the solver version, and estimates rates
  and solves only when its run simulates; UNI, SQRT, PROP, DOM and
  homogeneous OPT add their builder's inputs and
  ``STATIC_CODE_VERSION``, and build their allocation only then too;
* **robustness** — a corrupted entry is a logged miss, never a crash or
  a wrong result.
"""

from __future__ import annotations

import base64
import concurrent.futures
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.contacts as contacts_mod
import repro.demand as demand_mod
import repro.simcache.fingerprint as fingerprint_mod
from repro.allocation import submodular
from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.dist import executors as dist_executors
from repro.contacts.synthetic import (
    ConferenceTraceConfig,
    VehicularTraceConfig,
)
from repro.errors import ConfigurationError
from repro.experiments import (
    ConferenceTraces,
    PoissonTraces,
    RequestRecipe,
    TrialArtifacts,
    VehicularTraces,
    conference_scenario,
    figure4,
    figure5,
    homogeneous_scenario,
    run_comparison,
    run_scenario,
    standard_protocols,
    vehicular_scenario,
)
from repro.experiments import artifacts as artifacts_mod
from repro.experiments import figures as figures_mod
from repro.experiments import runner as runner_mod
from repro.experiments import scenarios as scenarios_mod
from repro.experiments.profiles import EffortProfile
from repro.obs.log import set_log_stream
from repro.protocols import prop_protocol, uni_protocol
from repro.protocols import static as static_mod
from repro.sim import SimulationConfig, simulate
from repro.simcache import (
    ENV_VAR,
    SimulationRunCache,
    UncacheableRunError,
    fingerprint_protocol,
    fingerprint_request_recipe,
    fingerprint_requests,
    fingerprint_trace,
    fingerprint_trace_recipe,
    resolve_run_cache,
    run_key,
)
from repro.sim.metrics import SimulationResult
from repro.simcache.store import read_entry, result_to_dict, write_entry
from repro.utility import (
    ExponentialUtility,
    NegLogUtility,
    PowerUtility,
    StepUtility,
)

N, I, RHO = 8, 6, 2
DURATION = 120.0


def workload(seed=3):
    demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(N, 0.1, DURATION, seed=seed)
    requests = generate_requests(demand, N, DURATION, seed=seed + 1)
    return demand, trace, requests


def config():
    return SimulationConfig(n_items=I, rho=RHO, utility=StepUtility(5.0))


def comparable(result):
    data = result_to_dict(result)
    data.pop("manifest", None)
    return data


def sweep(demand, config, cache, **kwargs):
    return run_comparison(
        trace_factory=lambda seed: homogeneous_poisson_trace(
            N, 0.1, DURATION, seed=seed
        ),
        demand=demand,
        config=config,
        protocols={
            "OPT": lambda tr, rq: prop_protocol(demand, tr.n_nodes, RHO),
            "UNI": lambda tr, rq: uni_protocol(demand, tr.n_nodes, RHO),
        },
        n_trials=2,
        base_seed=11,
        run_cache=cache,
        **kwargs,
    )


class TestRunKey:
    def test_deterministic_and_sensitive(self):
        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        key = run_key(config(), protocol, 5, trace, requests)
        assert key == run_key(config(), protocol, 5, trace, requests)
        assert key != run_key(config(), protocol, 6, trace, requests)
        other_cfg = SimulationConfig(
            n_items=I, rho=RHO, utility=StepUtility(9.0)
        )
        assert key != run_key(other_cfg, protocol, 5, trace, requests)

    def test_trace_content_in_key(self):
        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        key = run_key(config(), protocol, 5, trace, requests)
        _, other_trace, _ = workload(seed=8)
        assert key != run_key(config(), protocol, 5, other_trace, requests)

    def test_engine_version_bump_changes_key(self, monkeypatch):
        import repro.sim.engine as engine_mod

        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        before = run_key(config(), protocol, 5, trace, requests)
        monkeypatch.setattr(
            engine_mod, "ENGINE_CODE_VERSION", "9999.99-test-bump"
        )
        after = run_key(config(), protocol, 5, trace, requests)
        assert before != after

    @pytest.mark.parametrize(
        "kind", ["homogeneous", "conference", "vehicular"]
    )
    def test_every_production_sweep_is_cacheable(self, kind):
        """Resume is the run cache, so every sweep the CLI, figures and
        scenarios run must key without ``UncacheableRunError``."""
        utility = StepUtility(5.0)
        scenario = {
            "homogeneous": lambda: homogeneous_scenario(
                utility, n_nodes=N, n_items=I, duration=DURATION
            ),
            "conference": lambda: conference_scenario(
                utility,
                trace_config=ConferenceTraceConfig(n_nodes=N, n_days=1),
            ),
            "vehicular": lambda: vehicular_scenario(
                utility,
                trace_config=VehicularTraceConfig(
                    n_nodes=N, duration_hours=2.0, sample_interval_s=60.0
                ),
            ),
        }[kind]()
        trace = scenario.trace_factory(1)
        requests = generate_requests(
            scenario.demand, trace.n_nodes, trace.duration, seed=2
        )
        factories = standard_protocols(
            scenario,
            include=("OPT", "QCR", "SQRT", "PROP", "UNI", "DOM", "QCRWOM",
                     "PASSIVE"),
        )
        keys = {
            run_key(
                scenario.config, factory(trace, requests), 7, trace, requests
            )
            for factory in factories.values()
        }
        assert len(keys) == len(factories)

    def test_callable_input_is_uncacheable(self):
        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        protocol.hook = lambda: None  # plain lambdas have no stable key
        with pytest.raises(UncacheableRunError):
            run_key(config(), protocol, 5, trace, requests)

    def test_memoized_config_fingerprint_is_the_inline_key(self, monkeypatch):
        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        cfg = config()
        inline = run_key(cfg, protocol, 5, trace, requests)
        inputs = TrialArtifacts(trace, requests, 5)
        calls = {"n": 0}
        real = SimulationConfig.fingerprint

        def counted(self):
            calls["n"] += 1
            return real(self)

        monkeypatch.setattr(SimulationConfig, "fingerprint", counted)
        keys = {
            run_key(
                cfg,
                protocol,
                5,
                trace,
                requests,
                config_fingerprint=inputs.config_fingerprint(cfg),
            )
            for _ in range(6)  # one key per protocol of the suite
        }
        assert keys == {inline} and calls["n"] == 1
        other = SimulationConfig(n_items=I, rho=RHO, utility=StepUtility(9.0))
        assert inputs.config_fingerprint(other) == real(other)

    def test_requests_or_their_fingerprint_is_required(self):
        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        with pytest.raises(ValueError, match="requests_fingerprint"):
            run_key(config(), protocol, 5, trace, None)
        assert run_key(
            config(),
            protocol,
            5,
            trace,
            None,
            requests_fingerprint=fingerprint_requests(requests),
        ) == run_key(config(), protocol, 5, trace, requests)


#: Builds a small conference trial and prints its trace OPT run key as a
#: sweep computes it (trace keyed by its recipe); run in a fresh
#: interpreter, it must print what ``trace_opt_key()`` returns.
_TRACE_OPT_KEY_PROBE = """
from repro.contacts.synthetic import ConferenceTraceConfig
from repro.demand import generate_requests
from repro.experiments import conference_scenario, standard_protocols
from repro.simcache import fingerprint_trace_recipe, run_key
from repro.utility import StepUtility

scenario = conference_scenario(
    StepUtility(5.0), trace_config=ConferenceTraceConfig(n_nodes=8, n_days=1)
)
recipe = scenario.trace_factory
requests = generate_requests(
    scenario.demand, recipe.n_nodes, recipe.duration, seed=2
)
opt = standard_protocols(scenario, include=("OPT",))["OPT"](recipe, requests)
print(run_key(
    scenario.config, opt, 7, None, requests,
    trace_fingerprint=fingerprint_trace_recipe(recipe, 1),
))
"""


def small_conference(utility=StepUtility(5.0), **kwargs):
    return conference_scenario(
        utility,
        trace_config=ConferenceTraceConfig(n_nodes=N, n_days=1),
        **kwargs,
    )


def trace_opt_key(scenario=None, trace_seed=1, rate_floor=None):
    """The run key of a trace OPT run as a sweep computes it, whose
    inputs other than the protocol stay those of ``small_conference()``,
    so the key moves only with the protocol's own state, or with
    *trace_seed* through the trace leg (the protocol holds no rates)."""
    base = small_conference()
    recipe = base.trace_factory
    requests = generate_requests(
        base.demand, recipe.n_nodes, recipe.duration, seed=2
    )
    scenario = scenario or base
    opt = standard_protocols(
        scenario, include=("OPT",), rate_floor=rate_floor
    )["OPT"](scenario.trace_factory, requests)
    return run_key(
        base.config,
        opt,
        7,
        None,
        requests,
        trace_fingerprint=fingerprint_trace_recipe(recipe, trace_seed),
    )


class TestTraceOptKey:
    """Trace OPT is keyed by its problem plus ``GREEDY_CODE_VERSION``."""

    def test_equal_across_factory_calls_and_processes(self):
        scenario = small_conference()
        trace = scenario.trace_factory(1)
        requests = generate_requests(
            scenario.demand, trace.n_nodes, trace.duration, seed=2
        )
        factory = standard_protocols(scenario, include=("OPT",))["OPT"]
        # The realized trace and the recipe build the same protocol.
        keys = {
            run_key(
                scenario.config,
                factory(shape, requests),
                7,
                None,
                requests,
                trace_fingerprint=fingerprint_trace_recipe(
                    scenario.trace_factory, 1
                ),
            )
            for shape in (trace, scenario.trace_factory)
        }
        assert keys == {trace_opt_key()}
        src = Path(__file__).resolve().parents[2] / "src"
        child = subprocess.run(
            [sys.executable, "-c", _TRACE_OPT_KEY_PROBE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.split() == [trace_opt_key()]

    def test_key_follows_every_problem_input(self, monkeypatch):
        base = trace_opt_key()
        changed = {
            "trace seed": trace_opt_key(trace_seed=3),
            "rho": trace_opt_key(small_conference(rho=3)),
            "rate_floor": trace_opt_key(rate_floor=1e-3),
            "utility": trace_opt_key(small_conference(StepUtility(6.0))),
            "demand": trace_opt_key(small_conference(omega=0.5)),
        }
        monkeypatch.setattr(
            submodular, "GREEDY_CODE_VERSION", "9999.99-test-bump"
        )
        changed["GREEDY_CODE_VERSION"] = trace_opt_key()
        assert base not in changed.values()
        assert len(set(changed.values())) == len(changed)

    @pytest.mark.parametrize(
        "utility",
        [
            StepUtility(5.0),
            ExponentialUtility(0.1),
            PowerUtility(0.5),
            PowerUtility(1.5),
            NegLogUtility(),
        ],
        ids=lambda utility: utility.name,
    )
    @pytest.mark.parametrize("kind", ["conference", "vehicular"])
    def test_keyed_without_solving_for_every_family(
        self, kind, utility, monkeypatch
    ):
        scenario = {
            "conference": lambda: small_conference(utility),
            "vehicular": lambda: vehicular_scenario(
                utility,
                trace_config=VehicularTraceConfig(
                    n_nodes=N, duration_hours=2.0, sample_interval_s=60.0
                ),
            ),
        }[kind]()
        trace = scenario.trace_factory(1)
        requests = generate_requests(
            scenario.demand, trace.n_nodes, trace.duration, seed=2
        )
        monkeypatch.setattr(
            scenarios_mod, "greedy_heterogeneous", _never_called
        )
        factory = standard_protocols(scenario, include=("OPT",))["OPT"]
        keys = {
            run_key(scenario.config, factory(trace, requests), 7, trace,
                    requests)
            for _ in range(2)
        }
        assert len(keys) == 1


def _never_called(*args, **kwargs):
    raise AssertionError("building or keying trace OPT must not solve")


#: The protocols whose factories defer a closed-form or Theorem-2 build.
STATIC_NAMES = ("OPT", "UNI", "SQRT", "PROP", "DOM")


def small_homogeneous(utility=StepUtility(5.0), n_nodes=N, **kwargs):
    return homogeneous_scenario(
        utility, n_nodes=n_nodes, n_items=I, duration=DURATION, **kwargs
    )


def static_fingerprints(scenario):
    """Each static protocol's fingerprint, built on the scenario's
    trace recipe as a sweep builds it."""
    factories = standard_protocols(scenario, include=STATIC_NAMES)
    return {
        name: fingerprint_protocol(factory(scenario.trace_factory, None))
        for name, factory in factories.items()
    }


class TestStaticProtocolKey:
    """UNI, SQRT, PROP, DOM and homogeneous OPT are keyed by their
    builders' inputs plus ``STATIC_CODE_VERSION``."""

    @pytest.mark.parametrize("name", STATIC_NAMES)
    def test_fingerprint_stable_across_builds_and_runs(self, name):
        scenario = small_homogeneous()
        factory = standard_protocols(scenario, include=(name,))[name]
        trace = scenario.trace_factory(1)
        requests = generate_requests(
            scenario.demand, trace.n_nodes, trace.duration, seed=2
        )
        protocol = factory(scenario.trace_factory, requests)
        before = fingerprint_protocol(protocol)
        assert fingerprint_protocol(factory(trace, requests)) == before
        simulate(trace, requests, scenario.config, protocol, seed=3)
        assert fingerprint_protocol(protocol) == before

    def test_built_without_allocating(self, monkeypatch):
        for module, name in ALLOCATION_GLOBALS:
            monkeypatch.setattr(module, name, _never_allocates)
        assert len(static_fingerprints(small_homogeneous())) == 5

    def test_key_follows_every_builder_input(self, monkeypatch):
        base = static_fingerprints(small_homogeneous())
        changed = {
            "demand": static_fingerprints(small_homogeneous(omega=0.5)),
            "rho": static_fingerprints(small_homogeneous(rho=3)),
            "nodes": static_fingerprints(small_homogeneous(n_nodes=N + 2)),
        }
        monkeypatch.setattr(
            submodular, "STATIC_CODE_VERSION", "9999.99-test-bump"
        )
        changed["STATIC_CODE_VERSION"] = static_fingerprints(
            small_homogeneous()
        )
        for what, prints in changed.items():
            for name in STATIC_NAMES:
                assert prints[name] != base[name], (what, name)
        monkeypatch.undo()
        # The closed forms ignore the utility; OPT's greedy does not.
        other = static_fingerprints(small_homogeneous(StepUtility(6.0)))
        assert {name for name in STATIC_NAMES if other[name] != base[name]} \
            == {"OPT"}


def _never_allocates(*args, **kwargs):
    raise AssertionError("building or keying a static protocol must not "
                         "compute its allocation")


class TestStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        demand, trace, requests = workload()
        result = simulate(
            trace, requests, config(), prop_protocol(demand, N, RHO), seed=5
        )
        cache = SimulationRunCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, result)
        loaded = cache.get("ab" + "0" * 62)
        assert loaded is not None
        assert comparable(loaded) == comparable(result)
        assert cache.stats.stores == 1 and cache.stats.hits == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = SimulationRunCache(tmp_path / "cache")
        assert cache.get("ff" + "0" * 62) is None
        assert cache.stats.misses == 1 and cache.stats.errors == 0

    def test_stats_count_every_outcome(self, tmp_path):
        demand, trace, requests = workload()
        result = simulate(
            trace, requests, config(), prop_protocol(demand, N, RHO),
            seed=5,
        )
        cache = SimulationRunCache(tmp_path / "cache")
        key = "ab" + "0" * 62

        def counts():
            return cache.stats.to_dict()

        cache.get(key)  # miss
        assert counts() == {"hits": 0, "misses": 1, "stores": 0, "errors": 0}
        cache.put(key, result)  # store
        assert counts() == {"hits": 0, "misses": 1, "stores": 1, "errors": 0}
        cache.get(key)  # hit
        assert counts() == {"hits": 1, "misses": 1, "stores": 1, "errors": 0}
        with open(cache._entry_path(key), "w", encoding="utf-8") as fh:
            fh.write("{ torn")
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            cache.get(key)  # corrupt: an error that also counts as a miss
        finally:
            set_log_stream(None)
        assert counts() == {"hits": 1, "misses": 2, "stores": 1, "errors": 1}

    def test_failed_put_keeps_the_old_entry(self, tmp_path, monkeypatch):
        """A write that fails before its rename leaves the stored entry
        whole and no temp file behind."""
        demand, trace, requests = workload()
        old, new = (
            simulate(
                trace, requests, config(), prop_protocol(demand, N, RHO),
                seed=seed,
            )
            for seed in (5, 6)
        )
        assert comparable(old) != comparable(new)
        cache = SimulationRunCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        cache.put(key, old)

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        set_log_stream(io.StringIO())
        try:
            cache.put(key, new)
        finally:
            set_log_stream(None)
        monkeypatch.undo()
        assert cache.stats.errors == 1 and cache.stats.stores == 1
        loaded = cache.get(key)
        assert loaded is not None
        assert comparable(loaded) == comparable(old)
        path = cache._entry_path(key)
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]

    def test_clear_and_info(self, tmp_path):
        demand, trace, requests = workload()
        result = simulate(
            trace, requests, config(), prop_protocol(demand, N, RHO), seed=5
        )
        cache = SimulationRunCache(tmp_path / "cache")
        cache.put("aa" + "0" * 62, result)
        cache.put("bb" + "0" * 62, result)
        assert len(cache) == 2
        assert cache.info()["n_entries"] == 2
        assert cache.clear() == 2
        assert len(cache) == 0


#: Floats a text encoding could lose: both zeros, NaN, infinities,
#: subnormals, a value with no short decimal, and a negative NaN whose
#: payload bits are not the default quiet NaN's.
SPECIAL_FLOATS = np.concatenate(
    [
        [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1.0 / 3.0],
        np.array([0xFFF8_0000_0000_0BAD], dtype=np.uint64).view(np.float64),
    ]
)
INT64 = np.iinfo(np.int64)


def special_result():
    """A hand-built result with every hard case in its arrays."""
    strided = np.repeat(SPECIAL_FLOATS, 2)[::2]
    assert not strided.flags.c_contiguous
    return SimulationResult(
        duration=10.0,
        total_gain=-0.0,
        n_generated=3,
        n_fulfilled=2,
        n_immediate=1,
        n_skipped_self=0,
        n_expired=0,
        n_unfulfilled=1,
        delays=strided,
        mean_delay=float("nan"),
        median_delay=5e-324,
        p95_delay=float("inf"),
        window_length=1.0,
        window_gains=SPECIAL_FLOATS[::-1],
        window_fulfillments=np.array([0, 2**62, -1]),
        snapshot_times=np.zeros(0),
        snapshot_counts=np.zeros((0, 4), dtype=np.int64),
        snapshot_mandates=np.asfortranarray(np.arange(8).reshape(2, 4)),
        snapshot_tracked=None,
        final_counts=np.array([INT64.min, INT64.max, 0, -1]),
    )


def _entry_round_trip(result, tmp_path):
    path = tmp_path / "k.entry"
    write_entry(path, "k", result)
    return read_entry(path, "k")


def _cache_round_trip(result, tmp_path):
    cache = SimulationRunCache(tmp_path / "cache")
    cache.put("ef" + "0" * 62, result)
    return cache.get("ef" + "0" * 62)


class TestEntryFormat:
    """Arrays are stored as raw bytes: every bit comes back."""

    @pytest.mark.parametrize(
        "round_trip",
        [_entry_round_trip, _cache_round_trip],
        ids=["entry", "cache"],
    )
    def test_every_field_round_trips_bit_exactly(self, tmp_path, round_trip):
        original = special_result()
        rebuilt = round_trip(original, tmp_path)
        assert rebuilt is not None
        for spec in dataclasses.fields(SimulationResult):
            x, y = getattr(original, spec.name), getattr(rebuilt, spec.name)
            if isinstance(x, np.ndarray):
                dtype = np.int64 if x.dtype.kind == "i" else np.float64
                assert y.dtype == dtype, spec.name
                assert y.shape == x.shape, spec.name
                assert y.tobytes() == np.ascontiguousarray(x).tobytes()
                assert y.flags.writeable and y.flags.c_contiguous, spec.name
                assert y.flags.aligned, spec.name
            elif isinstance(x, float):
                assert float.hex(y) == float.hex(x), spec.name
            else:
                assert y == x, spec.name

    def test_arrays_are_little_endian_bytes(self):
        original = special_result()
        payload = result_to_dict(original)
        assert payload["final_counts"]["dtype"] == "<i8"
        assert payload["final_counts"]["shape"] == [4]
        assert payload["final_counts"]["data"] == (
            original.final_counts.astype("<i8").tobytes()
        )
        assert payload["snapshot_counts"]["shape"] == [0, 4]
        assert payload["snapshot_counts"]["data"] == b""
        assert payload["delays"]["dtype"] == "<f8"
        assert payload["delays"]["data"] == (
            np.ascontiguousarray(original.delays, dtype="<f8").tobytes()
        )
        assert payload["snapshot_tracked"] is None

    def test_entry_is_magic_header_then_aligned_array_bytes(self, tmp_path):
        original = special_result()
        path = tmp_path / "k.entry"
        write_entry(path, "k", original)
        magic, header, body = _split_entry(path)
        assert magic == b"RPSIMC\x04\x00"
        # The body starts 8-aligned.
        assert (path.stat().st_size - len(body)) % 8 == 0
        assert header["format"] == "repro-simcache-entry"
        assert header["version"] == 4 and header["key"] == "k"
        cursor = 0
        for name, value in result_to_dict(original).items():
            if not (isinstance(value, dict) and "data" in value):
                continue
            spec = header["result"][name]
            assert spec["offset"] == cursor and spec["offset"] % 8 == 0
            assert spec["nbytes"] == len(value["data"])
            assert body[cursor:cursor + spec["nbytes"]] == value["data"]
            cursor += spec["nbytes"]
        assert cursor == len(body)

    def test_fresh_interpreter_reads_what_this_process_wrote(self, tmp_path):
        cache = SimulationRunCache(tmp_path / "cache")
        key = "ef" + "0" * 62
        cache.put(key, special_result())
        copy = tmp_path / "copy.entry"
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run(
            [sys.executable, "-c", _FRESH_READ_PROBE, cache.root, key,
             str(copy)],
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        # The child rebuilt the result and stored it again: the writer
        # is deterministic, so equal bytes mean an exact rebuild.
        assert copy.read_bytes() == Path(cache._entry_path(key)).read_bytes()


#: Reads an entry in a new interpreter and writes what it rebuilt.
_FRESH_READ_PROBE = """
import sys
from repro.simcache import SimulationRunCache
from repro.simcache.store import write_entry
root, key, copy = sys.argv[1:]
result = SimulationRunCache(root).get(key)
assert result is not None, "the fresh interpreter missed"
write_entry(copy, key, result)
"""


def _split_entry(path):
    """The magic, JSON header and body of the entry at *path*."""
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:16], "little")
    return raw[:8], json.loads(raw[16:16 + length]), raw[16 + length:]


def _join_entry(path, magic, header, body):
    """Write an entry from its parts, with a consistent header length."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    text += b" " * (-(16 + len(text)) % 8)
    path.write_bytes(magic + len(text).to_bytes(8, "little") + text + body)


def _rewrite(path, edit):
    magic, header, body = _split_entry(path)
    edit(header)
    _join_entry(path, magic, header, body)


def _edit_raw(edit):
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def _edit_header_bytes(text):
    def damage(path):
        magic, _, body = _split_entry(path)
        _join_entry(path, magic, text, body)
    return damage


def _edit_magic(magic):
    def damage(path):
        _, header, body = _split_entry(path)
        _join_entry(path, magic, header, body)
    return damage


def _drop_required_field(data):
    del data["result"]["total_gain"]


def _edit_delays(edit):
    return lambda path: _rewrite(path, lambda d: edit(d["result"]["delays"]))


#: One way each to damage a stored run, with the reason its warning
#: names; every one must warn and miss.
CORRUPTIONS = {
    "truncated-body": (
        _edit_raw(lambda raw: raw[:-8]), "past the end"
    ),
    "trailing-bytes": (
        _edit_raw(lambda raw: raw + bytes(8)), "bytes past the last array"
    ),
    "bad-magic": (
        _edit_raw(lambda raw: b"NOTANENT" + raw[8:]), "bad magic"
    ),
    "header-past-eof": (
        _edit_raw(
            lambda raw: raw[:8] + len(raw).to_bytes(8, "little") + raw[16:]
        ),
        "runs past the end",
    ),
    "header-not-json": (_edit_header_bytes(b"{ torn"), "unreadable header"),
    "header-unpadded": (
        _edit_raw(
            lambda raw: raw[:8]
            + (int.from_bytes(raw[8:16], "little") - 1).to_bytes(8, "little")
            + raw[16:]
        ),
        "not 8-aligned",
    ),
    "non-utf8-header": (
        _edit_header_bytes(b'\xff\xfe{"format": 1}'), "unreadable header"
    ),
    "non-dict-result": (
        lambda path: _rewrite(path, lambda d: d.update(result=[1, 2, 3])),
        "not a valid cache entry",
    ),
    "wrong-format": (
        lambda path: _rewrite(
            path, lambda d: d.update(format="repro-sweep-result")
        ),
        "not a valid cache entry",
    ),
    "wrong-version": (
        lambda path: _rewrite(path, lambda d: d.update(version=99)),
        "entry version 99",
    ),
    "wrong-version-magic": (
        _edit_magic(b"RPSIMC\x03\x00"), "entry version 3"
    ),
    "does-not-rebuild": (
        lambda path: _rewrite(path, _drop_required_field),
        "does not rebuild",
    ),
    # Four ways an array descriptor can lie about its bytes.
    "bad-array-dtype": (
        _edit_delays(lambda a: a.update(dtype=">f8")), "not a <f8 array"
    ),
    "bad-array-nbytes": (
        _edit_delays(lambda a: a.update(shape=[a["shape"][0] + 1])),
        "do not hold shape",
    ),
    "bad-array-offset-out-of-range": (
        _edit_delays(lambda a: a.update(offset=1 << 40)), "past the end"
    ),
    "bad-array-offset-unaligned": (
        _edit_delays(lambda a: a.update(offset=a["offset"] + 4)),
        "not 8-aligned",
    ),
}


class CacheStore:
    """The run cache: a corrupt entry is a logged miss."""

    def __init__(self, tmp_path):
        self.cache = SimulationRunCache(tmp_path / "cache")
        self.key = "cd" + "0" * 62

    def put(self, result):
        self.cache.put(self.key, result)
        return self.cache._entry_path(self.key)

    def read(self):
        return self.cache.get(self.key)

    def check_discarded(self, path):
        assert self.cache.stats.errors == 1
        assert self.cache.stats.hits == 1  # only the intact read


class TestCorruptEntries:
    """A corrupt run-cache entry is a warned miss."""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize(
        "store_type", [CacheStore], ids=["cache"]
    )
    def test_corrupt_entry_warns_and_misses(
        self, tmp_path, store_type, corruption
    ):
        store = store_type(tmp_path)
        demand, trace, requests = workload()
        result = simulate(
            trace, requests, config(), prop_protocol(demand, N, RHO), seed=5
        )
        path = Path(store.put(result))
        intact = store.read()
        assert intact is not None
        assert intact.total_gain == result.total_gain
        damage, reason = CORRUPTIONS[corruption]
        damage(path)
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            assert store.read() is None
        finally:
            set_log_stream(None)
        assert "corrupt" in stream.getvalue()
        assert reason in stream.getvalue()
        store.check_discarded(path)

    def test_entry_under_another_key_warns_and_misses(self, tmp_path):
        """A copied or renamed entry file is not the run its name says."""
        demand, trace, requests = workload()
        result = simulate(
            trace, requests, config(), prop_protocol(demand, N, RHO), seed=5
        )
        cache = SimulationRunCache(tmp_path / "cache")
        stored, other = "ab" + "0" * 62, "cd" + "1" * 62
        cache.put(stored, result)
        copy = Path(cache._entry_path(other))
        copy.parent.mkdir(parents=True)
        shutil.copyfile(cache._entry_path(stored), copy)
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            assert cache.get(other) is None
        finally:
            set_log_stream(None)
        assert "skipping corrupted cache entry" in stream.getvalue()
        assert f"entry stored for key '{stored}'" in stream.getvalue()
        assert cache.stats.errors == 1 and cache.stats.misses == 1
        assert cache.get(stored) is not None


class TestResolve:
    def test_false_disables(self):
        assert resolve_run_cache(False) is None

    def test_env_unset_disables(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_run_cache(None) is None

    def test_env_off_values_disable(self, monkeypatch):
        for value in ("0", "off", "false", "no", ""):
            monkeypatch.setenv(ENV_VAR, value)
            assert resolve_run_cache(None) is None

    def test_env_path_enables_there(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "c"))
        cache = resolve_run_cache(None)
        assert cache is not None
        assert cache.root == str(tmp_path / "c")

    def test_explicit_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, "off")
        cache = resolve_run_cache(tmp_path / "mine")
        assert cache is not None and cache.root == str(tmp_path / "mine")

    def test_instance_passes_through(self, tmp_path):
        cache = SimulationRunCache(tmp_path)
        assert resolve_run_cache(cache) is cache


class TestSweepCaching:
    def test_second_sweep_runs_zero_simulations(self, monkeypatch, tmp_path):
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        cache = SimulationRunCache(tmp_path / "cache")

        calls = {"n": 0}
        real_simulate = runner_mod.simulate

        def counting_simulate(*args, **kwargs):
            calls["n"] += 1
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate", counting_simulate)

        first = sweep(demand, config(), cache)
        assert calls["n"] == 4  # 2 trials x 2 protocols
        assert cache.stats.hits == 0 and cache.stats.misses == 4
        assert all(t.status == "ok" for t in first.telemetry)
        assert first.manifest["run_cache"]["misses"] == 4

        second = sweep(demand, config(), cache)
        assert calls["n"] == 4  # unchanged: every unit was a cache hit
        assert cache.stats.hits == 4
        assert all(t.status == "cached" for t in second.telemetry)
        assert second.manifest["run_cache"]["hits"] == 4
        for name in first.stats:
            assert np.array_equal(
                first.stats[name].gain_rates, second.stats[name].gain_rates
            )

    def test_engine_version_bump_invalidates_sweep(
        self, monkeypatch, tmp_path
    ):
        import repro.sim.engine as engine_mod

        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        cache = SimulationRunCache(tmp_path / "cache")
        sweep(demand, config(), cache)
        assert cache.stats.misses == 4

        monkeypatch.setattr(
            engine_mod, "ENGINE_CODE_VERSION", "9999.99-test-bump"
        )
        again = sweep(demand, config(), cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 8
        assert all(t.status == "ok" for t in again.telemetry)

    def test_no_cache_leaves_manifest_clean(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        result = sweep(demand, config(), None)
        assert "run_cache" not in result.manifest

    def test_version_2_json_entry_is_stored_anew(self, tmp_path):
        """A version-2 entry (``<key>.json``) is never read: its run is
        a plain miss, stored again as the current version, which then
        hits; ``clear`` removes both files."""
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        cache = SimulationRunCache(tmp_path / "cache")
        first = sweep(demand, config(), cache)
        paths = [Path(p) for p in cache._entry_files()]
        assert len(paths) == 4
        for path in paths:
            _store_as_version_2(path)
        assert len(cache) == 4  # legacy files are listed

        stream = io.StringIO()
        set_log_stream(stream)
        try:
            sweep(demand, config(), cache)
        finally:
            set_log_stream(None)
        assert "skipping corrupted cache entry" not in stream.getvalue()
        assert cache.stats.hits == 0 and cache.stats.errors == 0
        assert cache.stats.misses == 8 and cache.stats.stores == 8
        for path in paths:
            assert path.read_bytes()[:8] == b"RPSIMC\x04\x00"
            assert path.with_suffix(".json").exists()
        assert cache.info()["n_entries"] == 8

        third = sweep(demand, config(), cache)
        assert cache.stats.hits == 4
        assert all(t.status == "cached" for t in third.telemetry)
        for name in first.stats:
            assert np.array_equal(
                first.stats[name].gain_rates, third.stats[name].gain_rates
            )
        assert cache.clear() == 8
        assert not [
            name for _, _, names in os.walk(cache.root) for name in names
        ]


def counted_solves(monkeypatch):
    """Counts trace OPT solves through ``scenarios.greedy_heterogeneous``."""
    solves = {"n": 0}
    real_greedy = scenarios_mod.greedy_heterogeneous

    def counting_greedy(*args, **kwargs):
        solves["n"] += 1
        return real_greedy(*args, **kwargs)

    monkeypatch.setattr(scenarios_mod, "greedy_heterogeneous", counting_greedy)
    return solves


def opt_result_bytes(comparison):
    return [
        repr(comparable(result)).encode()
        for result in comparison.stats["OPT"].results
    ]


class TestTraceOptSolves:
    """A trace OPT run solves once when it simulates and never on a hit."""

    TRIALS = 2

    def sweep(self, cache):
        return run_scenario(
            small_conference(),
            n_trials=self.TRIALS,
            base_seed=5,
            include=("OPT", "UNI"),
            run_cache=cache,
        )

    def test_cold_pass_solves_per_trial_and_warm_pass_never(
        self, monkeypatch, tmp_path
    ):
        solves = counted_solves(monkeypatch)
        cache = SimulationRunCache(tmp_path / "cache")
        cold = self.sweep(cache)
        assert solves["n"] == self.TRIALS
        warm = self.sweep(cache)
        assert solves["n"] == self.TRIALS
        assert cache.stats.hits == 2 * self.TRIALS
        assert opt_result_bytes(warm) == opt_result_bytes(cold)

    def test_cache_off_solves_once_per_run(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        solves = counted_solves(monkeypatch)
        self.sweep(False)
        assert solves["n"] == self.TRIALS


#: The small recipes of the recipe key tests, one per scenario builder.
SMALL_RECIPES = {
    "poisson": PoissonTraces(N, 0.1, DURATION),
    "conference": ConferenceTraces(
        ConferenceTraceConfig(n_nodes=N, n_days=1), "synthesized"
    ),
    "vehicular": VehicularTraces(
        VehicularTraceConfig(
            n_nodes=N, duration_hours=2.0, sample_interval_s=60.0
        ),
        "rate_matched",
    ),
}

#: Prints the seed-1 key of every ``SMALL_RECIPES`` entry; run in a fresh
#: interpreter, it must print what the parent computes.
_RECIPE_KEY_PROBE = """
from repro.contacts.synthetic import ConferenceTraceConfig, VehicularTraceConfig
from repro.experiments import ConferenceTraces, PoissonTraces, VehicularTraces
from repro.simcache import fingerprint_trace_recipe

for recipe in (
    PoissonTraces(8, 0.1, 120.0),
    ConferenceTraces(ConferenceTraceConfig(n_nodes=8, n_days=1), "synthesized"),
    VehicularTraces(
        VehicularTraceConfig(n_nodes=8, duration_hours=2.0, sample_interval_s=60.0),
        "rate_matched",
    ),
):
    print(fingerprint_trace_recipe(recipe, 1))
"""


def trial_inputs(trace_factory, trace_seed=1):
    """The trial artifacts a serial sweep builds for one unit."""
    spec = dist_executors.SweepSpec(
        trace_factory=trace_factory,
        demand=DemandModel.pareto(I, omega=1.0, total_rate=2.0),
        config=config(),
        protocols={},
        n_clients=None,
        profile_dir=None,
        cache=None,
    )
    inputs, _ = runner_mod._trial_artifacts(spec, (0, "UNI", trace_seed, 2, 3))
    return inputs


def bumped(value):
    """A valid neighbour of one numeric recipe parameter."""
    return value + 1 if isinstance(value, int) else value + 0.5


def one_field_changes(recipe):
    """Copies of *recipe* that each differ from it in one numeric
    parameter, its config's fields included (variants are tested on
    their own)."""
    changed = {}
    for spec in dataclasses.fields(recipe):
        value = getattr(recipe, spec.name)
        if isinstance(value, str):
            continue
        if dataclasses.is_dataclass(value):
            for inner in dataclasses.fields(value):
                changed[f"{spec.name}.{inner.name}"] = dataclasses.replace(
                    recipe,
                    **{
                        spec.name: dataclasses.replace(
                            value,
                            **{inner.name: bumped(getattr(value, inner.name))},
                        )
                    },
                )
        else:
            changed[spec.name] = dataclasses.replace(
                recipe, **{spec.name: bumped(value)}
            )
    return changed


class TestRecipeKey:
    """A scenario's trace is keyed by its recipe, never its contacts."""

    def test_equal_across_rebuilds_and_processes(self, monkeypatch):
        def no_realization(*args, **kwargs):
            raise AssertionError("keying a recipe must not realize it")

        for name in ("homogeneous_poisson_trace", "conference_trace",
                     "vehicular_trace"):
            monkeypatch.setattr(scenarios_mod, name, no_realization)
        utility = StepUtility(5.0)
        builds = {
            "poisson": lambda: homogeneous_scenario(
                utility, n_nodes=N, n_items=I, mu=0.1, duration=DURATION
            ),
            "conference": lambda: small_conference(variant="synthesized"),
        }
        expected = {
            name: fingerprint_trace_recipe(recipe, 1)
            for name, recipe in SMALL_RECIPES.items()
        }
        for name, build in builds.items():
            first, second = build().trace_factory, build().trace_factory
            assert first == second == SMALL_RECIPES[name]
            assert hash(first) == hash(second)
            assert trial_inputs(first).trace_fingerprint() == expected[name]
            assert trial_inputs(second).trace_fingerprint() == expected[name]
        src = Path(__file__).resolve().parents[2] / "src"
        child = subprocess.run(
            [sys.executable, "-c", _RECIPE_KEY_PROBE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.split() == list(expected.values())

    @pytest.mark.parametrize("kind", sorted(SMALL_RECIPES))
    def test_key_moves_with_every_input(self, kind, monkeypatch):
        recipe = SMALL_RECIPES[kind]
        base = fingerprint_trace_recipe(recipe, 1)
        keys = {
            field: fingerprint_trace_recipe(changed, 1)
            for field, changed in one_field_changes(recipe).items()
        }
        keys["seed"] = fingerprint_trace_recipe(recipe, 2)
        if kind != "poisson":
            for variant in ("actual", "synthesized", "rate_matched"):
                keys[f"variant={variant}"] = fingerprint_trace_recipe(
                    dataclasses.replace(recipe, variant=variant), 1
                )
            keys.pop(f"variant={recipe.variant}")
        monkeypatch.setattr(
            contacts_mod, "TRACE_CODE_VERSION", "9999.99-test-bump"
        )
        keys["TRACE_CODE_VERSION"] = fingerprint_trace_recipe(recipe, 1)
        monkeypatch.undo()
        monkeypatch.setattr(np, "__version__", "0.0-test")
        keys["numpy"] = fingerprint_trace_recipe(recipe, 1)
        assert base not in keys.values()
        assert len(set(keys.values())) == len(keys)

    def test_plain_callable_keeps_the_content_hash(self):
        recipe = SMALL_RECIPES["poisson"]
        inputs = trial_inputs(lambda seed: recipe(seed))
        assert inputs.trace_fingerprint() == fingerprint_trace(recipe(1))
        assert trial_inputs(recipe).trace_fingerprint() == (
            fingerprint_trace_recipe(recipe, 1)
        )

    @pytest.mark.parametrize(
        "realized", [(N - 1, DURATION), (N, DURATION / 2)],
        ids=["n_nodes", "duration"],
    )
    def test_misdeclared_shape_raises(self, realized):
        n_nodes, duration = realized

        @dataclasses.dataclass(frozen=True)
        class Misdeclared(PoissonTraces):
            def __call__(self, seed):
                return homogeneous_poisson_trace(
                    n_nodes, self.mu, duration, seed=seed
                )

        with pytest.raises(ConfigurationError, match="declares"):
            trial_inputs(Misdeclared(N, 0.1, DURATION)).trace
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        with pytest.raises(ConfigurationError, match="declares"):
            run_comparison(
                trace_factory=Misdeclared(N, 0.1, DURATION),
                demand=demand,
                config=config(),
                protocols={
                    "UNI": lambda tr, rq: uni_protocol(demand, tr.n_nodes, RHO)
                },
                n_trials=1,
                baseline="UNI",
                run_cache=False,
            )


#: The request recipe ``trial_inputs`` builds for a recipe of ``N`` nodes
#: over ``DURATION`` (request seed 2).
SMALL_REQUESTS = RequestRecipe(
    DemandModel.pareto(I, omega=1.0, total_rate=2.0), N, DURATION
)

#: Prints the seed-2 key of ``SMALL_REQUESTS``; run in a fresh
#: interpreter, it must print what the parent computes.
_REQUEST_KEY_PROBE = """
from repro.demand import DemandModel
from repro.experiments import RequestRecipe
from repro.simcache import fingerprint_request_recipe

recipe = RequestRecipe(DemandModel.pareto(6, omega=1.0, total_rate=2.0), 8, 120.0)
print(fingerprint_request_recipe(recipe, 2))
"""


def request_changes(recipe):
    """Copies of *recipe* that each differ from it in one field."""
    return {
        "demand": dataclasses.replace(
            recipe, demand=DemandModel.pareto(I, omega=2.0, total_rate=2.0)
        ),
        "n_clients": dataclasses.replace(recipe, n_clients=recipe.n_clients - 1),
        "duration": dataclasses.replace(recipe, duration=recipe.duration / 2),
    }


class TestRequestRecipeKey:
    """A sweep keys each trial's requests by their recipe, never their
    content, and generates them only when a run simulates."""

    def test_equal_across_rebuilds_and_processes(self, monkeypatch):
        def no_generation(*args, **kwargs):
            raise AssertionError("keying a request recipe must not generate")

        monkeypatch.setattr(runner_mod, "generate_requests", no_generation)
        expected = fingerprint_request_recipe(SMALL_REQUESTS, 2)
        first, second = (
            trial_inputs(SMALL_RECIPES["poisson"]) for _ in range(2)
        )
        assert first.request_source == second.request_source == SMALL_REQUESTS
        assert hash(first.request_source) == hash(SMALL_REQUESTS)
        assert first.request_source is not second.request_source
        assert first.requests_fingerprint() == expected
        assert second.requests_fingerprint() == expected
        src = Path(__file__).resolve().parents[2] / "src"
        child = subprocess.run(
            [sys.executable, "-c", _REQUEST_KEY_PROBE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.split() == [expected]

    def test_key_moves_with_every_input(self, monkeypatch):
        base = fingerprint_request_recipe(SMALL_REQUESTS, 2)
        keys = {
            field: fingerprint_request_recipe(changed, 2)
            for field, changed in request_changes(SMALL_REQUESTS).items()
        }
        assert all(
            changed != SMALL_REQUESTS
            for changed in request_changes(SMALL_REQUESTS).values()
        )
        keys["seed"] = fingerprint_request_recipe(SMALL_REQUESTS, 3)
        monkeypatch.setattr(
            demand_mod, "REQUEST_CODE_VERSION", "9999.99-test-bump"
        )
        keys["REQUEST_CODE_VERSION"] = fingerprint_request_recipe(
            SMALL_REQUESTS, 2
        )
        monkeypatch.undo()
        monkeypatch.setattr(np, "__version__", "0.0-test")
        keys["numpy"] = fingerprint_request_recipe(SMALL_REQUESTS, 2)
        assert base not in keys.values()
        assert len(set(keys.values())) == len(keys)

    def test_recipe_realizes_what_the_sweep_generated(self):
        inputs = trial_inputs(SMALL_RECIPES["poisson"])
        direct = generate_requests(
            SMALL_REQUESTS.demand, N, DURATION, seed=2
        )
        assert fingerprint_requests(inputs.requests) == (
            fingerprint_requests(direct)
        )
        assert inputs.requests is inputs.requests  # generated once

    def test_realized_schedule_keeps_the_content_hash(self):
        _, trace, requests = workload()
        inputs = TrialArtifacts(trace, requests, 5)
        assert inputs.request_source is requests
        assert inputs.requests_fingerprint() == fingerprint_requests(requests)


#: One trial, one sweep point per panel, a short homogeneous horizon.
TINY = EffortProfile(
    label="tiny",
    n_trials=1,
    duration=200.0,
    power_alphas=(0.0,),
    step_taus=(10.0,),
    exp_nus=(0.1,),
)

#: The scenario module globals that realize a trace or estimate its
#: rates; ``conference_trace`` and ``homogeneous_poisson_trace`` are each
#: called exactly once per realized trial.
TRACE_GLOBALS = (
    "conference_trace",
    "homogenized_poisson",
    "homogeneous_poisson_trace",
    "pair_rate_matrix",
)


#: The allocation routines a static protocol's build calls, as the
#: builders (``static``) and trace OPT (``scenarios``) look them up.
ALLOCATION_GLOBALS = (
    (static_mod, "uniform_counts"),
    (static_mod, "sqrt_counts"),
    (static_mod, "proportional_counts"),
    (static_mod, "dominant_counts"),
    (static_mod, "quantize_counts"),
    (static_mod, "greedy_homogeneous"),
    (scenarios_mod, "greedy_heterogeneous"),
)


class TestWarmPassRealizesNothing:
    """A figure re-rendered over a filled cache realizes no trace,
    generates no request schedule and computes no allocation."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Every ComparisonResult the figure's sweeps return, in order."""
        seen = []
        for name in ("run_comparison", "run_scenario"):
            real = getattr(figures_mod, name)

            def keep(*args, _real=real, **kwargs):
                seen.append(_real(*args, **kwargs))
                return seen[-1]

            monkeypatch.setattr(figures_mod, name, keep)
        return seen

    @staticmethod
    def realizations(monkeypatch):
        counts = {"n": 0}
        for name in ("conference_trace", "homogeneous_poisson_trace"):
            real = getattr(scenarios_mod, name)

            def counted(*args, _real=real, **kwargs):
                counts["n"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(scenarios_mod, name, counted)
        return counts

    @staticmethod
    def result_bytes(sweeps):
        return [
            repr(comparable(result)).encode()
            for comparison in sweeps
            for name in sorted(comparison.stats)
            for result in comparison.stats[name].results
        ]

    @pytest.mark.parametrize("figure", [figure4, figure5])
    def test_warm_pass_is_byte_identical_without_traces(
        self, figure, sweeps, monkeypatch, tmp_path
    ):
        cache = SimulationRunCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            counts = self.realizations(patch)
            cold = figure(TINY, run_cache=cache, executor="serial")
        n_trials = sum(comparison.n_trials for comparison in sweeps)
        assert counts["n"] == n_trials
        n_runs = cache.stats.misses
        cold_bytes = self.result_bytes(sweeps)
        sweeps.clear()

        def never(*args, **kwargs):
            raise AssertionError(
                "a warm pass must not realize, allocate or simulate"
            )

        for name in TRACE_GLOBALS:
            monkeypatch.setattr(scenarios_mod, name, never)
        for module, name in ALLOCATION_GLOBALS:
            monkeypatch.setattr(module, name, never)
        monkeypatch.setattr(runner_mod, "simulate", never)
        monkeypatch.setattr(runner_mod, "generate_requests", never)
        for module in (artifacts_mod, fingerprint_mod):
            monkeypatch.setattr(module, "fingerprint_requests", never)
        warm = figure(TINY, run_cache=cache, executor="serial")
        assert cache.stats.hits == n_runs and cache.stats.misses == n_runs
        assert all(
            t.status == "cached"
            for comparison in sweeps
            for t in comparison.telemetry
        )
        assert self.result_bytes(sweeps) == cold_bytes
        assert warm.render() == cold.render()

    @pytest.mark.parametrize("figure", [figure4, figure5])
    def test_cache_off_realizes_once_per_trial(
        self, figure, sweeps, monkeypatch
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        counts = self.realizations(monkeypatch)
        generated = {"n": 0}
        real = runner_mod.generate_requests

        def counted(*args, **kwargs):
            generated["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "generate_requests", counted)
        figure(TINY, run_cache=False, executor="serial")
        n_trials = sum(c.n_trials for c in sweeps)
        assert counts["n"] == generated["n"] == n_trials > 0


def _store_as_version_2(path):
    """Replace the entry at *path* with the file version 2 stored: one
    JSON document at ``<key>.json`` holding every array as the base64 of
    its bytes."""
    key = path.stem
    data = {"format": "repro-simcache-entry", "version": 2, "key": key}
    data["result"] = {
        name: (
            {**value, "data": base64.b64encode(value["data"]).decode("ascii")}
            if isinstance(value, dict) and "data" in value
            else value
        )
        for name, value in result_to_dict(read_entry(path, key)).items()
    }
    path.with_suffix(".json").write_text(json.dumps(data))
    path.unlink()


class TestWorkerCap:
    def test_workers_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            result = sweep(demand, config(), None, executor=4)
        finally:
            set_log_stream(None)
        assert result.manifest["n_workers"] == 2
        assert "capping sweep workers" in stream.getvalue()

    def test_single_effective_worker_bypasses_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def no_pool(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("pool must not be used with 1 worker")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", no_pool
        )
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        result = sweep(demand, config(), None, executor=4)
        assert result.manifest["executor"] == "serial"
        assert result.manifest["n_workers"] == 1
