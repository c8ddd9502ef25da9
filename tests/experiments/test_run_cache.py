"""Content-addressed simulation run cache: keys, store, sweep reuse.

The cache contract has three legs:

* **identity** — a hit returns a ``SimulationResult`` bit-identical to
  the one that was stored; a second identical sweep performs *zero*
  simulations;
* **invalidation** — the key covers the engine code version, the config
  fingerprint, the seed, and the trace/request/fault content, so
  changing any of them is a miss;
* **robustness** — a corrupted entry is a logged miss, never a crash or
  a wrong result; the same cases run against the work queue's published
  results, which share the entry format.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.dist import executors as dist_executors
from repro.contacts.synthetic import (
    ConferenceTraceConfig,
    VehicularTraceConfig,
)
from repro.experiments import (
    conference_scenario,
    homogeneous_scenario,
    run_comparison,
    standard_protocols,
    vehicular_scenario,
)
from repro.experiments import runner as runner_mod
from repro.faults import FaultSchedule
from repro.obs.log import set_log_stream
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig, simulate
from repro.simcache import (
    ENV_VAR,
    SimulationRunCache,
    UncacheableRunError,
    resolve_run_cache,
    run_key,
)
from repro.sim.metrics import SimulationResult
from repro.simcache.store import read_entry, result_to_dict, write_entry
from repro.utility import StepUtility

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

    def test_trace_and_fault_content_in_key(self):
        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        key = run_key(config(), protocol, 5, trace, requests)
        _, other_trace, _ = workload(seed=8)
        assert key != run_key(config(), protocol, 5, other_trace, requests)
        faults = FaultSchedule(drop_prob=0.2, seed=1)
        assert key != run_key(
            config(), protocol, 5, trace, requests, faults=faults
        )

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
        # The fault schedules `repro churn` builds, across its flags.
        churn = [None] + [
            FaultSchedule.crash_wave(
                trace.duration / 4,
                range(2),
                recover_at=recover_at,
                wipe_cache=wipe,
                sticky_survives=sticky,
                drop_prob=drop_prob,
            )
            for recover_at, wipe, sticky, drop_prob in [
                (None, True, True, 0.0),
                (trace.duration / 2, False, False, 0.2),
            ]
        ]
        keys = set()
        for name, factory in factories.items():
            for faults in churn:
                keys.add(
                    run_key(
                        scenario.config,
                        factory(trace, requests),
                        7,
                        trace,
                        requests,
                        faults,
                    )
                )
        assert len(keys) == len(factories) * len(churn)

    def test_callable_input_is_uncacheable(self):
        demand, trace, requests = workload()
        protocol = prop_protocol(demand, N, RHO)
        protocol.hook = lambda: None  # plain lambdas have no stable key
        with pytest.raises(UncacheableRunError):
            run_key(config(), protocol, 5, trace, requests)


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

    def test_metrics_counters_mirror_stats(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset_registry()
        obs_metrics.set_enabled(True)
        try:
            demand, trace, requests = workload()
            result = simulate(
                trace, requests, config(), prop_protocol(demand, N, RHO),
                seed=5,
            )
            cache = SimulationRunCache(tmp_path / "cache")
            key = "ab" + "0" * 62
            cache.get(key)  # miss
            cache.put(key, result)  # store
            cache.get(key)  # hit
            with open(cache._entry_path(key), "w", encoding="utf-8") as fh:
                fh.write("{ torn")
            stream = io.StringIO()
            set_log_stream(stream)
            try:
                cache.get(key)  # corrupt
            finally:
                set_log_stream(None)
            snap = obs_metrics.registry().snapshot()
            by_outcome = {
                entry["labels"]["outcome"]: entry["value"]
                for entry in snap["repro_simcache_ops_total"]["series"]
            }
            assert by_outcome == {"miss": 1.0, "store": 1.0, "hit": 1.0,
                                  "corrupt": 1.0}
        finally:
            obs_metrics.set_enabled(None)
            obs_metrics.reset_registry()

    def test_metrics_disabled_registry_untouched(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset_registry()
        obs_metrics.set_enabled(False)
        try:
            cache = SimulationRunCache(tmp_path / "cache")
            assert cache.get("ff" + "0" * 62) is None
            assert len(obs_metrics.registry()) == 0
            assert cache.stats.misses == 1  # local stats still count
        finally:
            obs_metrics.set_enabled(None)

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
        recovery_times=np.array([1.5, -0.0]),
    )


def _entry_round_trip(result, tmp_path):
    path = tmp_path / "entry.json"
    write_entry(path, "k", result)
    return read_entry(path)


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
            elif isinstance(x, float):
                assert float.hex(y) == float.hex(x), spec.name
            else:
                assert y == x, spec.name

    def test_arrays_are_base64_of_little_endian_bytes(self):
        payload = result_to_dict(special_result())
        assert payload["final_counts"]["dtype"] == "<i8"
        assert payload["final_counts"]["shape"] == [4]
        assert payload["snapshot_counts"]["shape"] == [0, 4]
        assert payload["delays"]["dtype"] == "<f8"
        assert payload["snapshot_tracked"] is None
        json.dumps(payload)  # still one plain JSON document


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    edit(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _drop_required_field(data):
    del data["result"]["total_gain"]


def _edit_delays(edit):
    return lambda path: _rewrite(path, lambda d: edit(d["result"]["delays"]))


#: One way each to damage a stored run; every one must warn and miss.
CORRUPTIONS = {
    "truncated-json": lambda path: path.write_bytes(
        path.read_bytes()[: len(path.read_bytes()) // 2]
    ),
    "non-utf8": lambda path: path.write_bytes(
        b"\xff\xfe" + path.read_bytes()
    ),
    "wrong-format": lambda path: _rewrite(
        path, lambda d: d.update(format="repro-sweep-result")
    ),
    "wrong-version": lambda path: _rewrite(
        path, lambda d: d.update(version=99)
    ),
    "non-dict-result": lambda path: _rewrite(
        path, lambda d: d.update(result=[1, 2, 3])
    ),
    "does-not-rebuild": lambda path: _rewrite(path, _drop_required_field),
    # Three ways an array payload can lie about its bytes.
    "bad-array-payload-base64": _edit_delays(
        lambda a: a.update(data=a["data"][:-3])
    ),
    "bad-array-payload-length": _edit_delays(
        lambda a: a.update(shape=[a["shape"][0] + 1])
    ),
    "bad-array-payload-dtype": _edit_delays(lambda a: a.update(dtype=">f8")),
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
        CORRUPTIONS[corruption](path)
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            assert store.read() is None
        finally:
            set_log_stream(None)
        assert "corrupt" in stream.getvalue()
        store.check_discarded(path)


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

    def test_version_1_entry_is_rewritten_on_the_next_sweep(self, tmp_path):
        """A list-encoded (version-1) entry is a warned miss; the rerun
        stores it again as the current version, which then hits."""
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        cache = SimulationRunCache(tmp_path / "cache")
        first = sweep(demand, config(), cache)
        paths = [Path(p) for p in cache._entry_files()]
        assert len(paths) == 4
        for path in paths:
            _downgrade_to_version_1(path)

        stream = io.StringIO()
        set_log_stream(stream)
        try:
            sweep(demand, config(), cache)
        finally:
            set_log_stream(None)
        assert stream.getvalue().count("skipping corrupted cache entry") == 4
        assert "entry version 1" in stream.getvalue()
        assert cache.stats.hits == 0 and cache.stats.errors == 4
        assert cache.stats.stores == 8
        for path in paths:
            assert json.loads(path.read_text())["version"] == 2

        third = sweep(demand, config(), cache)
        assert cache.stats.hits == 4
        assert all(t.status == "cached" for t in third.telemetry)
        for name in first.stats:
            assert np.array_equal(
                first.stats[name].gain_rates, third.stats[name].gain_rates
            )


def _downgrade_to_version_1(path):
    """Rewrite *path* as the version-1 format stored it: every array as
    a JSON list of its values."""
    result = read_entry(path)
    data = json.loads(path.read_text())
    data["version"] = 1
    data["result"] = {}
    for spec in dataclasses.fields(SimulationResult):
        value = getattr(result, spec.name)
        data["result"][spec.name] = (
            value.tolist() if isinstance(value, np.ndarray) else value
        )
    path.write_text(json.dumps(data))


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
            dist_executors.futures, "ProcessPoolExecutor", no_pool
        )
        demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
        result = sweep(demand, config(), None, executor=4)
        assert result.manifest["executor"] == "serial"
        assert result.manifest["n_workers"] == 1
