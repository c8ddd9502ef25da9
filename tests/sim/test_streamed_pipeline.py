"""The streamed (chunked / memory-mapped) event pipeline.

The engine must produce bit-identical results whether the merged event
stream is materialized eagerly or merged chunk by chunk from
NumPy-backed columns — including with faults and JSONL-style tracing
active at the same time — and its run-phase Python-heap peak must be
bounded by the merge chunk, not the trace length.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.contacts import (
    homogeneous_poisson_trace,
    load_binary,
    save_binary,
)
from repro.demand import DemandModel, generate_requests
from repro.faults import FaultSchedule
from repro.obs import Tracer
from repro.protocols import (
    QCR,
    PassiveReplication,
    dom_protocol,
    uni_protocol,
)
from repro.sim import Simulation, SimulationConfig, engine
from repro.simcache.store import result_to_dict
from repro.utility import StepUtility

from ._bitwise import spy_static_kernel

N_NODES, N_ITEMS, RHO = 8, 6, 2
UTILITY = StepUtility(8.0)


def make_inputs(seed=3, duration=200.0, rate=0.15, n_nodes=N_NODES):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(n_nodes, rate, duration, seed=seed)
    requests = generate_requests(demand, n_nodes, duration, seed=seed + 1)
    config = SimulationConfig(
        n_items=N_ITEMS, rho=RHO, utility=UTILITY, record_interval=50.0
    )
    return demand, trace, requests, config


def run_one(trace, requests, config, protocol, **kwargs):
    sim = Simulation(trace, requests, config, protocol, seed=5, **kwargs)
    return sim, sim.run()


def comparable(result):
    d = result_to_dict(result)
    d.pop("manifest", None)
    return d


class TestChunkedIdentity:
    @pytest.mark.parametrize("chunk_events", [1, 7, 64, 4096])
    def test_chunked_matches_eager(self, chunk_events):
        demand, trace, requests, config = make_inputs()
        faults = FaultSchedule.crash_wave(
            80.0, [0, 1], recover_at=120.0, wipe_cache=True
        )
        _, eager = run_one(
            trace, requests, config, QCR(UTILITY, 0.15), faults=faults
        )
        sim, chunked = run_one(
            trace,
            requests,
            config,
            QCR(UTILITY, 0.15),
            faults=faults,
            chunk_events=chunk_events,
        )
        assert sim._streamed
        assert comparable(eager) == comparable(chunked)

    def test_memmap_trace_streams_automatically(self, tmp_path):
        demand, trace, requests, config = make_inputs()
        save_binary(trace, tmp_path / "t.ctb")
        mm = load_binary(tmp_path / "t.ctb")
        assert isinstance(mm.times, np.memmap)
        _, eager = run_one(
            trace, requests, config, uni_protocol(demand, N_NODES, RHO)
        )
        sim, streamed = run_one(
            mm, requests, config, uni_protocol(demand, N_NODES, RHO)
        )
        assert sim._streamed
        assert comparable(eager) == comparable(streamed)

    def test_memmap_trace_with_parked_requests(self, tmp_path, monkeypatch):
        """DOM with a timeout: its never-servable requests wait and
        expire on the streamed plain loop as in the static kernel.  A
        memory-mapped trace that fits one streamed block takes the
        kernel on its own eager stream; an explicit ``chunk_events``
        or a trace past one block keeps the streamed loop."""
        demand, trace, requests, config = make_inputs()
        config = dataclasses.replace(config, request_timeout=20.0)
        save_binary(trace, tmp_path / "t.ctb")
        mm = load_binary(tmp_path / "t.ctb")
        verdicts = spy_static_kernel(monkeypatch)

        def dom(trace, **kwargs):
            return run_one(
                trace,
                requests,
                config,
                dom_protocol(demand, N_NODES, RHO),
                **kwargs,
            )

        _, eager = dom(trace)
        sim, one_block = dom(mm)
        assert sim._streamed and sim._chunks is not None
        assert verdicts == [True, True]
        sim, chunked = dom(mm, chunk_events=64)
        assert sim._chunks is None
        monkeypatch.setattr(engine, "_DEFAULT_CHUNK_EVENTS", 64)
        sim, blocks = dom(mm)
        assert sim._chunks is None and verdicts == [True, True]
        for streamed in (one_block, chunked, blocks):
            assert comparable(eager) == comparable(streamed)
        assert eager.n_expired > 0

    def test_chunked_with_faults_and_tracing(self):
        """Faults + live tracing + chunking together change nothing."""
        demand, trace, requests, config = make_inputs()
        faults = FaultSchedule.crash_wave(
            60.0, [2], recover_at=90.0, wipe_cache=False
        )

        def traced_run(**kwargs):
            tracer = Tracer.in_memory()
            _, result = run_one(
                trace,
                requests,
                config,
                QCR(UTILITY, 0.15),
                faults=faults,
                tracer=tracer,
                **kwargs,
            )
            return result, tracer.sink.events

        eager_result, eager_events = traced_run()
        chunked_result, chunked_events = traced_run(chunk_events=37)
        assert comparable(eager_result) == comparable(chunked_result)
        assert eager_events == chunked_events

    def test_chunked_passive_protocol(self):
        demand, trace, requests, config = make_inputs()
        _, eager = run_one(trace, requests, config, PassiveReplication())
        _, chunked = run_one(
            trace, requests, config, PassiveReplication(), chunk_events=11
        )
        assert comparable(eager) == comparable(chunked)


class TestBoundedMemory:
    def test_run_peak_bounded_by_chunk_not_trace(self, tmp_path):
        """4x the contacts must not mean 4x the streamed run-phase heap.

        The request schedule is held fixed so metrics growth (delays,
        windows) cannot mask the comparison; only the contact columns
        scale.  An eager run would materialize the full merged stream,
        so its peak scales with the trace — the streamed run's peak must
        stay pinned to the chunk size instead.
        """
        demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=0.5)
        config = SimulationConfig(
            n_items=N_ITEMS, rho=RHO, utility=UTILITY, record_interval=None
        )
        requests = generate_requests(demand, 30, 100.0, seed=9)

        def streamed_peak(rate):
            path = tmp_path / f"trace-{rate}.ctb"
            trace = homogeneous_poisson_trace(
                30, rate, 100.0, seed=7, out=path, chunk_target=4096
            )
            protocol = uni_protocol(demand, 30, RHO)
            sim = Simulation(
                trace,
                requests,
                config,
                protocol,
                seed=5,
                chunk_events=4096,
            )
            tracemalloc.start()
            try:
                sim.run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return len(trace), peak

        small_events, small_peak = streamed_peak(0.5)
        large_events, large_peak = streamed_peak(2.0)
        assert large_events > 3 * small_events
        # Identical chunk size -> comparable peak; allow generous slack
        # for allocator noise, but nowhere near the 4x event growth.
        assert large_peak < 2.0 * small_peak
