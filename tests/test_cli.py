"""CLI smoke tests (fast subcommands only)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "max relative error" in out

    def test_figure_1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_allocate(self, capsys):
        assert main(
            ["allocate", "--utility", "power", "--param", "0", "--top", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "greedy x_i" in out

    def test_simulate(self, capsys):
        assert main(
            [
                "simulate",
                "--protocol",
                "UNI",
                "--nodes",
                "10",
                "--items",
                "8",
                "--duration",
                "150",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "gain_rate" in out

    def test_trace_generation(self, capsys, tmp_path):
        output = tmp_path / "t.csv"
        assert main(
            [
                "trace",
                "poisson",
                "--nodes",
                "8",
                "--duration",
                "50",
                "--output",
                str(output),
            ]
        ) == 0
        assert output.exists()
        from repro.contacts import load_csv

        trace = load_csv(output)
        assert trace.n_nodes == 8

    def test_simulate_with_trace_and_manifest(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        manifest_path = tmp_path / "manifest.json"
        assert main(
            [
                "simulate",
                "--protocol",
                "OPT",
                "--nodes",
                "10",
                "--items",
                "8",
                "--duration",
                "150",
                "--trace-out",
                str(trace_path),
                "--manifest-out",
                str(manifest_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        lines = trace_path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "run_start"
        assert json.loads(lines[-1])["kind"] == "run_end"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["protocol"] == "OPT"
        assert "config_fingerprint" in manifest

    @pytest.fixture
    def recorded_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(
            [
                "simulate",
                "--protocol",
                "OPT",
                "--nodes",
                "15",
                "--items",
                "8",
                "--duration",
                "400",
                "--trace-out",
                str(path),
            ]
        ) == 0
        return path

    def test_trace_summary(self, capsys, recorded_trace):
        capsys.readouterr()
        assert main(["trace", "summary", str(recorded_trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "event kind" in out
        assert "fulfill" in out

    def test_trace_summary_json(self, capsys, recorded_trace):
        capsys.readouterr()
        assert main(["trace", "summary", str(recorded_trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["protocol"] == "OPT"
        assert summary["kind_counts"]["run_start"] == 1

    def test_trace_filter(self, capsys, recorded_trace, tmp_path):
        out_path = tmp_path / "filtered.jsonl"
        assert main(
            [
                "trace",
                "filter",
                str(recorded_trace),
                "--kind",
                "fulfill",
                "--output",
                str(out_path),
            ]
        ) == 0
        events = [
            json.loads(line) for line in out_path.read_text().splitlines()
        ]
        assert events
        assert all(e["kind"] == "fulfill" for e in events)

    def test_trace_convert_csv(self, capsys, recorded_trace, tmp_path):
        out_path = tmp_path / "events.csv"
        assert main(
            ["trace", "convert", str(recorded_trace), str(out_path)]
        ) == 0
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("seq,kind,t")

    def test_trace_cdf(self, capsys, recorded_trace):
        capsys.readouterr()
        assert main(
            ["trace", "cdf", str(recorded_trace), "--mu", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "Lemma 1" in out
        assert "max KS" in out

    def test_trace_cdf_missing_file(self, capsys):
        assert main(["trace", "cdf", "no-such.jsonl", "--mu", "0.05"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_churn(self, capsys):
        assert main(
            [
                "churn",
                "--nodes",
                "10",
                "--items",
                "8",
                "--duration",
                "300",
                "--crash-time",
                "100",
                "--recover-time",
                "150",
                "--record-interval",
                "50",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "crash wave: 5/10 nodes at t=100" in out
        assert "replica-count timeline" in out
        assert "OPT" in out and "QCR" in out

    def test_churn_bad_crash_fraction_rejected(self, capsys):
        assert main(["churn", "--crash-fraction", "1.5"]) == 1
        assert "--crash-fraction" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize("identical", [True, False])
    def test_bench_gate_checks_allocation_identity(
        self, capsys, monkeypatch, tmp_path, identical
    ):
        """--min-speedup fails when lazy and textbook greedy disagree."""
        import repro.cli as cli

        report = {
            "engine": {
                "min_speedup": 3.0,
                "cases": [{"protocol": "OPT", "bit_identical": True}],
            },
            "streamed": {
                "bit_identical": True,
                "streamed_events_per_sec": 1e6,
            },
            "sweep_amortization": {
                "sweep": {"bit_identical": True, "speedup": 1.3}
            },
            "allocation": {"identical_allocation": identical},
        }
        monkeypatch.setattr(cli, "run_speed_benchmark", lambda **_: report)
        monkeypatch.setattr(cli, "render_speed_report", lambda _: "report")
        output = str(tmp_path / "bench.json")
        status = main(["bench", "--output", output, "--min-speedup", "1.5"])
        err = capsys.readouterr().err
        assert status == (0 if identical else 1)
        assert ("non-bit-identical cases: allocation" in err) != identical


class TestSweepCli:
    def test_sweep_manifest_metrics_convert(
        self, capsys, tmp_path, monkeypatch
    ):
        """``repro metrics`` converts a sweep manifest's embedded snapshot."""
        from repro.experiments import homogeneous_scenario, run_scenario
        from repro.obs import metrics as obs_metrics
        from repro.utility import StepUtility

        scenario = homogeneous_scenario(
            StepUtility(5.0),
            n_nodes=6,
            n_items=4,
            rho=2,
            duration=60.0,
            record_interval=None,
        )
        monkeypatch.setenv(obs_metrics.ENV_VAR, "1")
        obs_metrics.reset_registry()
        try:
            result = run_scenario(
                scenario,
                n_trials=1,
                base_seed=3,
                include=("OPT", "UNI"),
                run_cache=False,
            )
        finally:
            obs_metrics.reset_registry()
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(result.manifest))

        assert main(["metrics", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sim_runs_total counter" in out
        assert 'repro_sim_runs_total{protocol="UNI"} 1' in out

        converted = tmp_path / "snap.prom"
        assert main(["metrics", str(manifest), "-o", str(converted)]) == 0
        assert "wrote prometheus snapshot" in capsys.readouterr().out
        assert "# TYPE repro_sim_runs_total counter" in converted.read_text()
        assert main(["metrics", str(manifest), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["repro_sim_runs_total"]["kind"] == "counter"

    def test_metrics_on_non_snapshot_fails(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"nested": {"not": "metrics"}}')
        assert main(["metrics", str(path)]) == 1
        assert "metrics snapshot" in capsys.readouterr().err
