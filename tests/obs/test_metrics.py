"""The metrics registry and its exporters.

Covers the exporters' guarantees: Prometheus text exposition
with correct label escaping and monotone cumulative buckets, a
``# HELP``/``# TYPE`` round trip through :func:`parse_prometheus`,
snapshot coercion, and the tracer-style enable/disable resolution.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import metrics as m


@pytest.fixture(autouse=True)
def _fresh_registry():
    m.reset_registry()
    m.set_enabled(None)
    yield
    m.reset_registry()
    m.set_enabled(None)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def test_counter_monotone():
    c = m.Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_set_and_add():
    g = m.Gauge()
    g.set(4.0)
    g.add(-1.5)
    assert g.value == 2.5


def test_histogram_buckets_inclusive_upper_edges():
    h = m.Histogram(bounds=(1.0, 10.0))
    for value in (0.5, 1.0, 5.0, 10.0, 11.0):
        h.observe(value)
    cumulative = h.cumulative_buckets()
    assert cumulative == [(1.0, 2), (10.0, 4), (math.inf, 5)]
    assert h.count == 5
    assert h.sum == pytest.approx(27.5)


def test_histogram_cumulative_counts_are_monotone():
    h = m.Histogram(bounds=m.exponential_buckets(1.0, 2.0, 8))
    for k in range(200):
        h.observe(float(k))
    counts = [n for _, n in h.cumulative_buckets()]
    assert counts == sorted(counts)
    assert counts[-1] == 200


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        m.Histogram(bounds=())
    with pytest.raises(ValueError):
        m.Histogram(bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        m.Histogram(bounds=(1.0, math.inf))


def test_exponential_buckets_shape():
    assert m.exponential_buckets(1.0, 4.0, 3) == (1.0, 4.0, 16.0)
    with pytest.raises(ValueError):
        m.exponential_buckets(0.0, 2.0, 3)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
def test_registry_get_or_create_returns_same_child():
    reg = m.MetricsRegistry()
    first = reg.counter("repro_test_total", labels={"proto": "QCR"})
    second = reg.counter("repro_test_total", labels={"proto": "QCR"})
    assert first is second
    other = reg.counter("repro_test_total", labels={"proto": "UNI"})
    assert other is not first
    assert len(reg) == 1


def test_registry_rejects_kind_and_label_mismatch():
    reg = m.MetricsRegistry()
    reg.counter("repro_thing_total")
    with pytest.raises(ValueError):
        reg.gauge("repro_thing_total")
    reg.gauge("repro_depth", labels={"state": "pending"})
    with pytest.raises(ValueError):
        reg.gauge("repro_depth", labels={"other": "x"})


def test_registry_rejects_invalid_names():
    reg = m.MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("bad name")
    with pytest.raises(ValueError):
        reg.counter("repro_ok_total", labels={"bad-label": "x"})


def test_snapshot_shape():
    reg = m.MetricsRegistry()
    reg.counter("repro_runs_total", help="runs").inc(3)
    reg.histogram("repro_sizes", buckets=(1.0, 2.0)).observe(1.5)
    snap = reg.snapshot()
    assert snap["repro_runs_total"]["kind"] == "counter"
    assert snap["repro_runs_total"]["series"][0]["value"] == 3.0
    hist = snap["repro_sizes"]["series"][0]
    assert hist["count"] == 1
    assert hist["buckets"][-1][0] == "+Inf"
    assert hist["buckets"][-1][1] == 1
    # Snapshot is JSON-clean.
    json.dumps(snap)


# ----------------------------------------------------------------------
# enable/disable resolution
# ----------------------------------------------------------------------
def test_enabled_resolution_env_and_override(monkeypatch):
    monkeypatch.delenv(m.ENV_VAR, raising=False)
    assert m.metrics_enabled() is False
    assert m.enabled_registry() is None
    monkeypatch.setenv(m.ENV_VAR, "1")
    assert m.metrics_enabled() is True
    assert m.enabled_registry() is m.registry()
    # Programmatic override beats the environment.
    m.set_enabled(False)
    assert m.enabled_registry() is None
    m.set_enabled(True)
    monkeypatch.delenv(m.ENV_VAR, raising=False)
    assert m.enabled_registry() is m.registry()


def test_env_value_spellings(monkeypatch):
    for value in ("1", "true", "YES", "On"):
        monkeypatch.setenv(m.ENV_VAR, value)
        assert m.metrics_enabled() is True
    for value in ("", "0", "off", "no", "false"):
        monkeypatch.setenv(m.ENV_VAR, value)
        assert m.metrics_enabled() is False


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_render_prometheus_basics():
    reg = m.MetricsRegistry()
    reg.counter("repro_runs_total", help="completed runs").inc(2)
    reg.gauge("repro_depth", labels={"state": "pending"}).set(4)
    text = reg.to_prometheus()
    assert "# HELP repro_runs_total completed runs" in text
    assert "# TYPE repro_runs_total counter" in text
    assert "repro_runs_total 2" in text
    assert 'repro_depth{state="pending"} 4' in text
    assert text.endswith("\n")


def test_render_prometheus_escapes_labels():
    reg = m.MetricsRegistry()
    nasty = 'a\\b"c\nd'
    reg.counter("repro_esc_total", labels={"who": nasty}).inc()
    text = reg.to_prometheus()
    assert '{who="a\\\\b\\"c\\nd"}' in text
    parsed = m.parse_prometheus(text)
    sample = parsed["repro_esc_total"]["samples"][0]
    assert sample["labels"]["who"] == nasty


def test_render_prometheus_histogram_buckets_monotone():
    reg = m.MetricsRegistry()
    h = reg.histogram("repro_chunk_events", buckets=(1.0, 4.0, 16.0))
    for value in (0.5, 3.0, 3.0, 20.0):
        h.observe(value)
    text = reg.to_prometheus()
    parsed = m.parse_prometheus(text)
    buckets = [
        sample
        for sample in parsed["repro_chunk_events"]["samples"]
        if sample["name"] == "repro_chunk_events_bucket"
    ]
    counts = [sample["value"] for sample in buckets]
    assert counts == sorted(counts)
    assert buckets[-1]["labels"]["le"] == "+Inf"
    assert counts[-1] == 4
    by_name = {
        sample["name"]: sample["value"]
        for sample in parsed["repro_chunk_events"]["samples"]
        if sample["name"] != "repro_chunk_events_bucket"
    }
    assert by_name["repro_chunk_events_count"] == 4
    assert by_name["repro_chunk_events_sum"] == pytest.approx(26.5)


def test_parse_prometheus_round_trips_help_and_type():
    reg = m.MetricsRegistry()
    reg.counter("repro_a_total", help="first\nline two").inc()
    reg.histogram("repro_b", help="a histogram", buckets=(1.0,)).observe(0.5)
    parsed = m.parse_prometheus(reg.to_prometheus())
    assert parsed["repro_a_total"]["kind"] == "counter"
    assert parsed["repro_a_total"]["help"] == "first\nline two"
    assert parsed["repro_b"]["kind"] == "histogram"
    # Histogram samples attach to the base family, not fake families.
    assert "repro_b_bucket" not in parsed
    assert "repro_b_sum" not in parsed


def test_parse_prometheus_rejects_malformed_lines():
    with pytest.raises(ValueError):
        m.parse_prometheus("!!! not exposition format")


# ----------------------------------------------------------------------
# snapshot coercion
# ----------------------------------------------------------------------
def test_coerce_snapshot_passthrough_and_unwrap():
    reg = m.MetricsRegistry()
    reg.counter("repro_runs_total").inc()
    snap = reg.snapshot()
    assert m.coerce_snapshot(snap) == snap
    assert m.coerce_snapshot({"executor": "serial", "metrics": snap}) == snap


def test_coerce_snapshot_synthesizes_manifest_gauges():
    snap = m.coerce_snapshot({"n_fulfilled": 12, "total_gain": 3.5})
    assert set(snap) == {
        "repro_manifest_n_fulfilled",
        "repro_manifest_total_gain",
    }
    assert snap["repro_manifest_n_fulfilled"]["kind"] == "gauge"
    text = m.render_prometheus(snap)
    assert "repro_manifest_n_fulfilled 12" in text


def test_coerce_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        m.coerce_snapshot({"nested": {"not": "metrics"}})
    with pytest.raises(ValueError):
        m.coerce_snapshot({})
