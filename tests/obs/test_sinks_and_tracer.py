"""Sinks and the Tracer: emission, sequencing, lifecycle."""

import io
import json

import pytest

from repro.obs import JsonlSink, MemorySink, NullSink, Tracer, events


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def test_null_sink_is_inactive():
    sink = NullSink()
    assert sink.active is False
    sink.emit({"kind": "x"})  # swallowed, no error
    sink.flush()
    sink.close()


def test_memory_sink_unbounded():
    sink = MemorySink()
    for k in range(5):
        sink.emit({"seq": k})
    assert sink.n_emitted == 5
    assert len(sink) == 5
    assert [e["seq"] for e in sink.events] == [0, 1, 2, 3, 4]


def test_memory_sink_ring_keeps_most_recent():
    sink = MemorySink(capacity=3)
    for k in range(10):
        sink.emit({"seq": k})
    assert sink.n_emitted == 10
    assert [e["seq"] for e in sink.events] == [7, 8, 9]


def test_memory_sink_clear():
    sink = MemorySink()
    sink.emit({"seq": 0})
    sink.clear()
    assert len(sink) == 0
    assert sink.n_emitted == 0


def test_memory_sink_rejects_bad_capacity():
    with pytest.raises(ValueError):
        MemorySink(capacity=0)


def test_memory_sink_snapshot_copies_events():
    sink = MemorySink()
    sink.emit({"seq": 0, "kind": "x"})
    copies = sink.snapshot()
    copies[0]["kind"] = "mutated"
    copies.append({"seq": 1})
    # The buffer is untouched: snapshot() is the mutation-safe view,
    # unlike the aliased .events property.
    assert sink.events[0]["kind"] == "x"
    assert len(sink) == 1


def test_jsonl_sink_writes_compact_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlSink(str(path)) as sink:
        sink.emit({"seq": 0, "kind": "run_start", "t": 0.0})
        sink.emit({"seq": 1, "kind": "request", "t": 1.5, "item": 3})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1]) == {
        "seq": 1,
        "kind": "request",
        "t": 1.5,
        "item": 3,
    }
    assert ": " not in lines[0]  # compact separators


def test_jsonl_sink_borrowed_stream_left_open():
    stream = io.StringIO()
    sink = JsonlSink(stream)
    sink.emit({"seq": 0})
    sink.close()
    assert not stream.closed
    assert json.loads(stream.getvalue()) == {"seq": 0}


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_tracer_assigns_monotonic_seq_and_stamps_fields():
    tracer = Tracer.in_memory()
    tracer.emit("request", 1.0, item=2, node=3)
    tracer.emit("fulfill", 2.5, item=2, node=3, server=1, delay=1.5,
                gain=1.0, counter=1)
    recorded = tracer.sink.events
    assert [e["seq"] for e in recorded] == [0, 1]
    assert recorded[0] == {
        "seq": 0, "kind": "request", "t": 1.0, "item": 2, "node": 3,
    }
    for event in recorded:
        events.validate_event(event)


def test_tracer_merges_meta_into_every_event():
    tracer = Tracer.in_memory(meta={"trial": 7, "protocol": "QCR"})
    tracer.emit("request", 0.5, item=0, node=1)
    (event,) = tracer.sink.events
    assert event["trial"] == 7
    assert event["protocol"] == "QCR"


def test_disabled_tracer_is_inactive():
    tracer = Tracer.disabled()
    assert tracer.active is False


def test_tracer_to_jsonl_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    with Tracer.to_jsonl(str(path)) as tracer:
        assert tracer.active
        tracer.emit("replica_drop", 3.0, node=4, item=1)
    event = json.loads(path.read_text())
    events.validate_event(event)
    assert event["kind"] == "replica_drop"


# ----------------------------------------------------------------------
# event schema
# ----------------------------------------------------------------------
def test_validate_event_rejects_missing_universal_keys():
    with pytest.raises(ValueError, match="missing 't'"):
        events.validate_event({"seq": 0, "kind": "request"})


def test_validate_event_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown trace event kind"):
        events.validate_event({"seq": 0, "kind": "nope", "t": 0.0})


def test_validate_event_rejects_missing_payload_fields():
    with pytest.raises(ValueError, match="missing field"):
        events.validate_event(
            {"seq": 0, "kind": "fulfill", "t": 1.0, "item": 0, "node": 1}
        )


def test_every_kind_constant_has_a_schema():
    kinds = {
        getattr(events, name)
        for name in events.__all__
        if name.isupper() and isinstance(getattr(events, name), str)
        and name not in ("EVENT_FIELDS", "LIFECYCLE_KINDS")
    }
    assert kinds == set(events.EVENT_FIELDS)
