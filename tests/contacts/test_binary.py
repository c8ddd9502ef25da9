"""The binary on-disk trace format: round-trips, memmaps, corruption."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.contacts import (
    BinaryTraceWriter,
    ContactTrace,
    detect_trace_format,
    homogeneous_poisson_trace,
    is_binary_trace,
    load_binary,
    load_contact_trace,
    load_csv,
    save_binary,
    save_csv,
    save_jsonl,
)
from repro.errors import TraceFormatError
from repro.simcache.fingerprint import fingerprint_trace


@pytest.fixture
def trace():
    return homogeneous_poisson_trace(12, 0.2, 50.0, seed=4)


def assert_traces_equal(a: ContactTrace, b: ContactTrace) -> None:
    assert a.n_nodes == b.n_nodes
    assert a.duration == b.duration
    assert np.array_equal(np.asarray(a.times), np.asarray(b.times))
    assert np.array_equal(np.asarray(a.node_a), np.asarray(b.node_a))
    assert np.array_equal(np.asarray(a.node_b), np.asarray(b.node_b))


class TestRoundTrip:
    def test_save_load(self, trace, tmp_path):
        path = tmp_path / "t.ctb"
        save_binary(trace, path)
        assert is_binary_trace(path)
        assert_traces_equal(trace, load_binary(path))

    def test_memmap_by_default(self, trace, tmp_path):
        path = tmp_path / "t.ctb"
        save_binary(trace, path)
        loaded = load_binary(path)
        assert isinstance(loaded.times, np.memmap)
        assert isinstance(loaded.node_a, np.memmap)
        ram = load_binary(path, mmap=False)
        assert not isinstance(ram.times, np.memmap)
        assert_traces_equal(loaded, ram)

    def test_empty_trace(self, tmp_path):
        empty = ContactTrace(
            times=np.array([]),
            node_a=np.array([], dtype=np.int64),
            node_b=np.array([], dtype=np.int64),
            n_nodes=3,
            duration=5.0,
        )
        path = tmp_path / "empty.ctb"
        save_binary(empty, path)
        assert_traces_equal(empty, load_binary(path))

    def test_chunked_write_equals_single_write(self, trace, tmp_path):
        one = tmp_path / "one.ctb"
        many = tmp_path / "many.ctb"
        save_binary(trace, one, chunk_events=len(trace) + 1)
        save_binary(trace, many, chunk_events=7)
        a, b = load_binary(one), load_binary(many)
        assert_traces_equal(a, b)
        assert fingerprint_trace(a) == fingerprint_trace(b)

    def test_float_duration_round_trips_exactly(self, tmp_path):
        duration = 0.1 + 0.2  # not exactly representable in decimal
        t = ContactTrace(
            times=np.array([0.05]),
            node_a=np.array([0]),
            node_b=np.array([1]),
            n_nodes=2,
            duration=duration,
        )
        path = tmp_path / "f.ctb"
        save_binary(t, path)
        assert load_binary(path).duration == duration


class TestFingerprint:
    def test_binary_fingerprint_matches_csv_source(self, trace, tmp_path):
        """simcache must treat a converted trace as the same input."""
        csv_path = tmp_path / "t.csv"
        save_csv(trace, csv_path)
        from_csv = load_csv(csv_path)
        bin_path = tmp_path / "t.ctb"
        save_binary(from_csv, bin_path)
        assert fingerprint_trace(load_binary(bin_path)) == fingerprint_trace(
            from_csv
        )


class TestWriter:
    def test_rejects_out_of_order_chunks(self, tmp_path):
        with BinaryTraceWriter(
            tmp_path / "w.ctb", n_nodes=4, duration=10.0
        ) as writer:
            writer.append(
                np.array([2.0]), np.array([0]), np.array([1])
            )
            with pytest.raises(TraceFormatError, match="non-decreasing"):
                writer.append(
                    np.array([1.0]), np.array([0]), np.array([1])
                )

    def test_rejects_bad_ids_and_self_contacts(self, tmp_path):
        writer = BinaryTraceWriter(
            tmp_path / "w.ctb", n_nodes=4, duration=10.0
        )
        with pytest.raises(TraceFormatError, match="self-contacts"):
            writer.append(np.array([1.0]), np.array([2]), np.array([2]))
        with pytest.raises(TraceFormatError, match="n_nodes"):
            writer.append(np.array([1.0]), np.array([0]), np.array([9]))

    def test_canonicalizes_pair_order(self, tmp_path):
        path = tmp_path / "w.ctb"
        with BinaryTraceWriter(path, n_nodes=4, duration=10.0) as writer:
            writer.append(np.array([1.0]), np.array([3]), np.array([0]))
        loaded = load_binary(path)
        assert int(loaded.node_a[0]) == 0
        assert int(loaded.node_b[0]) == 3

    def test_aborted_write_leaves_no_header(self, tmp_path):
        path = tmp_path / "w.ctb"
        try:
            with BinaryTraceWriter(path, n_nodes=4, duration=10.0) as writer:
                writer.append(
                    np.array([1.0]), np.array([0]), np.array([1])
                )
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not is_binary_trace(path)
        with pytest.raises(TraceFormatError, match="header"):
            load_binary(path)

    def test_aborted_overwrite_leaves_nothing_loadable(self, trace, tmp_path):
        """Columns appear only on close and the old header goes first, so
        a writer killed while overwriting a trace never leaves the old
        header over new, partial columns."""
        path = tmp_path / "w.ctb"
        save_binary(trace, path)
        writer = BinaryTraceWriter(path, n_nodes=4, duration=10.0)
        writer.append(np.array([1.0]), np.array([0]), np.array([1]))
        assert not is_binary_trace(path)
        # The committed columns are still the old trace's, byte for byte.
        old = np.fromfile(path / "times.f8", dtype="<f8")
        assert np.array_equal(old, np.asarray(trace.times))
        writer._close_handles()  # what __exit__ does on an exception
        assert sorted(os.listdir(path)) == [
            "node_a.i8", "node_b.i8", "times.f8"
        ]
        with pytest.raises(TraceFormatError, match="header"):
            load_binary(path)


class TestCorruption:
    @pytest.fixture
    def path(self, trace, tmp_path):
        p = tmp_path / "t.ctb"
        save_binary(trace, p)
        return p

    def test_truncated_column_rejected(self, path):
        column = path / "times.f8"
        data = column.read_bytes()
        column.write_bytes(data[:-8])
        with pytest.raises(TraceFormatError, match="expected"):
            load_binary(path)

    def test_invalid_header_json_rejected(self, path):
        (path / "header.json").write_text("{not json")
        with pytest.raises(TraceFormatError, match="JSON"):
            load_binary(path)

    def test_wrong_format_name_rejected(self, path):
        header = json.loads((path / "header.json").read_text())
        header["format"] = "something-else"
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(TraceFormatError, match="header"):
            load_binary(path)

    def test_unsorted_column_content_rejected(self, path, trace):
        times = np.fromfile(path / "times.f8", dtype="<f8")
        times[0], times[-1] = times[-1], times[0]
        times.tofile(path / "times.f8")
        with pytest.raises(TraceFormatError, match="sorted"):
            load_binary(path)
        # validate=False trusts the columns and loads anyway
        assert len(load_binary(path, validate=False)) == len(trace)


class TestDetection:
    def test_detects_all_formats(self, trace, tmp_path):
        save_csv(trace, tmp_path / "t.csv")
        save_jsonl(trace, tmp_path / "t.jsonl")
        save_binary(trace, tmp_path / "t.ctb")
        assert detect_trace_format(tmp_path / "t.csv") == "csv"
        assert detect_trace_format(tmp_path / "t.jsonl") == "jsonl"
        assert detect_trace_format(tmp_path / "t.ctb") == "binary"

    def test_unknown_content_is_none(self, tmp_path):
        blob = tmp_path / "x.bin"
        blob.write_bytes(os.urandom(64))
        assert detect_trace_format(blob) is None

    def test_load_contact_trace_dispatches(self, trace, tmp_path):
        save_csv(trace, tmp_path / "t.csv")
        save_binary(trace, tmp_path / "t.ctb")
        assert_traces_equal(trace, load_contact_trace(tmp_path / "t.csv"))
        assert_traces_equal(trace, load_contact_trace(tmp_path / "t.ctb"))

    def test_load_contact_trace_rejects_unknown(self, tmp_path):
        blob = tmp_path / "x.bin"
        blob.write_bytes(os.urandom(64))
        with pytest.raises(TraceFormatError):
            load_contact_trace(blob)

    def test_missing_path_is_an_error_not_unrecognized(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(TraceFormatError, match="no such file"):
            detect_trace_format(missing)
        with pytest.raises(TraceFormatError, match="no such file"):
            load_contact_trace(missing)


class TestIterChunks:
    def test_chunks_partition_trace(self, trace):
        chunks = list(trace.iter_chunks(7))
        assert sum(len(c) for c in chunks) == len(trace)
        rejoined = np.concatenate([np.asarray(c.times) for c in chunks])
        assert np.array_equal(rejoined, np.asarray(trace.times))
        for chunk in chunks:
            assert chunk.n_nodes == trace.n_nodes
            assert chunk.duration == trace.duration

    def test_chunks_are_views(self, trace, tmp_path):
        save_binary(trace, tmp_path / "t.ctb")
        mm = load_binary(tmp_path / "t.ctb")
        for chunk in mm.iter_chunks(11):
            assert np.shares_memory(chunk.times, mm.times)
            assert np.shares_memory(chunk.node_a, mm.node_a)

    def test_chunk_size_validated(self, trace):
        with pytest.raises(TraceFormatError):
            next(trace.iter_chunks(0))
