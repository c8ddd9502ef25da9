"""Round-trip tests for contact-trace file formats."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.contacts import (
    ContactTrace,
    detect_trace_format,
    load_contact_trace,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
)
from repro.errors import TraceFormatError


@pytest.fixture
def trace():
    return ContactTrace(
        times=np.array([0.5, 1.25, 1.25, 9.75]),
        node_a=np.array([0, 1, 0, 2]),
        node_b=np.array([1, 2, 3, 3]),
        n_nodes=4,
        duration=10.0,
    )


def assert_traces_equal(a: ContactTrace, b: ContactTrace) -> None:
    assert a.n_nodes == b.n_nodes
    assert a.duration == b.duration
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.node_a, b.node_a)
    assert np.array_equal(a.node_b, b.node_b)


class TestCsv:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(trace, path)
        assert_traces_equal(trace, load_csv(path))

    def test_round_trip_empty(self, tmp_path):
        empty = ContactTrace(
            times=np.array([]),
            node_a=np.array([], dtype=np.int64),
            node_b=np.array([], dtype=np.int64),
            n_nodes=5,
            duration=3.0,
        )
        path = tmp_path / "empty.csv"
        save_csv(empty, path)
        assert_traces_equal(empty, load_csv(path))

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,node_a,node_b\n1.0,0,1\n")
        with pytest.raises(TraceFormatError):
            load_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("# n_nodes=2\n# duration=5.0\n1.0,0\n")
        with pytest.raises(TraceFormatError):
            load_csv(path)

    def test_exact_float_preservation(self, tmp_path):
        # repr round-trip keeps full float precision.
        trace = ContactTrace(
            times=np.array([0.1 + 0.2]),
            node_a=np.array([0]),
            node_b=np.array([1]),
            n_nodes=2,
            duration=1.0,
        )
        path = tmp_path / "precise.csv"
        save_csv(trace, path)
        assert load_csv(path).times[0] == trace.times[0]


class TestJsonl:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        assert_traces_equal(trace, load_jsonl(path))

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1.0, 0, 1]\n')
        with pytest.raises(TraceFormatError):
            load_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            load_jsonl(path)

    def test_formats_interchangeable(self, trace, tmp_path):
        csv_path = tmp_path / "a.csv"
        jsonl_path = tmp_path / "a.jsonl"
        save_csv(trace, csv_path)
        save_jsonl(trace, jsonl_path)
        assert_traces_equal(load_csv(csv_path), load_jsonl(jsonl_path))


def _corrupt_line(path, line_number: int, replacement: str) -> None:
    """Replace one line of a written fixture with corrupt content."""
    lines = path.read_text().splitlines()
    lines[line_number - 1] = replacement
    path.write_text("\n".join(lines) + "\n")


class TestCorruptCsv:
    """A valid fixture with one corrupted row must fail with location info."""

    @pytest.fixture
    def path(self, trace, tmp_path):
        p = tmp_path / "trace.csv"
        save_csv(trace, p)
        return p  # rows are lines 4-7 (after two headers + column row)

    @pytest.mark.parametrize(
        "row, match",
        [
            ("oops,0,1", "non-numeric"),
            ("1.0,zero,1", "non-numeric"),
            ("1.0,0,", "non-numeric"),
            ("nan,0,1", "finite"),
            ("inf,0,1", "finite"),
            ("-1.0,0,1", "finite"),
            ("1.0,-1,1", "negative node id"),
            ("1.0,0,-2", "negative node id"),
            ("1.0,4,1", "out of range"),
            ("1.0,0,99", "out of range"),
        ],
    )
    def test_corrupt_row_rejected(self, path, row, match):
        _corrupt_line(path, 5, row)
        with pytest.raises(TraceFormatError, match=match):
            load_csv(path)

    def test_error_names_offending_line(self, path):
        _corrupt_line(path, 6, "bad,0,1")
        with pytest.raises(TraceFormatError, match=r":6:"):
            load_csv(path)

    def test_non_numeric_metadata_rejected(self, path):
        _corrupt_line(path, 1, "# n_nodes=many")
        with pytest.raises(TraceFormatError, match="n_nodes"):
            load_csv(path)

    def test_uncorrupted_fixture_still_loads(self, trace, path):
        assert_traces_equal(trace, load_csv(path))


class TestCorruptJsonl:
    """A valid fixture with one corrupted line must fail with location info."""

    @pytest.fixture
    def path(self, trace, tmp_path):
        p = tmp_path / "trace.jsonl"
        save_jsonl(trace, p)
        return p  # records are lines 2-5 (after the header object)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("[1.0, 0", "invalid JSON"),
            ('{"t": 1.0}', "triple"),
            ("[1.0, 0, 1, 2]", "triple"),
            ('["one", 0, 1]', "non-numeric"),
            ("[1.0, null, 1]", "non-numeric"),
            ("[NaN, 0, 1]", "finite"),
            ("[-0.5, 0, 1]", "finite"),
            ("[1.0, 1.5, 2]", "non-integer node id"),
            ("[1.0, -3, 1]", "negative node id"),
            ("[1.0, 0, 4]", "out of range"),
        ],
    )
    def test_corrupt_record_rejected(self, path, line, match):
        _corrupt_line(path, 3, line)
        with pytest.raises(TraceFormatError, match=match):
            load_jsonl(path)

    def test_error_names_offending_line(self, path):
        _corrupt_line(path, 4, "not json")
        with pytest.raises(TraceFormatError, match=r":4:"):
            load_jsonl(path)

    def test_corrupt_header_rejected(self, path):
        _corrupt_line(path, 1, "{broken")
        with pytest.raises(TraceFormatError, match="invalid JSON header"):
            load_jsonl(path)

    def test_non_numeric_header_fields_rejected(self, path):
        _corrupt_line(
            path,
            1,
            '{"format": "repro-contact-trace", "version": 1,'
            ' "n_nodes": "lots", "duration": 10.0}',
        )
        with pytest.raises(TraceFormatError, match="numeric n_nodes"):
            load_jsonl(path)

    def test_uncorrupted_fixture_still_loads(self, trace, path):
        assert_traces_equal(trace, load_jsonl(path))


class TestDetection:
    def test_detects_all_formats(self, trace, tmp_path):
        save_csv(trace, tmp_path / "t.csv")
        save_jsonl(trace, tmp_path / "t.jsonl")
        assert detect_trace_format(tmp_path / "t.csv") == "csv"
        assert detect_trace_format(tmp_path / "t.jsonl") == "jsonl"

    def test_unknown_content_is_none(self, tmp_path):
        blob = tmp_path / "x.bin"
        blob.write_bytes(os.urandom(64))
        assert detect_trace_format(blob) is None

    def test_load_contact_trace_dispatches(self, trace, tmp_path):
        save_csv(trace, tmp_path / "t.csv")
        save_jsonl(trace, tmp_path / "t.jsonl")
        assert_traces_equal(trace, load_contact_trace(tmp_path / "t.csv"))
        assert_traces_equal(trace, load_contact_trace(tmp_path / "t.jsonl"))

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

    def test_directory_is_not_a_contact_trace(self, tmp_path):
        (tmp_path / "times.f8").write_bytes(b"\0" * 8)
        assert detect_trace_format(tmp_path) is None
        with pytest.raises(TraceFormatError) as excinfo:
            load_contact_trace(tmp_path)
        assert str(tmp_path) in str(excinfo.value)
