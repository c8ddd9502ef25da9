"""Crash-durable file primitives: atomicity and durability."""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro import durable
from repro.durable import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_directory,
)


class TestAtomicWrites:
    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"a": 1, "b": [1.5, None, "x"]}
        atomic_write_json(path, payload)
        assert json.loads(path.read_text()) == payload

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "data")
        atomic_write_json(tmp_path / "out.json", {"k": "v"}, fsync=False)
        names = sorted(os.listdir(tmp_path))
        assert names == ["out.json", "out.txt"]

    def test_write_failure_cleans_up_and_raises(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.txt"
        with pytest.raises(OSError):
            atomic_write_text(missing_dir, "data")
        assert not (tmp_path / "nope").exists()

    def test_fsync_directory_tolerates_missing_path(self, tmp_path):
        fsync_directory(tmp_path / "does-not-exist")  # must not raise


class TestAtomicWriteBytes:
    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        chunks = [b"\x00magic", bytearray(b"head"), memoryview(b"body"), b""]
        atomic_write_bytes(path, chunks)
        assert path.read_bytes() == b"\x00magicheadbody"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_write_keeps_old_target_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, [b"old"])

        def chunks():
            yield b"new, half"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(path, chunks())
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("fsync", [True, False])
    def test_file_and_directory_are_fsynced(self, tmp_path, monkeypatch, fsync):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(stat.S_IFMT(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(durable.os, "fsync", counting_fsync)
        atomic_write_bytes(tmp_path / "out.bin", [b"data"], fsync=fsync)
        # The file before its rename, then the directory holding it.
        assert synced == ([stat.S_IFREG, stat.S_IFDIR] if fsync else [])
