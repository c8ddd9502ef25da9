"""Crash-durable file primitives: atomicity and durability."""

from __future__ import annotations

import os
import stat

import pytest

from repro import durable
from repro.durable import atomic_write_bytes, fsync_directory


class TestAtomicWrites:
    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, [b"old"])
        atomic_write_bytes(path, [b"new"])
        assert path.read_bytes() == b"new"

    def test_write_failure_cleans_up_and_raises(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.bin"
        with pytest.raises(OSError):
            atomic_write_bytes(missing_dir, [b"data"])
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

    def test_file_and_directory_are_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(stat.S_IFMT(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(durable.os, "fsync", counting_fsync)
        atomic_write_bytes(tmp_path / "out.bin", [b"data"])
        # The file before its rename, then the directory holding it.
        assert synced == [stat.S_IFREG, stat.S_IFDIR]
