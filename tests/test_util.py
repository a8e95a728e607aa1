import os

import pytest

from subner import util
from subner.util import atomic_write_bytes


def test_atomic_write_ignores_a_stale_tmp_directory(tmp_path):
    path = tmp_path / "out.bin"
    (tmp_path / "out.bin.tmp").mkdir()
    atomic_write_bytes(path, b"new")
    atomic_write_bytes(path, b"newer")
    assert path.read_bytes() == b"newer"
    assert sorted(os.listdir(tmp_path)) == ["out.bin", "out.bin.tmp"]


def test_atomic_write_syncs_before_replacing(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace
    monkeypatch.setattr(util.os, "fsync",
                        lambda fd: events.append("fsync") or fsync(fd))
    monkeypatch.setattr(util.os, "replace",
                        lambda a, b: events.append("replace") or replace(a, b))
    atomic_write_bytes(tmp_path / "out.bin", b"data")
    assert events == ["fsync", "replace"]


def test_atomic_write_failure_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]
