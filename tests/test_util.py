import os

import pytest

from subner import util
from subner.errors import NotUtf8
from subner.util import atomic_write_bytes, parse_kv_file, read_text


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


def test_read_text_reads_line_ends_as_text_mode_does(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\r\nपु\rb\n\nc".encode("utf-8"))
    with open(path, "r", encoding="utf-8") as fh:
        assert read_text(path) == fh.read() == "a\nपु\nb\n\nc"


def test_parse_kv_file_names_a_non_utf8_file(tmp_path):
    path = tmp_path / "settings.cfg"
    good = "seed = 1\n# पु\nx = ".encode("utf-8")  # 22 bytes, 18 characters
    path.write_bytes(good + b"\xc3(\n")
    with pytest.raises(NotUtf8) as info:
        parse_kv_file(path)
    assert info.value.offset == 22
    assert str(info.value) == (f"{path}: not UTF-8 at byte offset 22 "
                               f"(0xc3: invalid continuation byte)")


def test_one_blas_thread_sets_one_and_restores_the_count(blas_threads):
    before = blas_threads()
    assert before == 2
    with pytest.raises(KeyError):
        with util.one_blas_thread():
            assert blas_threads() == 1
            with util.one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
            raise KeyError("in the block")
    assert blas_threads() == before
