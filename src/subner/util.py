"""Small shared helpers: flat key=value config parsing and atomic file writes."""

import dataclasses
import os

from .errors import InvalidConfig


def parse_kv_text(text):
    """Parse `key = value` lines into a dict.

    Blank lines and lines starting with '#' are ignored; a key given on two
    lines raises InvalidConfig naming it and both lines.
    """
    out, line_of = {}, {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise InvalidConfig(f"config key {key!r} repeated on lines "
                                f"{line_of[key]} and {line_no}")
        out[key] = value.strip()
        line_of[key] = line_no
    return out


def parse_kv_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read())


def parse_setting(key, value, parse):
    try:
        return parse(value)
    except ValueError as exc:
        raise InvalidConfig(f"config key {key!r}: {exc}") from exc


def dataclass_kwargs(cls, kv, parsers=None):
    """Keyword arguments for dataclass `cls` from flat key=value settings,
    each value parsed by `parsers[key]`, else by the type of its field's
    default; an unknown key or a value that does not parse raises
    InvalidConfig naming the key."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in kv.items():
        if key not in defaults:
            raise InvalidConfig(f"unknown config key {key!r}")
        parse = (parsers or {}).get(key) or type(defaults[key])
        kwargs[key] = parse_setting(key, value, parse)
    return kwargs


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, *chunks):
    """Replace `path` with the bytes-like `chunks`, in order, so that a reader
    sees the old file or the whole new one, also after a crash: the bytes go
    to a temp file of its own in the same directory, reach the disk, then
    are renamed over `path`."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
