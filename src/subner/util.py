"""Small shared helpers: text file reads, flat key=value config parsing,
atomic file writes, and the one-BLAS-thread scope (`one_blas_thread`)."""

import contextlib
import ctypes
import dataclasses
import functools
import os

from .errors import InvalidConfig, NotUtf8


def read_text(path):
    """The UTF-8 text of the file at `path`, with CRLF and lone CR line ends
    read as LF, as text-mode `open` reads them. Bytes that are not UTF-8
    raise NotUtf8 naming the file and the offset of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(path, exc) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    return parse_kv_text(read_text(path))


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


@functools.cache
def _openblas_threads():
    """(getter, setter) of the thread count of the OpenBLAS that numpy
    loaded, found through /proc/self/maps once per process (a read takes
    0.25-0.9 ms); None where no maps, library or pair is found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(op), None)
                         for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Runs its block with numpy's OpenBLAS on one thread (more threads may
    change a product's last bits with the core count) and restores the count
    it found, also on a raise; a no-op where none is found. The count is
    process-wide: two Python threads that train at once share it."""
    get, set_ = _openblas_threads() or (lambda: 1, lambda count: None)
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)
