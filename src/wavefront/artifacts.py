"""On-disk formats: atomic file writes, CSV rows and the checkpoint container
(named float64 tensors plus a JSON header). Nothing here knows the model."""

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError

_CKPT_MAGIC = b"WFCP"
_CKPT_VERSION = 3


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temp file in path's directory, then
    os.replace it onto path. A write that fails leaves an earlier file at
    path intact and removes the temp file. An OSError with an errno, from
    the write or the rename, is raised again with that errno naming path
    alone, not the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):  # also when tmp was never made
            tmp.unlink()
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, str(path)) from e
        raise


def write_csv(path, rows, header: str | None = None) -> None:
    """Write the rows as CSV, atomically (write_atomic); floats by repr."""
    lines = [header] if header else []
    lines += [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    write_atomic(path, ["".join(line + "\n" for line in lines).encode()])


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Versioned binary container: named float64 tensors plus a JSON header
    recording the config, its hash, seed, and epoch. Round-trips bit-exactly.
    Version 3 stores parameters only, no optimizer velocities."""
    names = sorted(tensors)
    arrays = [np.ascontiguousarray(tensors[n], dtype="<f8") for n in names]
    entries = [{"name": n, "shape": list(a.shape)} for n, a in zip(names, arrays)]
    header = json.dumps(
        {"version": _CKPT_VERSION, "meta": meta, "tensors": entries},
        sort_keys=True,
    ).encode()
    head = [_CKPT_MAGIC, struct.pack("<IQ", _CKPT_VERSION, len(header)), header]
    write_atomic(path, head + arrays)


def _tensor_entries(path, header, n_payload: int) -> list[tuple[str, tuple]]:
    """(name, shape) of each tensor a checkpoint header lists, once the
    header has the schema save_checkpoint writes and its tensors fill the
    n_payload bytes after it exactly; ConfigError naming the file if not."""

    def invalid(what):
        return ConfigError(f"{path}: invalid checkpoint header: {what}")

    if not isinstance(header, dict):
        raise invalid("not a JSON object")
    meta, listed = header.get("meta"), header.get("tensors")
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise invalid("'meta.config' is not an object")
    if not isinstance(listed, list):
        raise invalid("'tensors' is not a list")
    entries: dict[str, tuple] = {}
    for i, entry in enumerate(listed):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name in entries:
            raise invalid(f"tensor {i} has a missing or repeated name")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise invalid(f"tensor '{name}' has shape {shape!r}, not a list of sizes")
        entries[name] = tuple(shape)
    n_bytes = sum(8 * math.prod(shape) for shape in entries.values())
    if n_bytes != n_payload:
        raise invalid(f"its tensors take {n_bytes} bytes but {n_payload} follow it")
    return list(entries.items())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors and meta of a checkpoint written by save_checkpoint. A file
    that breaks the format, its header schema included, raises ConfigError
    naming it; nothing is read past a length before it is checked against
    the file size."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise ConfigError(f"{path} is not a checkpoint file")
        fixed = fh.read(12)
        if len(fixed) != 12:
            raise ConfigError(f"{path} is truncated inside its checkpoint header")
        version, header_len = struct.unpack("<IQ", fixed)
        if version != _CKPT_VERSION:
            raise ConfigError(
                f"{path}: checkpoint version {version}, this build reads only "
                f"version {_CKPT_VERSION}"
            )
        n_rest = os.fstat(fh.fileno()).st_size - 16
        if header_len > n_rest:
            raise ConfigError(
                f"{path}: header length {header_len} exceeds the {n_rest} bytes left"
            )
        try:
            header = json.loads(fh.read(header_len).decode())
        except ValueError as e:
            raise ConfigError(f"{path}: checkpoint header is not JSON: {e}") from e
        tensors = {}
        for name, shape in _tensor_entries(path, header, n_rest - header_len):
            blob = fh.read(8 * math.prod(shape))
            tensors[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    return tensors, header["meta"]
