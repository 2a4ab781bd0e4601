"""Portable tensor container file.

Layout, byte-exact:

    bytes 0..7    magic "LACTNSR1" (ASCII)
    bytes 8..11   header length H, unsigned 32-bit little-endian
    bytes 12..12+H-1
                  UTF-8 JSON object mapping tensor name ->
                  {"offset": int, "shape": [int, ...], "dtype": "f32"},
                  compact separators, keys sorted
    remainder     payload: little-endian float32 values, row-major;
                  offset is the byte position of a tensor within the
                  payload region

Tensors are packed in sorted-name order with no gaps, so each offset
equals the byte sum of the tensors sorted before it and the payload
length equals the sum of all tensor byte sizes. The loader enforces
both, and accepts only the header bytes save_container writes for the
tensors it reads: no whitespace, no repeated names, and every
character outside printable ASCII escaped as \\uXXXX.

The loader reads the payload once, into one new float32 array, and
each tensor it returns is a view of that array, so a load holds one
copy of the weights. The payload size comes from the open file, so a
container must be a regular file: a pipe is refused, and so is a file
that holds fewer bytes than its size said. The saver converts every
tensor before it opens the file, then writes each from its own memory.
"""

from __future__ import annotations

import json
import math
import os
import stat

import numpy as np

from .errors import ContainerError

MAGIC = b"LACTNSR1"


def _is_int(value) -> bool:
    # A JSON integer: json.loads gives float for 4.0 and bool for true.
    return isinstance(value, int) and not isinstance(value, bool)


def _header_bytes(header: dict[str, dict]) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_container(tensors: dict[str, np.ndarray], path) -> int:
    """Write tensors to a container file. Returns bytes written.

    A tensor that cannot convert to float32 raises before the file is
    opened, so an earlier file at path stays as it was."""
    arrays = {name: np.ascontiguousarray(tensors[name], dtype="<f4") for name in sorted(tensors)}
    header: dict[str, dict] = {}
    offset = 0
    for name, arr in arrays.items():
        header[name] = {"offset": offset, "shape": list(arr.shape), "dtype": "f32"}
        offset += arr.nbytes
    header_bytes = _header_bytes(header)
    with open(path, "wb") as f:
        f.write(MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes)
        for arr in arrays.values():
            f.write(arr)
    return 12 + len(header_bytes) + offset


def load_container(path) -> dict[str, np.ndarray]:
    """Read a container file back into name -> float32 array, each a view of one payload array."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ContainerError(f"{path}: not a regular file, so its size is unknown")
        prefix = f.read(12)
        if len(prefix) < 12 or prefix[:8] != MAGIC:
            raise ContainerError(f"{path}: bad magic, not a tensor container")
        header_len = int.from_bytes(prefix[8:12], "little")
        if 12 + header_len > info.st_size:
            raise ContainerError(f"{path}: header length {header_len} exceeds file size")
        payload_len = info.st_size - 12 - header_len
        header_bytes = f.read(header_len)
        # whole floats, so the buffer covers a payload whose length is not a multiple of 4
        buf = np.empty(-(-payload_len // 4), dtype="<f4")
        got = len(header_bytes) + f.readinto(buf.view(np.uint8)[:payload_len])
    if got != header_len + payload_len:
        raise ContainerError(f"{path}: short read, {got} of the {header_len + payload_len} bytes after "
                             "the prefix that the file's size promised (did it shrink while being read?)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header must be a JSON object")

    tensors: dict[str, np.ndarray] = {}
    total = 0
    for name in sorted(header):
        entry = header[name]
        if not isinstance(entry, dict) or set(entry) != {"offset", "shape", "dtype"}:
            raise ContainerError(f"{path}: malformed entry for tensor {name!r}")
        if entry["dtype"] != "f32":
            raise ContainerError(f"{path}: tensor {name!r} has unsupported dtype {entry['dtype']!r}")
        shape, offset = entry["shape"], entry["offset"]
        if not isinstance(shape, list) or not all(_is_int(e) and e >= 0 for e in shape):
            raise ContainerError(f"{path}: tensor {name!r} shape must be a list of non-negative integers, got {shape!r}")
        if not _is_int(offset):
            raise ContainerError(f"{path}: tensor {name!r} offset must be an integer, got {offset!r}")
        count = math.prod(shape)  # Python integers: an oversized shape fails the range check below
        nbytes = count * 4
        if offset != total:
            raise ContainerError(f"{path}: tensor {name!r} at offset {offset}, expected {total} "
                                 "(tensors must be packed in sorted-name order with no gaps)")
        if offset + nbytes > payload_len:
            raise ContainerError(f"{path}: tensor {name!r} payload [{offset}, {offset + nbytes}) out of range")
        try:
            tensors[name] = buf[offset // 4:offset // 4 + count].reshape(shape)
        except ValueError as exc:  # more axes, or a larger empty array, than numpy supports
            raise ContainerError(f"{path}: tensor {name!r} has unsupported shape: {exc}") from exc
        total += nbytes
    if total != payload_len:
        raise ContainerError(f"{path}: payload length mismatch, header describes {total} bytes but file has {payload_len}")
    if header_bytes != _header_bytes(header):
        raise ContainerError(f"{path}: header is not in the canonical form save_container writes "
                             "(compact, keys sorted, names unique, characters outside printable ASCII escaped)")
    return tensors
