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
both.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ContainerError

MAGIC = b"LACTNSR1"


def _is_int(value) -> bool:
    # A JSON integer: json.loads gives float for 4.0 and bool for true.
    return isinstance(value, int) and not isinstance(value, bool)


def save_container(tensors: dict[str, np.ndarray], path) -> int:
    """Write tensors to a container file. Returns bytes written."""
    names = sorted(tensors)
    header: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        header[name] = {"offset": offset, "shape": list(arr.shape), "dtype": "f32"}
        raw = arr.tobytes()
        chunks.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes + b"".join(chunks)
    Path(path).write_bytes(blob)
    return len(blob)


def load_container(path) -> dict[str, np.ndarray]:
    """Read a container file back into name -> float32 array."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:8] != MAGIC:
        raise ContainerError(f"{path}: bad magic, not a tensor container")
    header_len = int.from_bytes(blob[8:12], "little")
    if 12 + header_len > len(blob):
        raise ContainerError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header must be a JSON object")
    payload = blob[12 + header_len:]

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
        if offset + nbytes > len(payload):
            raise ContainerError(f"{path}: tensor {name!r} payload [{offset}, {offset + nbytes}) out of range")
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
        except ValueError as exc:  # more axes, or a larger empty array, than numpy supports
            raise ContainerError(f"{path}: tensor {name!r} has unsupported shape: {exc}") from exc
        total += nbytes
    if total != len(payload):
        raise ContainerError(f"{path}: payload length mismatch, header describes {total} bytes but file has {len(payload)}")
    return tensors
