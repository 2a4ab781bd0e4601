"""Durable per-token trace records: JSONL streams and void bitmaps.

One record per (sequence, token, phase). The JSONL encoding is byte
stable: fixed field order, floats printed with 9 significant digits
(enough to round-trip float32 exactly), flags as 0/1. Bitmaps are
plain PGM (P2, ASCII): one column per token, one row per layer with
the last layer on top, 255 = activated, 0 = void.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import TraceError
from .halting import SkipMode

PHASE_PP = "PP"  # prompt processing
PHASE_RG = "RG"  # response generation
PHASES = (PHASE_PP, PHASE_RG)
_FORMULAS = ("original", "modified")  # both name alpha * (max - min); new traces write "modified"
_SKIP_MODES = tuple(m.value for m in SkipMode)


@dataclass
class TraceRecord:
    sequence_id: str
    token_index: int
    phase: str
    token_id: int
    layer_flags: list[bool]
    layer_norms: list[float]
    layer_deltas: list[float]
    alpha: float
    formula: str
    skip_mode: str

    @property
    def layer_count(self) -> int:
        return len(self.layer_flags)

    def validate(self) -> None:
        """Checks shared by the writer and the reader; the reader adds JSON type checks."""
        if not self.layer_flags:
            raise TraceError("a record needs at least one layer")
        if self.phase not in PHASES:
            raise TraceError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if not (len(self.layer_flags) == len(self.layer_norms) == len(self.layer_deltas)):
            raise TraceError(
                f"per-layer arrays disagree: {len(self.layer_flags)} flags, "
                f"{len(self.layer_norms)} norms, {len(self.layer_deltas)} deltas")
        for field in ("token_index", "token_id"):
            if getattr(self, field) < 0:
                raise TraceError(f"{field} must be non-negative, got {getattr(self, field)!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise TraceError(f"alpha must be a finite number in (0, 1], got {self.alpha!r}")
        if self.formula not in _FORMULAS:
            raise TraceError(f"formula must be one of {_FORMULAS}, got {self.formula!r}")
        if self.skip_mode not in _SKIP_MODES:
            raise TraceError(f"skip_mode must be one of {_SKIP_MODES}, got {self.skip_mode!r}")


def _fmt(x: float) -> str:
    return "%.9g" % float(x)


def record_to_line(r: TraceRecord) -> str:
    """One JSONL line, fixed field order, no trailing newline.

    Raises TraceError for a NaN or infinite norm, delta or alpha, which
    JSON cannot encode.
    """
    r.validate()
    flags = ",".join("1" if f else "0" for f in r.layer_flags)
    norms = ",".join(_fmt(x) for x in r.layer_norms)
    deltas = ",".join(_fmt(x) for x in r.layer_deltas)
    alpha = _fmt(r.alpha)
    # %g spells a non-finite value nan, inf or -inf: the only outputs with an "n".
    for field, text in (("layer_norms", norms), ("layer_deltas", deltas), ("alpha", alpha)):
        if "n" in text:
            raise TraceError(f"{field} must be finite, got [{text}]")
    return (
        "{"
        f'"sequence_id":{json.dumps(r.sequence_id)},'
        f'"token_index":{int(r.token_index)},'
        f'"phase":"{r.phase}",'
        f'"token_id":{int(r.token_id)},'
        f'"layer_flags":[{flags}],'
        f'"layer_norms":[{norms}],'
        f'"layer_deltas":[{deltas}],'
        f'"alpha":{alpha},'
        f'"formula":{json.dumps(r.formula)},'
        f'"skip_mode":{json.dumps(r.skip_mode)}'
        "}"
    )


def write_trace(records: Iterable[TraceRecord], sink) -> int:
    """Append records to a path or text file object. Returns bytes written."""
    if hasattr(sink, "write"):
        return _write_stream(records, sink)
    with open(sink, "a", encoding="utf-8", newline="\n") as fh:
        return _write_stream(records, fh)


def _write_stream(records: Iterable[TraceRecord], fh: IO[str]) -> int:
    count = 0
    for r in records:
        line = record_to_line(r) + "\n"
        fh.write(line)
        count += len(line.encode("utf-8"))
    return count


_LAYER_FIELDS = ("layer_flags", "layer_norms", "layer_deltas")
_REQUIRED_FIELDS = ("sequence_id", "token_index", "phase", "token_id", *_LAYER_FIELDS, "alpha", "formula", "skip_mode")


def _no_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise TraceError(f"field {next(k for k in keys if keys.count(k) > 1)!r} is repeated")
    return obj


# Built once: passing object_pairs_hook to json.loads builds a decoder per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_no_repeated_keys)


def _integer(obj: dict, field: str) -> int:
    value = obj[field]
    if type(value) is not int:
        raise TraceError(f"{field} must be an integer, got {value!r}")
    return value


def _finite_floats(obj: dict, field: str) -> list[float]:
    values = obj[field]
    if type(values) is not list:
        raise TraceError(f"{field} must be a list, got {values!r}")
    try:
        out = [float(x) for x in values if type(x) is float or type(x) is int]
    except OverflowError:  # an integer literal too large for a float
        out = []
    if len(out) != len(values) or not all(map(math.isfinite, out)):
        raise TraceError(f"{field} must hold finite numbers, got {values!r}")
    return out


def parse_record(obj) -> TraceRecord:
    """Build a record from one decoded JSON line, enforcing what the writer emits.

    Raises TraceError unless obj is an object with every field and no
    other, a string sequence_id, integer token_index and token_id, layer
    flags of exactly 0 or 1, finite numbers for norms, deltas and alpha,
    and values that TraceRecord.validate accepts.
    """
    if type(obj) is not dict:
        raise TraceError(f"record must be a JSON object, got {type(obj).__name__}")
    missing = [f for f in _REQUIRED_FIELDS if f not in obj]
    if missing:
        raise TraceError(f"missing field(s): {', '.join(missing)}")
    if len(obj) != len(_REQUIRED_FIELDS):
        raise TraceError(f"unknown field(s): {', '.join(f for f in obj if f not in _REQUIRED_FIELDS)}")
    if type(obj["sequence_id"]) is not str:
        raise TraceError(f"sequence_id must be a string, got {obj['sequence_id']!r}")
    flags = obj["layer_flags"]
    if type(flags) is not list or not all(type(f) is int and 0 <= f <= 1 for f in flags):
        raise TraceError(f"layer_flags must be a list of 0 and 1, got {flags!r}")
    alpha = obj["alpha"]
    if type(alpha) not in (int, float) or not 0.0 < alpha <= 1.0:
        raise TraceError(f"alpha must be a finite number in (0, 1], got {alpha!r}")
    rec = TraceRecord(
        sequence_id=obj["sequence_id"],
        token_index=_integer(obj, "token_index"),
        phase=obj["phase"],
        token_id=_integer(obj, "token_id"),
        layer_flags=[f == 1 for f in flags],
        layer_norms=_finite_floats(obj, "layer_norms"),
        layer_deltas=_finite_floats(obj, "layer_deltas"),
        alpha=float(alpha),
        formula=obj["formula"],
        skip_mode=obj["skip_mode"],
    )
    rec.validate()
    return rec


def read_trace(source) -> list[TraceRecord]:
    """Parse a JSONL trace from a path, file object, or iterable of lines.

    Malformed lines, including a field that is repeated or not one the
    writer emits, raise TraceError naming the 1-based line number.
    """
    if hasattr(source, "read") or isinstance(source, (list, tuple)):
        lines = source if isinstance(source, (list, tuple)) else source.read().splitlines()
        return _parse_lines(lines, "<stream>")
    text = Path(source).read_text(encoding="utf-8")
    return _parse_lines(text.splitlines(), str(source))


def _parse_lines(lines: Iterable[str], origin: str) -> list[TraceRecord]:
    records = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(parse_record(_DECODER.decode(line)))
        except json.JSONDecodeError as exc:
            raise TraceError(f"{origin}: line {i}: not valid JSON: {exc}") from exc
        except TraceError as exc:
            raise TraceError(f"{origin}: line {i}: {exc}") from exc
    return records


def record_array(records: list[TraceRecord], field: str, dtype=None) -> np.ndarray:
    """One field of N records as an array: (N, T) for a per-layer field
    (layer_flags, layer_norms, layer_deltas), (N,) for any other.

    Raises ValueError for no records, and TraceError naming the field
    when a per-layer field's length is not the one layer count that
    every record shares.
    """
    if not records:
        raise ValueError("no records to aggregate")
    values = [getattr(r, field) for r in records]
    if field in _LAYER_FIELDS:
        counts = {r.layer_count for r in records} | {len(v) for v in values}
        if len(counts) != 1:
            raise TraceError(f"records mix layer counts in {field}: {sorted(counts)}")
    return np.array(values, dtype=dtype)


def render_bitmap(records: list[TraceRecord], phase: str | None = None) -> str:
    """Token-by-layer activation bitmap for one sequence as PGM (P2) text.

    Columns are tokens in token_index order, rows are layers with the
    last layer rendered as the top row (layer 1 at the bottom).
    Activated pixels are 255, voids 0.
    """
    if phase is not None and phase not in PHASES:
        raise ValueError(f"phase filter must be one of {PHASES} or None, got {phase!r}")
    chosen = [r for r in records if phase is None or r.phase == phase]
    if not chosen:
        raise ValueError("no records to render (empty selection)")
    seq_ids = {r.sequence_id for r in chosen}
    if len(seq_ids) != 1:
        raise ValueError(f"records span multiple sequences: {sorted(seq_ids)}")
    chosen.sort(key=lambda r: r.token_index)
    pixels = np.where(record_array(chosen, "layer_flags", bool).T[::-1], "255", "0").tolist()
    return f"P2\n{len(chosen)} {len(pixels)}\n255\n" + "".join(" ".join(row) + "\n" for row in pixels)


def white_pixel_count(pgm_text: str) -> int:
    """Number of 255 pixels in a P2 image (test/verification helper)."""
    body = pgm_text.split("\n", 3)[3]
    return sum(1 for v in body.split() if v == "255")
