"""Durable per-token trace records: JSONL streams and void bitmaps.

One record per (sequence, token, phase). The JSONL encoding is byte
stable: fixed field order, floats printed with 9 significant digits
(enough to round-trip float32 exactly), flags as 0/1. Bitmaps are
plain PGM (P2, ASCII): one column per token, one row per layer with
the last layer on top, 255 = activated, 0 = void.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

from .errors import TraceError

PHASE_PP = "PP"  # prompt processing
PHASE_RG = "RG"  # response generation
PHASES = (PHASE_PP, PHASE_RG)


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
        if self.phase not in PHASES:
            raise TraceError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if not (len(self.layer_flags) == len(self.layer_norms) == len(self.layer_deltas)):
            raise TraceError(
                f"per-layer arrays disagree: {len(self.layer_flags)} flags, "
                f"{len(self.layer_norms)} norms, {len(self.layer_deltas)} deltas")


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


_REQUIRED_FIELDS = ("sequence_id", "token_index", "phase", "token_id",
                    "layer_flags", "layer_norms", "layer_deltas", "alpha", "formula", "skip_mode")


def parse_record(obj: dict) -> TraceRecord:
    missing = [f for f in _REQUIRED_FIELDS if f not in obj]
    if missing:
        raise TraceError(f"missing field(s): {', '.join(missing)}")
    rec = TraceRecord(
        sequence_id=str(obj["sequence_id"]),
        token_index=int(obj["token_index"]),
        phase=str(obj["phase"]),
        token_id=int(obj["token_id"]),
        layer_flags=[bool(f) for f in obj["layer_flags"]],
        layer_norms=[float(x) for x in obj["layer_norms"]],
        layer_deltas=[float(x) for x in obj["layer_deltas"]],
        alpha=float(obj["alpha"]),
        formula=str(obj["formula"]),
        skip_mode=str(obj["skip_mode"]),
    )
    rec.validate()
    return rec


def read_trace(source) -> list[TraceRecord]:
    """Parse a JSONL trace from a path, file object, or iterable of lines.

    Malformed lines raise TraceError naming the 1-based line number.
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
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{origin}: line {i}: not valid JSON: {exc}") from exc
        try:
            records.append(parse_record(obj))
        except TraceError as exc:
            raise TraceError(f"{origin}: line {i}: {exc}") from exc
    return records


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
    layer_counts = {r.layer_count for r in chosen}
    if len(layer_counts) != 1:
        raise TraceError(f"records mix layer counts: {sorted(layer_counts)}")
    t_total = layer_counts.pop()
    chosen.sort(key=lambda r: r.token_index)

    rows = []
    for layer in range(t_total - 1, -1, -1):
        rows.append(" ".join("255" if r.layer_flags[layer] else "0" for r in chosen))
    return f"P2\n{len(chosen)} {t_total}\n255\n" + "\n".join(rows) + "\n"


def white_pixel_count(pgm_text: str) -> int:
    """Number of 255 pixels in a P2 image (test/verification helper)."""
    body = pgm_text.split("\n", 3)[3]
    return sum(1 for v in body.split() if v == "255")
