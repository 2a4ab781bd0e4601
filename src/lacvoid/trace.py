"""Durable per-token trace records: JSONL streams and void bitmaps.

One record per (sequence, token, phase). Records travel as a TraceColumns
block, arrays of N records: the model hands its records over as one, the
writer formats a block with one % template per layer count, and the reader
returns one; a TraceRecord is one record's view. The type rules live in
_values, run on each line read and each record from_records takes; the
value rules in _check, run on each block before it is written and on each
chunk read. The JSONL encoding is byte stable: fixed field order, floats
printed with 9 significant digits (enough to round-trip float32 exactly),
flags as 0/1. Bitmaps are plain PGM (P2, ASCII): one column per token, one
row per layer with the last layer on top, 255 = activated, 0 = void.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import ShapeError, TraceError
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


_LAYER_FIELDS = ("layer_flags", "layer_norms", "layer_deltas")
_REQUIRED_FIELDS = tuple(f.name for f in dataclasses.fields(TraceRecord))
_COLUMN_DTYPES = dict(zip(_REQUIRED_FIELDS, (object, np.int64, object, np.int64, bool, np.float64, np.float64,
                                              np.float64, object, object)))


@dataclass(frozen=True, eq=False)
class TraceColumns(Sequence):
    """N trace records as columns, in TraceRecord's field order.

    Each per-layer field is an (N, T) array: flags bool, norms and
    deltas float64 (which holds the model's float32 values exactly).
    Every other field is an (N,) array. A Sequence of TraceRecord views:
    an integer index builds one record, and iteration builds them all;
    a slice, an index array or a boolean mask takes a block of the
    chosen rows. Equal to a block of the same layer count and values.
    """

    sequence_id: np.ndarray
    token_index: np.ndarray
    phase: np.ndarray
    token_id: np.ndarray
    layer_flags: np.ndarray
    layer_norms: np.ndarray
    layer_deltas: np.ndarray
    alpha: np.ndarray
    formula: np.ndarray
    skip_mode: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.sequence_id)
        per_layer = (n, self.layer_flags.shape[-1])
        for name, dtype in _COLUMN_DTYPES.items():
            column, want = getattr(self, name), (per_layer if name in _LAYER_FIELDS else (n,))
            if column.shape != want:
                raise ShapeError(f"{name} has shape {column.shape}, expected {want}")
            if column.dtype != dtype:
                raise TraceError(f"{name} has dtype {column.dtype}, expected {np.dtype(dtype)}")

    @property
    def layer_count(self) -> int:
        return self.layer_flags.shape[1]

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _REQUIRED_FIELDS]

    def __len__(self) -> int:
        return len(self.sequence_id)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]
            return next(iter(self[i:i + 1]))
        return TraceColumns(*(c[index] for c in self._columns()))

    def __iter__(self):
        return map(TraceRecord, *(c.tolist() for c in self._columns()))

    def __add__(self, other):
        return TraceColumns.concat([self, other]) if isinstance(other, TraceColumns) else NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))

    @classmethod
    def concat(cls, blocks: Iterable[TraceColumns]) -> TraceColumns:
        """One block of the given blocks' rows, in order; at least one block."""
        return cls(*(np.concatenate(parts) for parts in zip(*(b._columns() for b in blocks))))

    @classmethod
    def empty(cls, layer_count: int) -> TraceColumns:
        return cls(*(np.empty((0, layer_count) if name in _LAYER_FIELDS else 0, dtype)
                     for name, dtype in _COLUMN_DTYPES.items()))

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> TraceColumns:
        """The block of the given records, built by the reader's row path.

        Raises ValueError for no records, and TraceError, in the reader's
        words, where the reader would refuse the record's line by its
        types (a record's flags may also be bool) or by its layer count.
        """
        rows = []
        for i, r in enumerate(records):
            values = _values(vars(r), {int, bool})
            if rows and len(values[4]) != len(rows[0][4]):  # values[4] is layer_flags
                raise TraceError(f"records mix layer counts: {len(rows[0][4])} in record 0, {len(values[4])} in record {i}")
            rows.append(values)
        if not rows:
            raise ValueError("no records to aggregate")
        return cls(*_chunk(rows, {}))


def _require_block(block, caller: str) -> None:
    """Refuse anything but a TraceColumns block, such as a list of records, naming the caller."""
    if not isinstance(block, TraceColumns):
        raise TypeError(f"{caller} takes a TraceColumns block, got {type(block).__name__}: "
                        "wrap a list of TraceRecord with TraceColumns.from_records")


class _RowError(TraceError):
    """A TraceError about one row of a block; the reader names that row's line."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _column(name: str, values: list) -> np.ndarray:
    """One field's values as its column; a value the dtype cannot hold raises _RowError."""
    dtype = _COLUMN_DTYPES[name]
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        for row, value in enumerate(values):
            try:
                np.array(value, dtype=dtype)
            except OverflowError:
                raise _RowError(row, f"{name} must fit in {np.dtype(dtype).name}, got {value!r}") from None
        raise


@functools.lru_cache(maxsize=64)
def _template(layer_count: int) -> str:
    """The % template of one JSONL line of a record with layer_count layers."""
    def per_layer(spec):
        return ",".join([spec] * layer_count)
    return ('{"sequence_id":%s,"token_index":%d,"phase":"%s","token_id":%d,'
            f'"layer_flags":[{per_layer("%d")}],"layer_norms":[{per_layer("%.9g")}],'
            f'"layer_deltas":[{per_layer("%.9g")}],"alpha":%.9g,"formula":%s,"skip_mode":%s}}\n')


def _check(block: TraceColumns) -> None:
    """The value rules of a record, over a non-empty block: the only copy,
    run by the writer and the reader alike. Raises _RowError naming a
    refused row."""
    def refuse_outside(name: str, allowed: tuple[str, ...]) -> None:
        values = getattr(block, name).tolist()
        if not set(values) <= set(allowed):
            row = next(i for i, v in enumerate(values) if v not in allowed)
            raise _RowError(row, f"{name} must be one of {allowed}, got {values[row]!r}")

    def refuse_where(bad: np.ndarray, name: str, rule: str) -> None:
        if bad.any():
            row = int(np.argmax(bad))
            raise _RowError(row, f"{name} must be {rule}, got {getattr(block, name).tolist()[row]!r}")

    if block.layer_count == 0:
        raise _RowError(0, "a record needs at least one layer")
    if not {*map(type, block.sequence_id.tolist())} <= {str}:
        refuse_where(np.array([type(v) is not str for v in block.sequence_id.tolist()]), "sequence_id", "a string")
    refuse_outside("phase", PHASES)
    for name in ("token_index", "token_id"):
        refuse_where(getattr(block, name) < 0, name, "non-negative")
    refuse_where(~((block.alpha > 0.0) & (block.alpha <= 1.0)), "alpha", "a finite number in (0, 1]")
    refuse_outside("formula", _FORMULAS)
    refuse_outside("skip_mode", _SKIP_MODES)
    for name in ("layer_norms", "layer_deltas"):
        values = getattr(block, name)
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise _RowError(row, f"{name} must be finite, got [{','.join('%.9g' % x for x in values[row].tolist())}]")


def _quoted(column: np.ndarray) -> list[str]:
    """JSON string literal of each value, encoding each distinct value once."""
    values = column.tolist()
    literal = {v: json.dumps(v) for v in set(values)}
    return [literal[v] for v in values]


# Rows formatted or parsed at a time: bounds the Python lists and text the writer and the reader hold at once.
_CHUNK_ROWS = 512


def _chunks(block: TraceColumns) -> Iterator[str]:
    """The JSONL lines of a checked block, each ending in a newline, _CHUNK_ROWS lines a piece."""
    for start in range(0, len(block), _CHUNK_ROWS):
        seq, index, phase, token, flags, norms, deltas, alpha, formula, skip_mode = (
            c[start:start + _CHUNK_ROWS] for c in block._columns())
        columns = (_quoted(seq), index.tolist(), phase.tolist(), token.tolist(), *flags.T.tolist(),
                   *norms.T.tolist(), *deltas.T.tolist(), alpha.tolist(), _quoted(formula), _quoted(skip_mode))
        yield "".join(map(_template(block.layer_count).__mod__, zip(*columns)))


def record_to_line(r: TraceRecord) -> str:
    """One JSONL line, fixed field order, no trailing newline: write_trace
    of the one-record block. Its last caller outside the tests is
    perfbench/checks.py's round trip, which ROADMAP item A moves onto
    write_trace.

    Raises TraceError for what from_records or the writer refuses.
    """
    buf = io.StringIO()
    write_trace(TraceColumns.from_records([r]), buf)
    return buf.getvalue()[:-1]


def write_trace(block: TraceColumns, fh: IO[str]) -> int:
    """Write a block to an open text file. Returns bytes written.

    The whole block is checked first, so a block that holds one refused
    record writes nothing.
    """
    _require_block(block, "write_trace")
    if len(block):
        _check(block)
    count = 0
    for text in _chunks(block):
        fh.write(text)
        count += len(text)  # every line is ASCII, so its length is its UTF-8 byte count
    return count


def _no_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise TraceError(f"field {next(k for k in keys if keys.count(k) > 1)!r} is repeated")
    return obj


# Built once: passing object_pairs_hook to json.loads builds a decoder per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_no_repeated_keys)
_VALUES = operator.itemgetter(*_REQUIRED_FIELDS)
_FIELD_SET = set(_REQUIRED_FIELDS)
_NUMBER = {int, float}  # by exact type, so a JSON true or false is not a number
_SCALAR_TYPES = {"sequence_id": ({str}, "a string"), "token_index": ({int}, "an integer"), "phase": ({str}, "a string"),
                 "token_id": ({int}, "an integer"), "alpha": (_NUMBER, "a number"), "formula": ({str}, "a string"),
                 "skip_mode": ({str}, "a string")}


def _values(obj, flag_types=frozenset({int})) -> tuple:
    """One decoded line's values in field order, after the checks that
    need only the JSON types: every field once and no other, each scalar
    of its JSON type, flags of exactly 0 or 1 and of flag_types, numbers
    for norms and deltas, and per-layer lists of one length. The value
    rules are _check's."""
    if type(obj) is not dict:
        raise TraceError(f"record must be a JSON object, got {type(obj).__name__}")
    if obj.keys() != _FIELD_SET:
        missing = [f for f in _REQUIRED_FIELDS if f not in obj]
        if missing:
            raise TraceError(f"missing field(s): {', '.join(missing)}")
        raise TraceError(f"unknown field(s): {', '.join(f for f in obj if f not in _FIELD_SET)}")
    for name, (types, kind) in _SCALAR_TYPES.items():
        if type(obj[name]) not in types:
            raise TraceError(f"{name} must be {kind}, got {obj[name]!r}")
    flags = obj["layer_flags"]
    if type(flags) is not list or not {*map(type, flags)} <= flag_types or not {*flags} <= {0, 1}:
        raise TraceError(f"layer_flags must be a list of 0 and 1, got {flags!r}")
    for name in ("layer_norms", "layer_deltas"):
        if type(obj[name]) is not list or not {*map(type, obj[name])} <= _NUMBER:
            raise TraceError(f"{name} must be a list of numbers, got {obj[name]!r}")
    if not len(flags) == len(obj["layer_norms"]) == len(obj["layer_deltas"]):
        raise TraceError("per-layer arrays disagree: " + ", ".join(f"{len(obj[f])} {f}" for f in _LAYER_FIELDS))
    return _VALUES(obj)


def read_trace(source) -> TraceColumns:
    """Parse a JSONL trace from a path (str, bytes or os.PathLike) or any
    other iterable of text, such as a file object, a list or a generator,
    into one block; a trace with no records gives an empty block.

    A path is read a line at a time, never whole. Each piece of text is
    split as str.splitlines splits it, and an empty piece is a blank line.
    A refused line raises TraceError naming its 1-based line number. Each
    line is checked for what its JSON types decide as it is read, and
    each chunk of _CHUNK_ROWS records against the writer's value rules
    once built, so the read stops at the first chunk holding a refused
    line, where a line refused by its JSON types wins over an earlier
    value error. A path's line that is not valid UTF-8 is refused too.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            return _read_lines(_split(fh), str(source))
    return _read_lines(_split(source), "<stream>")


def _split(pieces: Iterable[str]) -> Iterator[str]:
    r"""The lines of a text read piece by piece, each piece ending at a line end or at the text's end.

    A file opened with newline="\r" ends its pieces at the "\r" of a
    "\r\n", so the next piece's leading "\n" belongs to that line end."""
    after_cr = False
    for piece in pieces:
        if after_cr and piece.startswith("\n"):
            piece = piece[1:]
        after_cr = piece.endswith("\r")
        yield from piece.splitlines() or [piece]


def _chunk(rows: list[tuple], strings: dict[str, str]) -> list[np.ndarray]:
    """The columns of a chunk of _values rows. Object columns take each
    string from strings, which maps a value to the first equal one met,
    so a block holds one str object per distinct value."""
    columns = []
    for name, values in zip(_REQUIRED_FIELDS, zip(*rows)):
        if _COLUMN_DTYPES[name] is object:
            values = [strings.setdefault(v, v) for v in values]
        columns.append(_column(name, values))
    return columns


def _read_lines(lines: Iterable[str], origin: str) -> TraceColumns:
    blocks = []  # each checked chunk's block
    rows, numbers = [], []  # the open chunk's values and 1-based line numbers
    strings: dict[str, str] = {}
    first = None  # line number and layer count of the first record

    def close_chunk() -> None:
        try:
            block = TraceColumns(*_chunk(rows, strings))
            _check(block)
        except _RowError as exc:
            raise TraceError(f"{origin}: line {numbers[exc.row]}: {exc}") from exc
        blocks.append(block)
        rows.clear()
        numbers.clear()

    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        # surrogateescape reads a byte UTF-8 refuses as U+DC80..U+DCFF; the writer's lines are ASCII
        if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
            raise TraceError(f"{origin}: line {i}: not valid UTF-8")
        try:
            values = _values(_DECODER.decode(line))
        except json.JSONDecodeError as exc:
            raise TraceError(f"{origin}: line {i}: not valid JSON: {exc}") from exc
        except TraceError as exc:
            raise TraceError(f"{origin}: line {i}: {exc}") from exc
        layers = len(values[4])  # values[4] is layer_flags
        if first is None:
            first = (i, layers)
        elif layers != first[1]:
            raise TraceError(f"{origin}: line {i}: {layers} layers, but line {first[0]} has {first[1]}")
        rows.append(values)
        numbers.append(i)
        if len(rows) == _CHUNK_ROWS:
            close_chunk()
    if rows:
        close_chunk()
    return TraceColumns.concat(blocks) if blocks else TraceColumns.empty(0)


def render_bitmap(block: TraceColumns) -> str:
    """Token-by-layer activation bitmap for one sequence as PGM (P2) text.

    Columns are tokens in token_index order, rows are layers with the
    last layer rendered as the top row (layer 1 at the bottom).
    Activated pixels are 255, voids 0. Select a phase's rows with a
    mask first: render_bitmap(block[block.phase == "PP"]).
    """
    _require_block(block, "render_bitmap")
    if not len(block):
        raise ValueError("no records to render (empty selection)")
    seq_ids = set(block.sequence_id.tolist())
    if len(seq_ids) != 1:
        raise ValueError(f"records span multiple sequences: {sorted(seq_ids)}")
    flags = block.layer_flags[np.argsort(block.token_index, kind="stable")]
    pixels = np.where(flags.T[::-1], "255", "0").tolist()
    return f"P2\n{len(block)} {len(pixels)}\n255\n" + "".join(" ".join(row) + "\n" for row in pixels)
