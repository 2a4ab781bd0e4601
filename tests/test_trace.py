import dataclasses
import functools
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacvoid import (
    HaltPolicy,
    ModelConfig,
    ShapeError,
    SkipMode,
    TraceError,
    build_model,
    read_trace,
    render_bitmap,
    run_prompt,
    write_trace,
)
from lacvoid.analysis import alpha_sweep, export_reports, norm_profile, usage_report
from lacvoid.trace import _CHUNK_ROWS, PHASES, TraceColumns, record_to_line
from conftest import make_record, reference_line, reference_lines, white_pixel_count, write_trace_file


def random_records(n, layers=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(make_record(
            seq=f"s{i % 3}",
            token_index=i,
            phase="PP" if i % 2 == 0 else "RG",
            token_id=int(rng.integers(0, 256)),
            flags=[bool(b) for b in rng.integers(0, 2, layers)],
            norms=[float(x) for x in rng.uniform(0, 50, layers).astype(np.float32)],
            deltas=[float(x) for x in rng.uniform(-5, 5, layers).astype(np.float32)],
        ))
    return out


class TestWriteRead:
    def test_empty_writes_zero_bytes(self):
        buf = io.StringIO()
        assert write_trace(read_trace([]), buf) == 0
        assert buf.getvalue() == ""

    def test_one_record_one_line(self):
        buf = io.StringIO()
        count = write_trace(TraceColumns.from_records([make_record()]), buf)
        text = buf.getvalue()
        assert text.endswith("\n") and text.count("\n") == 1
        assert count == len(text.encode("utf-8"))

    def test_field_order_is_fixed(self):
        line = record_to_line(make_record())
        keys = ["sequence_id", "token_index", "phase", "token_id",
                "layer_flags", "layer_norms", "layer_deltas", "alpha", "formula", "skip_mode"]
        positions = [line.index(f'"{k}"') for k in keys]
        assert positions == sorted(positions)

    def test_round_trip_100_records(self, tmp_path):
        records = random_records(100, seed=1)
        path = tmp_path / "t.jsonl"
        write_trace_file(TraceColumns.from_records(records), path)
        back = read_trace(path)
        assert len(back) == 100
        for a, b in zip(records, back):
            assert (a.sequence_id, a.token_index, a.phase, a.token_id) == \
                   (b.sequence_id, b.token_index, b.phase, b.token_id)
            assert a.layer_flags == b.layer_flags
            assert np.abs(np.array(a.layer_norms) - np.array(b.layer_norms)).max() < 1e-6
            assert np.abs(np.array(a.layer_deltas) - np.array(b.layer_deltas)).max() < 1e-6
            assert (a.alpha, a.formula, a.skip_mode) == (b.alpha, b.formula, b.skip_mode)

    def test_float32_values_round_trip_exactly(self, tmp_path):
        # 9 significant digits are enough to reproduce float32 bit patterns
        records = random_records(20, seed=2)
        path = tmp_path / "t.jsonl"
        write_trace_file(TraceColumns.from_records(records), path)
        for a, b in zip(records, read_trace(path)):
            assert np.float32(a.layer_norms).tobytes() == np.float32(b.layer_norms).tobytes()

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(reference_line(make_record()) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(TraceError, match="line 2"):
            read_trace(path)

    def test_flag_length_mismatch_rejected(self, tmp_path):
        bad = reference_line(make_record()).replace('"layer_norms":[1,2]', '"layer_norms":[1,2,3]')
        with pytest.raises(TraceError, match="line 1"):
            read_trace([bad])

    def test_missing_field_rejected(self):
        with pytest.raises(TraceError, match="missing"):
            read_trace(['{"sequence_id":"s0"}'])

    def test_bad_phase_rejected(self):
        line = reference_line(make_record()).replace('"phase":"PP"', '"phase":"XX"')
        with pytest.raises(TraceError):
            read_trace([line])

    @pytest.mark.parametrize("field", ["norms", "deltas", "alpha"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_refused(self, field, bad):
        value = bad if field == "alpha" else (1.0, bad)
        record = make_record(**{field: value})
        with pytest.raises(TraceError, match="finite"):
            record_to_line(record)
        buf = io.StringIO()
        with pytest.raises(TraceError):
            write_trace(TraceColumns.from_records([record]), buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("fields", [
        {"token_index": -1}, {"token_id": -3}, {"alpha": 1.5}, {"alpha": 0.0},
        {"formula": "bogus"}, {"skip_mode": "MASK_ZERO"}, {"flags": (), "norms": (), "deltas": ()},
    ], ids=["token_index", "token_id", "alpha-high", "alpha-zero", "formula", "skip_mode", "zero-layers"])
    def test_writer_refuses_what_the_reader_refuses(self, fields):
        record = make_record(**fields)
        with pytest.raises(TraceError):
            record_to_line(record)

    def test_two_blocks_to_one_open_file_read_back_as_both(self, tmp_path):
        first = TraceColumns.from_records([make_record(token_index=0)])
        second = TraceColumns.from_records([make_record(token_index=1, phase="RG")])
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            count = write_trace(first, fh) + write_trace(second, fh)
        assert count == path.stat().st_size
        assert read_trace(path) == first + second


@functools.cache
def records_of(layers):
    """1-6 records of `layers` layers: one strategy per layer count, built once."""
    per_layer = st.lists(st.floats(width=32), min_size=layers, max_size=layers)
    return st.lists(st.builds(
        make_record,
        seq=st.text(st.sampled_from('"\\%sd\u00e9\u65e5\x01\n a'), max_size=6) | st.text(max_size=6),
        token_index=st.integers(0, 2**40),
        phase=st.sampled_from(PHASES),
        token_id=st.integers(0, 255),
        flags=st.lists(st.booleans(), min_size=layers, max_size=layers),
        norms=per_layer,
        deltas=per_layer,
        alpha=st.floats(0.0, 1.0, exclude_min=True, width=32),
        formula=st.sampled_from(["original", "modified"]),
        skip_mode=st.sampled_from([m.value for m in SkipMode]),
    ), min_size=1, max_size=6)


@st.composite
def record_lists(draw):
    """1-6 records sharing 1-8 layers, with any float32 norms and deltas (NaN and infinities too)."""
    return draw(records_of(draw(st.integers(1, 8))))


# Records the writer refuses, each with two layers like random_records(..., layers=2).
REFUSED = {
    "token_index": {"token_index": -1}, "token_id": {"token_id": -3},
    "alpha-high": {"alpha": 1.5}, "alpha-zero": {"alpha": 0.0}, "alpha-nan": {"alpha": float("nan")},
    "formula": {"formula": "bogus"}, "skip_mode": {"skip_mode": "MASK_ZERO"}, "phase": {"phase": "XX"},
    "norm-nan": {"norms": (1.0, float("nan"))}, "delta-inf": {"deltas": (float("-inf"), 1.0)},
    "short-norms": {"norms": (1.0,)},
    "token_index-2**63": {"token_index": 2**63}, "token_id-2**64": {"token_id": 2**64},
}
# The field each refusal names.
REFUSED_FIELD = {key: {"norms": "layer_norms", "deltas": "layer_deltas"}.get(field, field)
                 for key, fields in REFUSED.items() for field in fields}


class TestTraceColumns:
    @given(records=record_lists())
    @settings(max_examples=300, deadline=None)
    def test_block_writer_equals_record_lines(self, records):
        buf = io.StringIO()
        try:
            lines = "".join(record_to_line(r) + "\n" for r in records)
        except TraceError:
            with pytest.raises(TraceError):
                write_trace(TraceColumns.from_records(records), buf)
            assert buf.getvalue() == ""
            return
        assert write_trace(TraceColumns.from_records(records), buf) == len(lines.encode("utf-8"))
        assert buf.getvalue() == lines == "".join(reference_line(r) + "\n" for r in records)

    def test_block_longer_than_a_chunk(self, tmp_path):
        records = random_records(1300, layers=3, seed=7)
        lines = "".join(reference_line(r) + "\n" for r in records)
        path = tmp_path / "t.jsonl"
        assert write_trace_file(TraceColumns.from_records(records), path) == len(lines)
        assert path.read_text(encoding="utf-8") == lines

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("fields", list(REFUSED.values()), ids=list(REFUSED))
    def test_one_refused_record_writes_nothing(self, tmp_path, fields, position):
        bad = make_record(**fields)
        with pytest.raises(TraceError):
            record_to_line(bad)
        records = random_records(6, layers=2, seed=3)
        records.insert(position, bad)
        buf = io.StringIO()
        path = tmp_path / "t.jsonl"
        with pytest.raises(TraceError):
            write_trace(TraceColumns.from_records(records), buf)
        with pytest.raises(TraceError):
            write_trace(TraceColumns.from_records(records), path)
        assert buf.getvalue() == ""
        assert not path.exists()

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("key", list(REFUSED))
    def test_reader_refuses_what_the_writer_refuses(self, key, position):
        # the bad line is encoded without the writer, so only the reader's checks stand between it and a block
        lines = [reference_line(r) for r in random_records(6, layers=2, seed=3)]
        lines.insert(position, reference_line(make_record(**REFUSED[key])))
        with pytest.raises(TraceError, match=rf"^<stream>: line {position + 1}: .*{REFUSED_FIELD[key]}"):
            read_trace(lines)

    @given(records=record_lists())
    @settings(max_examples=200, deadline=None)
    def test_every_block_the_writer_accepts_reads_back_column_for_column(self, records):
        block = TraceColumns.from_records(records)
        buf = io.StringIO()
        try:
            write_trace(block, buf)
        except TraceError:
            return
        back = read_trace(io.StringIO(buf.getvalue()))
        assert isinstance(back, TraceColumns)
        for name in (f.name for f in dataclasses.fields(TraceColumns)):
            want, got = getattr(block, name), getattr(back, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            if want.dtype == np.float64:  # 9 digits hold float32 exactly, so compare there (-0 reads back as 0)
                got, want = got.astype(np.float32), want.astype(np.float32)
            assert np.array_equal(got, want) if want.dtype != object else got.tolist() == want.tolist(), name

    def test_mixed_layer_counts_refused_at_the_first_line_of_the_other_count(self):
        two = [reference_line(r) for r in random_records(3, layers=2, seed=8)]
        three = [reference_line(r) for r in random_records(2, layers=3, seed=9)]
        # blank lines count toward the line number, as everywhere in the reader
        with pytest.raises(TraceError, match=r"^<stream>: line 5: 3 layers, but line 1 has 2$"):
            read_trace([two[0], "", two[1], two[2], three[0], two[0], three[1]])

    def test_zero_layer_block_refused(self):
        block = TraceColumns.from_records([make_record(flags=(), norms=(), deltas=())])
        buf = io.StringIO()
        with pytest.raises(TraceError, match="at least one layer"):
            write_trace(block, buf)
        assert buf.getvalue() == ""

    def test_a_sequence_of_record_views(self):
        records = random_records(5, layers=3, seed=5)
        block = TraceColumns.from_records(records)
        assert len(block) == 5 and block.layer_count == 3
        assert list(block) == records
        assert block[1] == records[1] and block[-1] == records[-1]
        with pytest.raises(IndexError):
            block[5]
        assert isinstance(block[1:4], TraceColumns) and list(block[1:4]) == records[1:4]
        assert list(block[block.phase == "RG"]) == [r for r in records if r.phase == "RG"]
        assert list(block[[4, 0]]) == [records[4], records[0]]
        assert block[:2] + block[2:] == block
        assert TraceColumns.concat([block[:1], block[1:3], block[3:]]) == block
        assert TraceColumns.from_records(block) == block

    def test_blocks_equal_only_blocks_of_the_same_values(self):
        records = random_records(5, layers=3, seed=5)
        block = TraceColumns.from_records(records)
        assert block == TraceColumns.from_records(records) and not block != TraceColumns.from_records(records)
        assert block != block[:4] and block != block[::-1] and block != block[[0, 1, 2, 3, 3]]
        assert block != dataclasses.replace(block, alpha=np.where(np.arange(5) == 2, 0.5, block.alpha))
        assert block != dataclasses.replace(block, layer_flags=~block.layer_flags)
        assert block != TraceColumns.from_records(random_records(5, layers=4, seed=5))
        assert TraceColumns.empty(3) == TraceColumns.empty(3) != TraceColumns.empty(2)
        # a list or tuple of the same records is not a block
        assert block != records and records != block and block != tuple(records) and block != "records"

    def test_columns_hold_the_records_values_exactly(self):
        records = random_records(4, layers=3, seed=6)
        block = TraceColumns.from_records(records)
        assert block.layer_norms.dtype == block.layer_deltas.dtype == np.float64
        assert block.layer_flags.dtype == bool
        assert block.layer_norms.tolist() == [r.layer_norms for r in records]
        assert block.sequence_id.tolist() == [r.sequence_id for r in records]

    def test_empty_block(self):
        empty = TraceColumns.empty(3)
        assert len(empty) == 0 and empty.layer_count == 3 and list(empty) == []
        assert write_trace(empty, io.StringIO()) == 0
        with pytest.raises(ValueError, match="no records"):
            TraceColumns.from_records(empty)

    def test_columns_of_other_lengths_rejected(self):
        block = TraceColumns.from_records(random_records(3))
        with pytest.raises(ShapeError, match="alpha"):
            dataclasses.replace(block, alpha=block.alpha[:2])
        with pytest.raises(ShapeError, match="layer_norms"):
            dataclasses.replace(block, layer_norms=block.layer_norms[:, :2])

    @pytest.mark.parametrize("name, dtype", [("token_index", np.float64), ("token_id", np.int32),
                                             ("layer_flags", np.int64), ("alpha", np.float32), ("phase", str)])
    def test_columns_of_other_dtypes_rejected(self, name, dtype):
        block = TraceColumns.from_records(random_records(3))
        with pytest.raises(TraceError, match=f"^{name} has dtype "):
            dataclasses.replace(block, **{name: getattr(block, name).astype(dtype)})

    def test_a_sequence_id_not_a_string_is_refused_before_a_byte_is_written(self):
        model = build_model(ModelConfig(layer_count=2, depth=16, head_count=2, ffn_dim=32, max_seq=16, seed=5))
        _, block = run_prompt(model, ["hi"], HaltPolicy(), [5])
        buf = io.StringIO()
        with pytest.raises(TraceError, match="^sequence_id must be a string, got 5$"):
            write_trace(block, buf)
        assert buf.getvalue() == ""


def with_field(field, raw, line=None):
    """A valid trace line (by default make_record's) with one field's JSON text replaced by raw."""
    line = line if line is not None else reference_line(make_record())
    out, n = re.subn(rf'"{field}":(\[[^\]]*\]|"[^"]*"|[^,}}]*)', lambda m: f'"{field}":{raw}', line, count=1)
    assert n == 1
    return out


ONE_LAYER = reference_line(make_record(flags=[True], norms=[1.0], deltas=[1.0]))


class TestStrictReader:
    """Each probe is a line the writer never emits; the reader names it with TraceError."""

    @pytest.mark.parametrize("line", ["1", "[]", '"text"', "null", "true"])
    def test_non_object_line(self, line):
        with pytest.raises(TraceError, match="line 1: record must be a JSON object"):
            read_trace([line])

    @pytest.mark.parametrize("field", ["layer_flags", "layer_norms", "layer_deltas"])
    @pytest.mark.parametrize("raw", ['"1"', "1", "null", '{"0":1}'])
    def test_per_layer_field_not_a_list(self, field, raw):
        with pytest.raises(TraceError, match="line 1"):
            read_trace([with_field(field, raw, ONE_LAYER)])

    @pytest.mark.parametrize("raw", ['"ab"', '"12"'])
    def test_norms_given_as_string(self, raw):
        with pytest.raises(TraceError, match="line 1"):
            read_trace([with_field("layer_norms", raw)])

    @pytest.mark.parametrize("raw", ['[7,"x"]', "[7,1]", "[1,2]", "[-1,0]", "[true,false]", "[1.0,0]",
                                     '["1",0]', "[null,1]"])
    def test_flags_other_than_zero_or_one(self, raw):
        with pytest.raises(TraceError, match="line 1: layer_flags"):
            read_trace([with_field("layer_flags", raw)])

    @pytest.mark.parametrize("field", ["layer_norms", "layer_deltas"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999",
                                       pytest.param("1" + "0" * 400, id="int-beyond-float"),
                                       '"x"', '"1.5"', "null", "true", "[1]"])
    def test_non_finite_or_non_numeric_values(self, field, value):
        with pytest.raises(TraceError, match=f"line 1: {field}"):
            read_trace([with_field(field, f"[1,{value}]")])

    @pytest.mark.parametrize("raw", ["5", "0", "-0.5", "1.0000001", "NaN", "Infinity", '"0.5"', "true", "null"])
    def test_alpha_outside_unit_interval(self, raw):
        with pytest.raises(TraceError, match="line 1: alpha"):
            read_trace([with_field("alpha", raw)])

    @pytest.mark.parametrize("field", ["token_index", "token_id"])
    @pytest.mark.parametrize("raw", ["-3", "1.7", "2.0", "true", '"4"', "null"])
    def test_index_not_a_non_negative_integer(self, field, raw):
        with pytest.raises(TraceError, match=f"line 1: {field}"):
            read_trace([with_field(field, raw)])

    @pytest.mark.parametrize("field", ["token_index", "token_id"])
    @pytest.mark.parametrize("raw", [str(2**63), str(2**64), str(-2**63 - 1), "1" + "0" * 40])
    def test_index_beyond_int64(self, field, raw):
        lines = [reference_line(make_record(token_index=i)) for i in range(3)]
        lines[1] = with_field(field, raw, lines[1])
        with pytest.raises(TraceError, match=f"^<stream>: line 2: {field} must fit in int64, got {raw}$"):
            read_trace(lines)

    @pytest.mark.parametrize("raw", ["5", "null", '["s0"]'])
    def test_sequence_id_not_a_string(self, raw):
        with pytest.raises(TraceError, match="line 1: sequence_id"):
            read_trace([with_field("sequence_id", raw)])

    @pytest.mark.parametrize("field", ["formula", "skip_mode"])
    @pytest.mark.parametrize("raw", ['"bogus"', '"MODIFIED"', "1", "null"])
    def test_unknown_formula_or_skip_mode(self, field, raw):
        with pytest.raises(TraceError, match=f"line 1: {field}"):
            read_trace([with_field(field, raw)])

    @pytest.mark.parametrize("extra", [',"bogus":[1,2]', ',"Alpha":0.5', ',"":null'])
    def test_unknown_field(self, extra):
        line = reference_line(make_record())
        with pytest.raises(TraceError, match="line 1: unknown field"):
            read_trace([line[:-1] + extra + "}"])

    @pytest.mark.parametrize("field", ["token_index", "sequence_id", "alpha"])
    def test_repeated_field(self, field):
        line = reference_line(make_record())
        value = re.search(rf'"{field}":[^,]*,', line).group(0)
        with pytest.raises(TraceError, match=f"line 1: field '{field}' is repeated"):
            read_trace([line.replace(value, value + value)])

    def test_zero_layers(self):
        line = ONE_LAYER
        for field in ("layer_flags", "layer_norms", "layer_deltas"):
            line = with_field(field, "[]", line)
        with pytest.raises(TraceError, match="line 1: a record needs at least one layer"):
            read_trace([line])

    def test_every_valid_value_is_accepted(self):
        for formula in ("original", "modified"):
            for mode in ("off", "detect", "mask-zero", "skip-identity", "halt-frozen"):
                record = make_record(token_index=0, token_id=0, alpha=1.0, formula=formula, skip_mode=mode,
                                     flags=[False, True], norms=[0.0, -2.5e-45], deltas=[3.4e38, -1])
                back = read_trace([reference_line(record)])[0]
                assert back == record

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_character_mutation_raises_or_round_trips(self, data):
        record = data.draw(st.sampled_from(random_records(6, layers=3, seed=4)))
        line = reference_line(record)
        pos = data.draw(st.integers(0, len(line) - 1))
        char = data.draw(st.one_of(st.sampled_from('0123456789-+.eE,:[]{}" aflnrstuINy'), st.characters()))
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "replace":
            mutated = line[:pos] + char + line[pos + 1:]
        elif kind == "insert":
            mutated = line[:pos] + char + line[pos:]
        else:
            mutated = line[:pos] + line[pos + 1:]
        try:
            back = read_trace([mutated])
        except TraceError:
            return
        write_trace(back, io.StringIO())


def read_every_way(text, tmp_path):
    r"""read_trace of text from a path, from a StringIO, from text.splitlines() and from a file opened
    with newline="\r" (which splits a "\r\n" between two lines): each a block, or the TraceError
    message without its origin prefix."""
    path = tmp_path / "t.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    results = []
    with open(path, encoding="utf-8", newline="\r") as split_at_cr:
        for source in (path, io.StringIO(text), text.splitlines(), split_at_cr):
            try:
                results.append(read_trace(source))
            except TraceError as exc:
                results.append(str(exc).split(": ", 1)[1])
    return results


TWO_LAYER_LINES = [reference_line(r) for r in random_records(3, layers=2, seed=11)]
SEPARATORS = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]


class TestStreamingReader:
    """The reader takes a path or file object a line at a time and builds the block _CHUNK_ROWS records at a time."""

    def test_a_trace_of_more_than_two_chunks_reads_back_from_every_source(self, tmp_path):
        block = TraceColumns.from_records(random_records(2 * _CHUNK_ROWS + 1, layers=3, seed=12))
        # values of at most 9 significant digits, so the float64 columns read back exactly
        block = dataclasses.replace(block, layer_norms=block.layer_norms.round(3),
                                    layer_deltas=block.layer_deltas.round(3))
        path = tmp_path / "t.jsonl"
        write_trace_file(block, path)
        text = path.read_text(encoding="utf-8")
        assert read_trace(path) == block
        assert read_trace(io.StringIO(text)) == block
        assert read_trace(text.splitlines()) == block

    def test_a_value_beyond_int64_in_the_second_chunk_names_its_line(self):
        lines = [reference_line(r) for r in random_records(2 * _CHUNK_ROWS, layers=2, seed=13)]
        row = _CHUNK_ROWS + 10
        lines[row] = with_field("token_index", str(2**63), lines[row])
        with pytest.raises(TraceError, match=rf"^<stream>: line {row + 1}: token_index must fit in int64, "
                                             rf"got {2**63}$"):
            read_trace(lines)

    def test_an_earlier_chunks_value_beyond_int64_wins_over_a_later_chunks_missing_field(self):
        lines = [reference_line(r) for r in random_records(2 * _CHUNK_ROWS, layers=2, seed=14)]
        lines[3] = with_field("token_index", str(2**63), lines[3])
        lines[_CHUNK_ROWS + 5] = '{"sequence_id":"s0"}'
        with pytest.raises(TraceError, match=rf"^<stream>: line 4: token_index must fit in int64, got {2**63}$"):
            read_trace(lines)

    def test_a_refused_value_stops_the_read_at_its_chunk(self):
        class CountingFile(io.StringIO):
            handed_out = 0

            def __next__(self):
                self.handed_out += 1
                return super().__next__()

        lines = [reference_line(r) for r in random_records(4 * _CHUNK_ROWS, layers=2, seed=17)]
        lines[1] = with_field("alpha", "1.5", lines[1])
        fh = CountingFile("".join(line + "\n" for line in lines))
        with pytest.raises(TraceError, match=r"^<stream>: line 2: alpha must be a finite number in \(0, 1\], "
                                             r"got 1\.5$"):
            read_trace(fh)
        assert 0 < fh.handed_out <= _CHUNK_ROWS

    def test_an_alpha_outside_the_unit_interval_in_the_second_chunk_names_its_line(self):
        lines = [reference_line(r) for r in random_records(2 * _CHUNK_ROWS, layers=2, seed=18)]
        row = _CHUNK_ROWS + 7
        lines[row] = with_field("alpha", "0", lines[row])
        with pytest.raises(TraceError, match=rf"^<stream>: line {row + 1}: alpha must be a finite number in "
                                             r"\(0, 1\], got 0\.0$"):
            read_trace(lines)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lines_are_split_as_str_splitlines_splits_them(self, tmp_path_factory, data):
        # a line of another layer count or a refused value makes the error name a line number
        pool = TWO_LAYER_LINES + ["", "  ", ONE_LAYER, reference_line(make_record(alpha=5.0))]
        lines = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        text = "".join(line + data.draw(st.sampled_from(SEPARATORS)) for line in lines)
        text += data.draw(st.sampled_from(["", "x", TWO_LAYER_LINES[0]]))
        from_path, from_stream, from_lines, split_at_cr = read_every_way(text, tmp_path_factory.mktemp("split"))
        assert from_path == from_stream == from_lines == split_at_cr

    def test_peak_memory_stays_within_twice_the_file_size(self, tmp_path):
        path = tmp_path / "t.jsonl"
        size = write_trace_file(TraceColumns.from_records(random_records(4096, layers=4, seed=15)), path)
        tracemalloc.start()
        try:
            read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * size, f"tracemalloc peak {peak} bytes for a {size}-byte trace"

    @pytest.mark.parametrize("source", ["read_trace", "run_prompt"])
    def test_a_string_column_holds_one_object_per_distinct_value(self, tmp_path, source):
        if source == "read_trace":
            path = tmp_path / "t.jsonl"
            write_trace_file(TraceColumns.from_records(random_records(2 * _CHUNK_ROWS + 1, seed=16)), path)
            block = read_trace(path)
        else:
            model = build_model(ModelConfig(layer_count=2, depth=16, head_count=2, ffn_dim=32, max_seq=16, seed=5))
            _, block = run_prompt(model, [[72, 105, 33], [65, 66, 67]], HaltPolicy(), ["s0", "s1"])
        for name in ("sequence_id", "phase", "formula", "skip_mode"):
            column = getattr(block, name)
            assert len({id(v) for v in column}) == len(set(column.tolist())), name


class TestConsumersTakeABlock:
    @pytest.mark.parametrize("records", [[make_record()], []], ids=["one-record", "empty"])
    @pytest.mark.parametrize("name", ["write_trace", "render_bitmap", "usage_report", "norm_profile",
                                      "alpha_sweep", "export_reports"])
    def test_a_list_is_refused_naming_the_consumer(self, tmp_path, name, records):
        buf, out_dir = io.StringIO(), tmp_path / "out"
        call = {"write_trace": lambda r: write_trace(r, buf), "render_bitmap": render_bitmap,
                "usage_report": usage_report, "norm_profile": norm_profile,
                "alpha_sweep": lambda r: alpha_sweep(r, [0.5]), "export_reports": lambda r: export_reports(r, out_dir)}
        with pytest.raises(TypeError, match=rf"^{name} takes a TraceColumns block, got list: "
                                            r"wrap a list of TraceRecord with TraceColumns\.from_records$"):
            call[name](records)
        assert buf.getvalue() == "" and not out_dir.exists()


# Record fields that from_records refuses by their types, and the reader's message for each.
TYPE_REFUSED = [
    ("token_index", 1.5, "token_index must be an integer, got 1.5"),
    ("token_index", np.int64(3), f"token_index must be an integer, got {np.int64(3)!r}"),
    ("token_id", True, "token_id must be an integer, got True"),
    ("layer_flags", [2, 0], "layer_flags must be a list of 0 and 1, got [2, 0]"),
    ("alpha", "0.5", "alpha must be a number, got '0.5'"),
    ("sequence_id", 5, "sequence_id must be a string, got 5"),
    ("layer_norms", (1.0, 2.0), "layer_norms must be a list of numbers, got (1.0, 2.0)"),
]


class TestFromRecords:
    def test_per_layer_field_is_records_by_layers(self):
        records = [make_record(token_index=i, norms=[i, 2 * i]) for i in range(3)]
        arr = TraceColumns.from_records(records).layer_norms
        assert arr.shape == (3, 2) and arr.dtype == np.float64
        assert arr.tolist() == [[0, 0], [1, 2], [2, 4]]

    def test_scalar_field_is_one_per_record(self):
        records = [make_record(phase=p) for p in ("PP", "RG", "PP")]
        assert TraceColumns.from_records(records).phase.tolist() == ["PP", "RG", "PP"]

    def test_mixed_layer_counts_name_the_field(self):
        records = [make_record(), make_record(token_index=1)]
        assert TraceColumns.from_records(records).layer_flags.shape == (2, 2)
        records[1].layer_deltas = [1.0, 1.0, 1.0]
        with pytest.raises(TraceError, match=r"^per-layer arrays disagree: .*, 3 layer_deltas$"):
            TraceColumns.from_records(records)

    def test_a_layer_count_other_than_record_0s_names_the_record(self):
        records = [make_record(), make_record(token_index=1),
                   make_record(token_index=2, flags=[True] * 3, norms=[1.0] * 3, deltas=[1.0] * 3)]
        with pytest.raises(TraceError, match=r"^records mix layer counts: 2 in record 0, 3 in record 2$"):
            TraceColumns.from_records(records)

    @pytest.mark.parametrize("field, value, message", TYPE_REFUSED, ids=[f"{f}-{v!r}" for f, v, _ in TYPE_REFUSED])
    def test_a_field_of_another_type_is_refused_in_the_readers_words(self, field, value, message):
        bad = dataclasses.replace(make_record(token_index=1), **{field: value})
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            TraceColumns.from_records([make_record(), bad])
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            record_to_line(bad)

    def test_flags_may_be_bool_or_0_and_1(self):
        as_bool, as_int = make_record(flags=[True, False]), make_record(flags=[1, 0])
        assert TraceColumns.from_records([as_bool]) == TraceColumns.from_records([as_int])
        assert record_to_line(as_bool) == record_to_line(as_int) == reference_line(as_bool)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            TraceColumns.from_records([])

    @pytest.mark.parametrize("field", ["token_index", "token_id"])
    def test_integer_beyond_int64_names_the_field(self, field):
        records = [make_record(), make_record(**{"token_index": 1, field: 2**63})]
        with pytest.raises(TraceError, match=f"^{field} must fit in int64, got {2**63}$"):
            TraceColumns.from_records(records)


class TestBitmap:
    def test_single_column_top_to_bottom(self):
        r = make_record(flags=[True, False, True], norms=[1, 2, 3], deltas=[1, 1, 1])
        pgm = render_bitmap(TraceColumns.from_records([r]))
        # one token, three layers; last layer is the top row
        assert pgm == "P2\n1 3\n255\n255\n0\n255\n"

    def test_all_active(self):
        records = TraceColumns.from_records(make_record(token_index=i, flags=[True, True]) for i in range(2))
        assert render_bitmap(records) == "P2\n2 2\n255\n255 255\n255 255\n"

    def test_detect_run_dimensions_and_pixel_count(self):
        model = build_model(ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=32, max_seq=16, seed=5))
        _, records = run_prompt(model, [[72, 101, 108, 108, 111]], HaltPolicy(skip_mode=SkipMode.DETECT), ["s0"])
        pgm = render_bitmap(records[records.phase == "PP"])
        header = pgm.split("\n")[1]
        assert header == "5 4"
        assert white_pixel_count(pgm) == sum(sum(r.layer_flags) for r in records)

    def test_phase_filter_partition(self):
        records = TraceColumns.from_records(make_record(token_index=i, phase="PP" if i < 3 else "RG") for i in range(7))
        pp = render_bitmap(records[records.phase == "PP"])
        rg = render_bitmap(records[records.phase == "RG"])
        pp_cols = int(pp.split("\n")[1].split()[0])
        rg_cols = int(rg.split("\n")[1].split()[0])
        assert pp_cols + rg_cols == len(records)

    def test_columns_sorted_by_token_index(self):
        records = TraceColumns.from_records([
            make_record(token_index=1, flags=[False], norms=[1.0], deltas=[1.0]),
            make_record(token_index=0, flags=[True], norms=[1.0], deltas=[1.0]),
        ])
        assert render_bitmap(records) == "P2\n2 1\n255\n255 0\n"

    def test_mixed_layer_counts_rejected(self):
        records = [make_record(flags=[True, True]),
                   make_record(token_index=1, flags=[True, True, True], norms=[1, 2, 3], deltas=[0, 0, 0])]
        with pytest.raises(TraceError, match="layer counts"):
            render_bitmap(TraceColumns.from_records(records))

    def test_mixed_sequences_rejected(self):
        records = TraceColumns.from_records([make_record(seq="a"), make_record(seq="b", token_index=1)])
        with pytest.raises(ValueError, match="sequences"):
            render_bitmap(records)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            render_bitmap(TraceColumns.empty(2))
