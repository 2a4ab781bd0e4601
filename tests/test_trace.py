import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacvoid import (
    HaltPolicy,
    ModelConfig,
    SkipMode,
    TraceError,
    build_model,
    read_trace,
    render_bitmap,
    run_prompt,
    write_trace,
)
from lacvoid.trace import record_array, record_to_line, white_pixel_count
from conftest import make_record


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
        assert write_trace([], buf) == 0
        assert buf.getvalue() == ""

    def test_one_record_one_line(self):
        buf = io.StringIO()
        count = write_trace([make_record()], buf)
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
        write_trace(records, path)
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
        write_trace(records, path)
        for a, b in zip(records, read_trace(path)):
            assert np.float32(a.layer_norms).tobytes() == np.float32(b.layer_norms).tobytes()

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(record_to_line(make_record()) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(TraceError, match="line 2"):
            read_trace(path)

    def test_flag_length_mismatch_rejected(self, tmp_path):
        bad = record_to_line(make_record()).replace('"layer_norms":[1,2]', '"layer_norms":[1,2,3]')
        with pytest.raises(TraceError, match="line 1"):
            read_trace([bad])

    def test_missing_field_rejected(self):
        with pytest.raises(TraceError, match="missing"):
            read_trace(['{"sequence_id":"s0"}'])

    def test_bad_phase_rejected(self):
        line = record_to_line(make_record()).replace('"phase":"PP"', '"phase":"XX"')
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
            write_trace([record], buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("fields", [
        {"token_index": -1}, {"token_id": -3}, {"alpha": 1.5}, {"alpha": 0.0},
        {"formula": "bogus"}, {"skip_mode": "MASK_ZERO"}, {"flags": (), "norms": (), "deltas": ()},
    ], ids=["token_index", "token_id", "alpha-high", "alpha-zero", "formula", "skip_mode", "zero-layers"])
    def test_writer_refuses_what_the_reader_refuses(self, fields):
        record = make_record(**fields)
        with pytest.raises(TraceError):
            record_to_line(record)

    def test_append_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace([make_record(token_index=0)], path)
        write_trace([make_record(token_index=1)], path)
        assert len(read_trace(path)) == 2


def with_field(field, raw, line=None):
    """A valid trace line (by default make_record's) with one field's JSON text replaced by raw."""
    line = line if line is not None else record_to_line(make_record())
    out, n = re.subn(rf'"{field}":(\[[^\]]*\]|"[^"]*"|[^,}}]*)', lambda m: f'"{field}":{raw}', line, count=1)
    assert n == 1
    return out


ONE_LAYER = record_to_line(make_record(flags=[True], norms=[1.0], deltas=[1.0]))


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

    @pytest.mark.parametrize("raw", ["5", "null", '["s0"]'])
    def test_sequence_id_not_a_string(self, raw):
        with pytest.raises(TraceError, match="line 1: sequence_id"):
            read_trace([with_field("sequence_id", raw)])

    @pytest.mark.parametrize("field", ["formula", "skip_mode"])
    @pytest.mark.parametrize("raw", ['"bogus"', '"MODIFIED"', "1", "null"])
    def test_unknown_formula_or_skip_mode(self, field, raw):
        with pytest.raises(TraceError, match=f"line 1: {field}"):
            read_trace([with_field(field, raw)])

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
                back = read_trace([record_to_line(record)])[0]
                assert back == record

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_character_mutation_raises_or_round_trips(self, data):
        record = data.draw(st.sampled_from(random_records(6, layers=3, seed=4)))
        line = record_to_line(record)
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
        for r in back:
            record_to_line(r)


class TestRecordArray:
    def test_per_layer_field_is_records_by_layers(self):
        records = [make_record(token_index=i, norms=[i, 2 * i]) for i in range(3)]
        arr = record_array(records, "layer_norms", np.float64)
        assert arr.shape == (3, 2) and arr.dtype == np.float64
        assert arr.tolist() == [[0, 0], [1, 2], [2, 4]]

    def test_scalar_field_is_one_per_record(self):
        records = [make_record(phase=p) for p in ("PP", "RG", "PP")]
        assert record_array(records, "phase").tolist() == ["PP", "RG", "PP"]

    def test_mixed_layer_counts_name_the_field(self):
        records = [make_record(), make_record(token_index=1)]
        records[1].layer_deltas = [1.0, 1.0, 1.0]
        assert record_array(records, "layer_flags", bool).shape == (2, 2)
        with pytest.raises(TraceError, match=r"layer_deltas: \[2, 3\]"):
            record_array(records, "layer_deltas")

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            record_array([], "layer_flags")


class TestBitmap:
    def test_single_column_top_to_bottom(self):
        r = make_record(flags=[True, False, True], norms=[1, 2, 3], deltas=[1, 1, 1])
        pgm = render_bitmap([r])
        # one token, three layers; last layer is the top row
        assert pgm == "P2\n1 3\n255\n255\n0\n255\n"

    def test_all_active(self):
        records = [make_record(token_index=i, flags=[True, True]) for i in range(2)]
        assert render_bitmap(records) == "P2\n2 2\n255\n255 255\n255 255\n"

    def test_detect_run_dimensions_and_pixel_count(self):
        model = build_model(ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=32, max_seq=16, seed=5))
        _, records = run_prompt(model, [72, 101, 108, 108, 111], HaltPolicy(skip_mode=SkipMode.DETECT))
        pgm = render_bitmap(records, phase="PP")
        header = pgm.split("\n")[1]
        assert header == "5 4"
        assert white_pixel_count(pgm) == sum(sum(r.layer_flags) for r in records)

    def test_phase_filter_partition(self):
        records = [make_record(token_index=i, phase="PP" if i < 3 else "RG") for i in range(7)]
        pp = render_bitmap(records, phase="PP")
        rg = render_bitmap(records, phase="RG")
        pp_cols = int(pp.split("\n")[1].split()[0])
        rg_cols = int(rg.split("\n")[1].split()[0])
        assert pp_cols + rg_cols == len(records)

    def test_columns_sorted_by_token_index(self):
        records = [
            make_record(token_index=1, flags=[False]),
            make_record(token_index=0, flags=[True]),
        ]
        assert render_bitmap(records) == "P2\n2 1\n255\n255 0\n"

    def test_mixed_layer_counts_rejected(self):
        records = [make_record(flags=[True, True]),
                   make_record(token_index=1, flags=[True, True, True], norms=[1, 2, 3], deltas=[0, 0, 0])]
        with pytest.raises(TraceError, match="layer counts"):
            render_bitmap(records)

    def test_mixed_sequences_rejected(self):
        records = [make_record(seq="a"), make_record(seq="b", token_index=1)]
        with pytest.raises(ValueError, match="sequences"):
            render_bitmap(records)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            render_bitmap([make_record(phase="PP")], phase="RG")
