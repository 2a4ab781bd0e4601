import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lacvoid import (
    ContainerError,
    HaltPolicy,
    ModelConfig,
    NormGranularity,
    ShapeError,
    SkipMode,
    ToyTransformer,
    build_model,
    decode_tokens,
    encode_text,
    generate,
    layer_norm_pre,
    load_container,
    load_weights,
    run_prompt,
    run_stack,
    save_container,
    save_weights,
)
from lacvoid.model import GenerationState, KVCache, TransformerBlock, gelu, sinusoidal_positions
from lacvoid.trace import TraceColumns, TraceRecord
from conftest import reference_lines

OFF = HaltPolicy(skip_mode=SkipMode.OFF)
DETECT = HaltPolicy(skip_mode=SkipMode.DETECT)

CFG = ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=32, max_seq=64, seed=12)


def embed_at(model, ids, pos_start):
    """(1, n, D) input of tokens ids at positions pos_start.."""
    return (model.embed[ids] + sinusoidal_positions(pos_start + np.arange(len(ids)), model.config.depth))[None]


class TestBuild:
    def test_same_seed_same_bits(self):
        a, b = build_model(CFG), build_model(CFG)
        for name, arr in a.named_tensors().items():
            assert arr.tobytes() == b.named_tensors()[name].tobytes(), name

    def test_different_seeds_differ(self):
        import dataclasses
        other = build_model(dataclasses.replace(CFG, seed=13))
        assert build_model(CFG).embed.tobytes() != other.embed.tobytes()

    def test_construction_shape_preserving(self):
        cfg = ModelConfig(layer_count=4, depth=8, head_count=2, ffn_dim=16, max_seq=8, seed=0)
        model = build_model(cfg)
        assert model.layer_count == 4
        h0 = embed_at(model, encode_text("ab"), 0)
        out = run_stack(model.stack_for(model.new_cache(), [0], [0]), h0, OFF)
        assert out.final_hidden.shape == h0.shape

    def test_zero_embedding_forward_is_finite(self):
        cfg = ModelConfig(layer_count=2, depth=8, head_count=2, ffn_dim=16, max_seq=4, seed=0)
        model = build_model(cfg)
        h0 = np.zeros((1, 3, 8), dtype=np.float32)
        out = run_stack(model.stack_for(model.new_cache(), [0], [0]), h0, OFF)
        assert np.isfinite(out.final_hidden).all()

    @pytest.mark.parametrize("kwargs", [
        dict(layer_count=0, depth=8, head_count=2, ffn_dim=8),
        dict(layer_count=1, depth=9, head_count=2, ffn_dim=8),
        dict(layer_count=1, depth=8, head_count=3, ffn_dim=8),
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestContainer:
    def test_round_trip_identical_forward(self, tmp_path):
        import dataclasses
        model = build_model(dataclasses.replace(CFG, seed=9))
        path = tmp_path / "m.lactnsr"
        save_weights(model, path)
        loaded = load_weights(path)
        prompt = encode_text("hello")
        (s1,), _ = run_prompt(model, [prompt], OFF, ["s0"])
        (s2,), _ = run_prompt(loaded, [prompt], OFF, ["s0"])
        assert s1.last_logits.tobytes() == s2.last_logits.tobytes()

    def test_truncated_payload(self, tmp_path):
        model = build_model(CFG)
        path = tmp_path / "m.lactnsr"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ContainerError, match="(mismatch|out of range)"):
            load_weights(path)

    def test_overlapping_offsets_rejected(self, tmp_path):
        # Both tensors claim offset 0; the total byte count still matches the payload.
        header = b'{"a":{"dtype":"f32","offset":0,"shape":[2]},"b":{"dtype":"f32","offset":0,"shape":[2]}}'
        path = tmp_path / "m.lactnsr"
        path.write_bytes(b"LACTNSR1" + len(header).to_bytes(4, "little") + header + bytes(16))
        with pytest.raises(ContainerError, match="'b' at offset 0, expected 8"):
            load_container(path)

    def test_out_of_order_offsets_rejected(self, tmp_path):
        header = b'{"a":{"dtype":"f32","offset":4,"shape":[1]},"b":{"dtype":"f32","offset":0,"shape":[1]}}'
        path = tmp_path / "m.lactnsr"
        path.write_bytes(b"LACTNSR1" + len(header).to_bytes(4, "little") + header + bytes(8))
        with pytest.raises(ContainerError, match="'a' at offset 4, expected 0"):
            load_container(path)

    def test_load_builds_no_model(self, tmp_path, monkeypatch):
        model = build_model(CFG)
        path = tmp_path / "m.lactnsr"
        save_weights(model, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_weights drew random weights")
        monkeypatch.setattr("lacvoid.model._draw_streams", refuse)
        loaded = load_weights(path)
        for name, arr in model.named_tensors().items():
            assert loaded.named_tensors()[name].tobytes() == arr.tobytes(), name

    def test_wrong_shape_rejected(self, tmp_path):
        tensors = build_model(CFG).named_tensors()
        tensors["config"] = np.array([4, 16, 2, 32, 256, 64], dtype=np.float32)
        tensors["block1.ffn.w1"] = np.zeros((32, 16), dtype=np.float32)
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        with pytest.raises(ContainerError, match=r"'block1.ffn.w1' has shape \(32, 16\), expected \(16, 32\)"):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.lactnsr"
        path.write_bytes(b"NOTVALID" + b"\x00" * 16)
        with pytest.raises(ContainerError, match="magic"):
            load_weights(path)

    def test_unknown_tensor_name(self, tmp_path):
        model = build_model(CFG)
        tensors = model.named_tensors()
        tensors["config"] = np.array([4, 16, 2, 32, 256, 64], dtype=np.float32)
        tensors["block9.mystery"] = np.zeros(3, dtype=np.float32)
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        with pytest.raises(ContainerError, match="unknown tensor name"):
            load_weights(path)

    def test_config_claiming_more_layers_than_the_file_holds(self, tmp_path):
        tensors = build_model(ModelConfig(layer_count=1, depth=4, head_count=1, ffn_dim=4, max_seq=4)).named_tensors()
        tensors["config"] = np.array([100_000, 4, 1, 4, 256, 4], dtype=np.float32)
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        with pytest.raises(ContainerError, match="config claims 100000 layers, which need 800002 tensors, "
                                                 "but the file holds 10") as info:
            load_weights(path)
        assert len(str(info.value)) < 200

    def test_dropped_tensor_is_missing(self, tmp_path):
        tensors = build_model(CFG).named_tensors()
        tensors["config"] = np.array([4, 16, 2, 32, 256, 64], dtype=np.float32)
        del tensors["block3.ffn.w2"]
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        with pytest.raises(ContainerError, match="missing tensor"):
            load_weights(path)

    def test_config_value_that_is_not_an_integer(self, tmp_path):
        tensors = build_model(CFG).named_tensors()
        tensors["config"] = np.array([4, 16, 2, 32, 256.5, 64], dtype=np.float32)
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        with pytest.raises(ContainerError, match="malformed 'config' tensor"):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_non_finite_config_value_is_malformed(self, tmp_path, value):
        tensors = build_model(CFG).named_tensors()
        tensors["config"] = np.array([4, 16, 2, 32, 256, value], dtype=np.float32)
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        with pytest.raises(ContainerError, match=r"m\.lactnsr: malformed 'config' tensor$"):
            load_weights(path)

    def test_config_field_over_2_24_is_refused_before_the_file_is_opened(self, tmp_path):
        # float32 holds 2**24 + 1 as 2**24, so the file would load as another model
        path = tmp_path / "m.lactnsr"
        path.write_bytes(b"an earlier file")
        model = build_model(ModelConfig(layer_count=1, depth=4, head_count=1, ffn_dim=4, max_seq=2 ** 24 + 1))
        with pytest.raises(ValueError, match=r"^config field max_seq = 16777217 is over 2\*\*24, "):
            save_weights(model, path)
        assert path.read_bytes() == b"an earlier file"

    def test_config_field_of_2_24_round_trips(self, tmp_path):
        config = ModelConfig(layer_count=1, depth=4, head_count=1, ffn_dim=4, max_seq=2 ** 24)
        save_weights(build_model(config), tmp_path / "m.lactnsr")
        assert load_weights(tmp_path / "m.lactnsr").config == config

    @pytest.mark.parametrize("value", [2.0 ** 25, np.nan], ids=["2**25", "nan"])
    def test_config_value_save_weights_would_not_write_is_refused_on_load(self, tmp_path, value):
        # float32 holds 2**25 exactly, but save_weights refuses it, so the model could not be saved again
        tensors = build_model(ModelConfig(layer_count=1, depth=4, head_count=1, ffn_dim=4, max_seq=4)).named_tensors()
        tensors["config"] = np.array([1, 4, 1, 4, 256, value], dtype=np.float32)
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        with pytest.raises(ContainerError, match=r"m\.lactnsr: malformed 'config' tensor$"):
            load_weights(path)

    @pytest.mark.parametrize("config, reason", [
        ([1, 4, 3, 4, 256, 4], "depth 4 not divisible by head_count 3"),
        ([0, 4, 1, 4, 256, 4], "layer_count must be positive"),
    ], ids=["head_count 3", "layer_count 0"])
    def test_config_that_model_config_refuses_names_the_file(self, tmp_path, config, reason):
        tensors = build_model(ModelConfig(layer_count=1, depth=4, head_count=1, ffn_dim=4, max_seq=4)).named_tensors()
        tensors["config"] = np.array(config, dtype=np.float32)
        path = tmp_path / "m.lactnsr"
        save_container(tensors, path)
        message = f"{path}: malformed 'config' tensor: {reason}"
        with pytest.raises(ContainerError, match=f"^{re.escape(message)}$"):
            load_weights(path)

    def test_missing_config(self, tmp_path):
        path = tmp_path / "m.lactnsr"
        save_container({"embed": np.zeros((4, 2), np.float32)}, path)
        with pytest.raises(ContainerError, match="config"):
            load_weights(path)


def gelu64(x: float) -> float:
    c = 0.7978845608028654
    return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))


def rms64(vec, gain, eps=1e-5):
    ms = sum(v * v for v in vec) / len(vec)
    return [v / math.sqrt(ms + eps) * g for v, g in zip(vec, gain)]


class TestHandComputedForward:
    """One-layer, depth-2, single-head model small enough to compute by hand."""

    def tensors(self):
        embed = np.zeros((256, 2), dtype=np.float32)
        embed[65] = [0.5, -0.25]
        embed[66] = [0.3, 0.1]
        return {
            "config": np.array([1, 2, 1, 2, 256, 4], dtype=np.float32),
            "embed": embed,
            "ln_f.gain": np.array([1.0, 1.0], dtype=np.float32),
            "block0.ln1.gain": np.array([1.0, 2.0], dtype=np.float32),
            "block0.attn.wq": np.array([[0.1, 0.0], [0.0, 0.1]], dtype=np.float32),
            "block0.attn.wk": np.array([[0.2, 0.0], [0.0, 0.2]], dtype=np.float32),
            "block0.attn.wv": np.array([[0.3, -0.1], [0.2, 0.4]], dtype=np.float32),
            "block0.attn.wo": np.array([[1.0, 0.5], [-0.5, 1.0]], dtype=np.float32),
            "block0.ln2.gain": np.array([1.0, 1.0], dtype=np.float32),
            "block0.ffn.w1": np.array([[0.6, -0.2], [0.1, 0.7]], dtype=np.float32),
            "block0.ffn.w2": np.array([[0.5, 0.3], [-0.4, 0.8]], dtype=np.float32),
        }

    def oracle_logits(self, tensors):
        # scalar float64 re-derivation, independent of the array code
        x = [0.5 + 0.0, -0.25 + 1.0]  # embed[65] + positions[0] = [sin 0, cos 0]
        a = rms64(x, tensors["block0.ln1.gain"])
        wv, wo = tensors["block0.attn.wv"], tensors["block0.attn.wo"]
        v = [a[0] * wv[0][0] + a[1] * wv[1][0], a[0] * wv[0][1] + a[1] * wv[1][1]]
        # one token attending to itself: softmax over a single score is 1
        attn = [v[0] * wo[0][0] + v[1] * wo[1][0], v[0] * wo[0][1] + v[1] * wo[1][1]]
        h = [x[0] + attn[0], x[1] + attn[1]]
        f = rms64(h, tensors["block0.ln2.gain"])
        w1, w2 = tensors["block0.ffn.w1"], tensors["block0.ffn.w2"]
        u = [gelu64(f[0] * w1[0][0] + f[1] * w1[1][0]), gelu64(f[0] * w1[0][1] + f[1] * w1[1][1])]
        ffn = [u[0] * w2[0][0] + u[1] * w2[1][0], u[0] * w2[0][1] + u[1] * w2[1][1]]
        h2 = [h[0] + ffn[0], h[1] + ffn[1]]
        hn = rms64(h2, tensors["ln_f.gain"])
        embed = tensors["embed"]
        return np.array([hn[0] * embed[t][0] + hn[1] * embed[t][1] for t in range(256)])

    def test_forward_matches_hand_computation(self, tmp_path):
        tensors = self.tensors()
        path = tmp_path / "tiny.lactnsr"
        save_container(tensors, path)
        model = load_weights(path)
        (state,), _ = run_prompt(model, [[65]], OFF, ["s0"])
        assert np.abs(state.last_logits - self.oracle_logits(tensors)).max() < 1e-5


def records_from_outcome(outcome, ids, starts, sequence_ids, phase, policy):
    """The per-token records of one run_stack outcome, built one TraceRecord at a time."""
    kept = ~outcome.void_flags
    return [TraceRecord(sequence_id=seq, token_index=start + j, phase=phase, token_id=int(tok),
                        layer_flags=kept[:, b, j].tolist(), layer_norms=outcome.token_norms[:, b, j].tolist(),
                        layer_deltas=outcome.token_deltas[:, b, j].tolist(), alpha=float(policy.alpha),
                        formula="modified", skip_mode=policy.skip_mode.value)
            for b, (row_ids, start, seq) in enumerate(zip(ids, starts, sequence_ids))
            for j, tok in enumerate(row_ids)]


TRACE_POLICIES = [DETECT, HaltPolicy(alpha=0.6, skip_mode=SkipMode.HALT_FROZEN),
                  HaltPolicy(granularity=NormGranularity.EXAMPLE, skip_mode=SkipMode.SKIP_IDENTITY)]


class TestTraceBlocks:
    @pytest.mark.parametrize("policy", TRACE_POLICIES)
    def test_run_prompt_block_holds_the_outcome_records(self, policy):
        model = build_model(CFG)
        prompt = encode_text("columns")
        _, block = run_prompt(model, [prompt], policy, ["p7"])
        out = run_stack(model.stack_for(model.new_cache(), [0], [0]), embed_at(model, prompt, 0), policy)
        assert isinstance(block, TraceColumns)
        assert list(block) == records_from_outcome(out, [prompt], [0], ["p7"], "PP", policy)

    @pytest.mark.parametrize("policy", TRACE_POLICIES)
    def test_generate_block_holds_each_steps_outcome_records(self, policy):
        model = build_model(CFG)
        prompt = encode_text("rows")
        (state,), _ = run_prompt(model, [prompt], policy, ["g"])
        (ids,), (block,) = generate([state], model, policy, 6)
        assert isinstance(block, TraceColumns) and len(ids) == 6
        (ref,), _ = run_prompt(model, [prompt], policy, ["g"])
        expected, pos = [], len(prompt)
        for tok in ids:
            out = run_stack(model.stack_for(ref.cache, [0], [pos]), embed_at(model, [tok], pos), policy)
            expected += records_from_outcome(out, [[tok]], [pos], ["g"], "RG", policy)
            pos += 1
        assert list(block) == expected


class TestRunPrompt:
    def test_single_token_off(self):
        model = build_model(CFG)
        _, records = run_prompt(model, [[65]], OFF, ["s0"])
        assert len(records) == 1
        assert records[0].phase == "PP"
        assert records[0].layer_flags == [True] * 4

    def test_five_tokens_per_token_records(self):
        model = build_model(CFG)
        _, records = run_prompt(model, [encode_text("abcde")], DETECT, ["s0"])
        assert len(records) == 5
        assert all(len(r.layer_flags) == 4 for r in records)
        assert [r.token_index for r in records] == list(range(5))

    def test_detect_vs_off_identical_logits(self):
        model = build_model(CFG)
        (s_off,), _ = run_prompt(model, [encode_text("hi there")], OFF, ["s0"])
        (s_det,), _ = run_prompt(model, [encode_text("hi there")], DETECT, ["s0"])
        assert s_off.last_logits.tobytes() == s_det.last_logits.tobytes()

    def test_record_delta_consistency(self):
        # recorded per-layer deltas are successive norm differences
        model = build_model(CFG)
        _, records = run_prompt(model, [encode_text("xyz")], DETECT, ["s0"])
        for r in records:
            for t in range(1, len(r.layer_norms)):
                assert r.layer_deltas[t] == pytest.approx(r.layer_norms[t] - r.layer_norms[t - 1], abs=1e-5)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            run_prompt(build_model(CFG), [[]], OFF, ["s0"])

    def test_overlong_prompt_rejected(self):
        cfg = ModelConfig(layer_count=1, depth=8, head_count=1, ffn_dim=8, max_seq=3, seed=0)
        with pytest.raises(ValueError, match="max_seq"):
            run_prompt(build_model(cfg), [[1, 2, 3, 4]], OFF, ["s0"])

    @pytest.mark.parametrize("prompt", [b"hi", bytearray(b"hi")], ids=["bytes", "bytearray"])
    def test_byte_string_prompt_is_its_ids(self, prompt):
        # a bytes-like prompt iterates as its byte values, the ids a str prompt encodes to
        model = build_model(CFG)
        (want,), want_trace = run_prompt(model, ["hi"], DETECT, ["s0"])
        (got,), got_trace = run_prompt(model, [prompt], DETECT, ["s0"])
        assert reference_lines(got_trace) == reference_lines(want_trace)
        assert got.last_logits.tobytes() == want.last_logits.tobytes()

    def test_bad_token_id_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            run_prompt(build_model(CFG), [[300]], OFF, ["s0"])


def zero_block(depth: int) -> TransformerBlock:
    z = np.zeros((depth, depth), dtype=np.float32)
    return TransformerBlock(
        ln1_gain=np.ones(depth, np.float32), wq=z, wk=z, wv=z, wo=z,
        ln2_gain=np.ones(depth, np.float32),
        w1=np.zeros((depth, depth), np.float32), w2=np.zeros((depth, depth), np.float32),
        head_count=1,
    )


class TestGenerate:
    def test_max_new_zero(self):
        model = build_model(CFG)
        (state,), _ = run_prompt(model, [[65]], OFF, ["s0"])
        ids, records = generate([state], model, OFF, 0)
        assert ids == [[]] and records == [TraceColumns.empty(model.layer_count)]

    def test_deterministic(self):
        model = build_model(CFG)
        runs = []
        for _ in range(2):
            (state,), _ = run_prompt(model, [encode_text("abc")], OFF, ["s0"])
            ids, _ = generate([state], model, OFF, 8)
            runs.append(ids)
        assert runs[0] == runs[1]

    def test_stops_at_end_of_text(self):
        # all-zero blocks leave the hidden state at embed+position; with
        # embed[0] = [1, 1] and every other row zero, token 0 wins the argmax
        cfg = ModelConfig(layer_count=1, depth=2, head_count=1, ffn_dim=2, max_seq=4, seed=0)
        embed = np.zeros((256, 2), dtype=np.float32)
        embed[0] = [1.0, 1.0]
        model = ToyTransformer(cfg, embed, [zero_block(2)], np.ones(2, np.float32))
        (state,), _ = run_prompt(model, [[7]], OFF, ["s0"])
        ids, records = generate([state], model, OFF, 3)
        assert ids == [[]] and records == [TraceColumns.empty(1)]

    def test_phase_partition(self):
        model = build_model(CFG)
        prompt = encode_text("partition")
        (state,), pp_records = run_prompt(model, [prompt], DETECT, ["s0"])
        (ids,), (rg_records,) = generate([state], model, DETECT, 6)
        assert len(pp_records) == len(prompt)
        assert len(rg_records) == len(ids)
        assert all(r.phase == "PP" for r in pp_records)
        assert all(r.phase == "RG" for r in rg_records)
        assert state.position == len(prompt) + len(ids)

    def test_position_overflow(self):
        cfg = ModelConfig(layer_count=1, depth=8, head_count=1, ffn_dim=8, max_seq=3, seed=1)
        model = build_model(cfg)
        (state,), _ = run_prompt(model, [[65, 66, 67]], OFF, ["s0"])
        ids, records = generate([state], model, OFF, 2)
        assert ids == [[]] and records == [TraceColumns.empty(1)]
        assert isinstance(state.error, ValueError) and "overflow" in str(state.error)

    def test_kv_cache_matches_full_reforward(self):
        model = build_model(CFG)
        prompt = encode_text("kv check")
        continuation = encode_text("abcd")
        (state,), _ = run_prompt(model, [prompt], OFF, ["s0"])
        inc = [np.asarray(state.last_logits)]
        pos = state.position
        for tok in continuation:
            h0 = embed_at(model, [tok], pos)
            out = run_stack(model.stack_for(state.cache, [state.row], [pos]), h0, OFF)
            inc.append(model.logits_from_hidden(out.final_hidden)[0, -1])
            pos += 1
        full = prompt + continuation
        out = run_stack(model.stack_for(model.new_cache(), [0], [0]), embed_at(model, full, 0), OFF)
        grid = model.logits_from_hidden(out.final_hidden)[0]
        for i, logits in enumerate(inc):
            assert np.abs(logits - grid[len(prompt) - 1 + i]).max() < 1e-4

    @pytest.mark.parametrize("index", [-1, 4])
    def test_without_layer_out_of_range_is_refused(self, index):
        with pytest.raises(IndexError, match=rf"^layer index {index} out of range for 4 layers$"):
            build_model(CFG).without_layer(index)

    def test_always_void_middle_layer_equals_removed_layer(self):
        model = build_model(CFG)
        reduced = model.without_layer(1)
        skip = HaltPolicy(skip_mode=SkipMode.SKIP_IDENTITY)
        forced = [False, True, False, False]
        prompt = encode_text("remove me")
        (s1,), _ = run_prompt(model, [prompt], skip, ["s0"], forced_voids=forced)
        ids1, _ = generate([s1], model, skip, 6, forced_voids=forced)
        (s2,), _ = run_prompt(reduced, [prompt], OFF, ["s0"])
        ids2, _ = generate([s2], reduced, OFF, 6)
        assert ids1 == ids2
        assert np.abs(np.asarray(s1.last_logits) - np.asarray(s2.last_logits)).max() < 1e-5


class TestKVCache:
    def test_buffers_allocated_once_and_written_in_place(self):
        cache = KVCache(layer_count=2, rows=3, head_count=2, capacity=5, head_dim=4)
        buffers = [(k, v) for k, v in zip(cache.k, cache.v)]
        rng = np.random.default_rng(0)
        pos = 0
        for n in (3, 1, 1):
            k = rng.standard_normal((2, 2, n, 4)).astype(np.float32)
            v = rng.standard_normal((2, 2, n, 4)).astype(np.float32)
            k_all, v_all = cache.append(1, slice(1, 3), pos, k, v)
            pos += n
            assert k_all.shape == (2, 2, 4, pos) and v_all.shape == (2, 2, pos, 4)  # keys stored transposed
            assert np.shares_memory(k_all, cache.k[1]) and np.shares_memory(v_all, cache.v[1])
            assert np.array_equal(k_all[..., -n:], k.transpose(0, 1, 3, 2)) and np.array_equal(v_all[:, :, -n:], v)
        assert all(cache.k[i] is buffers[i][0] and cache.v[i] is buffers[i][1] for i in range(2))
        assert not cache.k[1][0].any() and not cache.k[0].any()  # other rows and layers untouched

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 4), spare_rows=st.integers(0, 2), heads=st.integers(1, 4),
           head_dim=st.sampled_from([1, 2, 4, 8, 16, 32, 64]), keys=st.integers(1, 40), new=st.integers(1, 8),
           spare_positions=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_products_with_the_views_equal_those_with_copies(self, rows, spare_rows, heads, head_dim, keys, new,
                                                             spare_positions, seed):
        # attention multiplies the views append returns; it copies a key view only at 3 keys or fewer,
        # where the strided product is not the copy's, bit for bit
        new = min(new, keys)
        rng = np.random.default_rng(seed)
        cache = KVCache(1, spare_rows + rows, heads, keys + spare_positions, head_dim)
        for buf in cache.k + cache.v:
            buf[...] = rng.standard_normal(buf.shape).astype(np.float32)
        k, v = (rng.standard_normal((rows, heads, new, head_dim)).astype(np.float32) for _ in "kv")
        k_t, v_all = cache.append(0, slice(spare_rows, spare_rows + rows), keys - new, k, v)
        q = rng.standard_normal((rows, heads, new, head_dim)).astype(np.float32)
        scores = rng.standard_normal((rows, heads, new, keys)).astype(np.float32)
        if keys > 3:
            assert np.matmul(q, k_t).tobytes() == np.matmul(q, np.ascontiguousarray(k_t)).tobytes()
        assert np.matmul(scores, v_all).tobytes() == np.matmul(scores, np.ascontiguousarray(v_all)).tobytes()

    def test_write_past_capacity_raises(self):
        cache = KVCache(layer_count=1, rows=1, head_count=1, capacity=3, head_dim=2)
        kv = np.ones((1, 1, 2, 2), dtype=np.float32)
        cache.append(0, slice(0, 1), 0, kv, kv)
        with pytest.raises(ValueError, match="^position 3 overflows the KV cache's capacity 3$"):
            cache.append(0, slice(0, 1), 2, kv, kv)

    def test_prompt_past_the_cache_capacity_names_the_capacity(self):
        # max_seq 64 admits the prompt; the 3-position cache is the limit it passes
        model = build_model(CFG)
        cache = model.new_cache(1, capacity=3)
        with pytest.raises(ValueError, match="^position 4 overflows the KV cache's capacity 3$"):
            run_prompt(model, ["hello"], OFF, ["s0"], cache=cache)
        assert not any(buf.any() for buf in cache.k + cache.v)

    def test_unallocatable_cache_is_a_named_value_error(self, monkeypatch):
        real_zeros = np.zeros

        def zeros(shape, *args, **kwargs):
            if math.prod(shape) > 1 << 30:
                raise MemoryError("Unable to allocate 238. GiB")
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        model = build_model(ModelConfig(layer_count=1, depth=16, head_count=2, ffn_dim=32, max_seq=4_000_000_000))
        with pytest.raises(ValueError, match=r"capacity 4000000000 .* 512000000000 bytes"):
            run_prompt(model, [[65]], OFF, ["s0"])

    def test_decoding_keeps_the_buffers(self):
        model = build_model(CFG)
        (state,), _ = run_prompt(model, [encode_text("buffers")], OFF, ["s0"])
        before = list(state.cache.k)
        generate([state], model, OFF, 4)
        assert all(a is b for a, b in zip(before, state.cache.k))


# A model whose end-of-text logit follows one position's sinusoid: EOT
# wins near that position, so rows of different prompt lengths stop at
# different steps, and long prompts run past max_seq.
EOT_BASE = build_model(ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=32, max_seq=24, seed=5))


def eot_model(target: int, scale: float) -> ToyTransformer:
    embed = EOT_BASE.embed.copy()
    embed[0] = np.float32(scale) * sinusoidal_positions(target, EOT_BASE.config.depth)
    return ToyTransformer(EOT_BASE.config, embed, EOT_BASE.blocks, EOT_BASE.ln_f_gain)


STAGGERED = [encode_text(p) for p in ("hello", "k", "zz top", "0123", "abcdefghijklmnopqrst", "the quick brown fox!")]


def decode_alone(model, prompt, policy, max_new, forced):
    """Batch-of-one reference: (state, PP block, ids, RG lines, error text)."""
    (state,), pp = run_prompt(model, [prompt], policy, ["seq0"], forced_voids=forced)
    (ids,), (rg,) = generate([state], model, policy, max_new, forced_voids=forced)
    return state, pp, ids, reference_lines(rg), None if state.error is None else str(state.error)


class TestBatchedGenerate:
    def test_rows_stop_at_different_steps_and_overflow(self):
        model = eot_model(9, 0.3)
        cache = model.new_cache(len(STAGGERED))
        states = [run_prompt(model, [p], DETECT, ["seq0"], cache=cache, rows=[i])[0][0]
                  for i, p in enumerate(STAGGERED)]
        ids, _ = generate(states, model, DETECT, 12)
        assert [len(x) for x in ids] == [5, 9, 4, 6, 4, 4]
        assert [s.error is not None for s in states] == [False] * 4 + [True] * 2
        assert str(states[4].error) == "position 24 overflows max_seq 24"

    @pytest.mark.parametrize("mode", list(SkipMode))
    @pytest.mark.parametrize("granularity", [NormGranularity.EXAMPLE, NormGranularity.TOKEN])
    @settings(max_examples=6, deadline=None)
    @given(
        prompts=st.lists(st.lists(st.integers(1, 255), min_size=1, max_size=16), min_size=1, max_size=5),
        equal=st.booleans(),
        order=st.randoms(use_true_random=False),
        max_new=st.integers(0, 12),
        target=st.integers(4, 23),
        scale=st.sampled_from([0.3, 0.5]),
        alpha=st.sampled_from([0.3, 0.6, 0.9]),
        forced=st.none() | st.lists(st.booleans(), min_size=4, max_size=4),
    )
    @example(prompts=STAGGERED, equal=False, order=random.Random(0), max_new=12,
             target=9, scale=0.3, alpha=0.6, forced=None)
    def test_batch_equals_batches_of_one(self, mode, granularity, prompts, equal, order, max_new,
                                         target, scale, alpha, forced):
        if equal:
            prompts = [p[:min(map(len, prompts))] for p in prompts]
        model = eot_model(target, scale)
        policy = HaltPolicy(granularity=granularity, alpha=alpha, skip_mode=mode)
        alone = [decode_alone(model, p, policy, max_new, forced) for p in prompts]

        rows = list(range(len(prompts)))
        order.shuffle(rows)
        cache = model.new_cache(len(prompts))
        states = []
        for p, row, (_, pp, _, _, _) in zip(prompts, rows, alone):
            (state,), records = run_prompt(model, [p], policy, ["seq0"], forced_voids=forced, cache=cache, rows=[row])
            assert reference_lines(records) == reference_lines(pp)
            states.append(state)
        ids, rg = generate(states, model, policy, max_new, forced_voids=forced)

        for i, (ref, pp, ref_ids, ref_rg, err) in enumerate(alone):
            assert ids[i] == ref_ids
            assert reference_lines(rg[i]) == ref_rg
            assert states[i].last_logits.tobytes() == ref.last_logits.tobytes()
            assert states[i].position == ref.position
            assert (None if states[i].error is None else str(states[i].error)) == err

    def test_cache_smaller_than_max_seq_stops_each_row_at_its_capacity(self):
        model = build_model(ModelConfig(layer_count=1, depth=8, head_count=1, ffn_dim=32, max_seq=64, seed=1))
        prompts = [encode_text("abcd"), encode_text("ab")]
        cache = model.new_cache(2, capacity=6)
        states = [run_prompt(model, [p], DETECT, ["seq0"], cache=cache, rows=[i])[0][0] for i, p in enumerate(prompts)]
        ids, rg = generate(states, model, DETECT, 10)
        assert [s.position for s in states] == [6, 6] and [len(x) for x in ids] == [2, 4]
        for i, p in enumerate(prompts):
            (alone,), _ = run_prompt(model, [p], DETECT, ["seq0"], cache=model.new_cache(1, capacity=6))
            (ref_ids,), (ref_rg,) = generate([alone], model, DETECT, 10)
            assert ids[i] == ref_ids
            assert reference_lines(rg[i]) == reference_lines(ref_rg)
            assert str(states[i].error) == str(alone.error) == "position 6 overflows the KV cache's capacity 6"

    def test_decoding_resumes_exactly(self):
        model = build_model(ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=32, max_seq=64, seed=3))
        policy = HaltPolicy(alpha=0.8, skip_mode=SkipMode.SKIP_IDENTITY)
        prompts, seqs = ["abcd", "wxyz", "lac!"], ["a", "b", "c"]
        split, _ = run_prompt(model, prompts, policy, seqs)
        first_ids, first_rg = generate(split, model, policy, 4)
        then_ids, then_rg = generate(split, model, policy, 6)
        whole, _ = run_prompt(model, prompts, policy, seqs)
        ids, rg = generate(whole, model, policy, 10)
        assert [len(x) for x in ids] == [10, 10, 10]  # no end-of-text between the two calls
        assert [a + b for a, b in zip(first_ids, then_ids)] == ids
        assert [a + b for a, b in zip(first_rg, then_rg)] == rg
        assert [s.position for s in split] == [s.position for s in whole] == [14, 14, 14]
        assert [s.last_logits.tobytes() for s in split] == [s.last_logits.tobytes() for s in whole]

    def test_states_must_share_a_cache_in_distinct_rows(self):
        model = build_model(CFG)
        (a,), _ = run_prompt(model, [[65]], OFF, ["a"])
        (b,), _ = run_prompt(model, [[66]], OFF, ["b"])
        with pytest.raises(ValueError, match="share one KVCache"):
            generate([a, b], model, OFF, 2)
        (c,), _ = run_prompt(model, [[67]], OFF, ["c"], cache=a.cache)
        with pytest.raises(ValueError, match="distinct cache rows"):
            generate([a, c], model, OFF, 2)

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 2)])
    def test_forced_voids_not_one_flag_per_layer_is_refused_before_anything_runs(self, shape):
        model = build_model(CFG)
        (state,), _ = run_prompt(model, [[65]], OFF, ["a"])
        message = f"forced_voids shape {shape} is not one flag per layer (4)"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            generate([state], model, OFF, 2, forced_voids=np.zeros(shape, dtype=bool))
        assert state.position == 1

    @pytest.mark.parametrize("row", [5, -1, -2])
    def test_row_outside_the_cache_is_refused_before_anything_is_written(self, row):
        # -2 would index row 0 of a 2-row cache from the end; -1 and 5 select no row at all
        model = build_model(CFG)
        (a,), _ = run_prompt(model, [[65]], OFF, ["a"], cache=model.new_cache(2))
        before = [buf.copy() for buf in a.cache.k + a.cache.v]
        logits = np.zeros(model.config.vocab_size, dtype=np.float32)
        logits[66] = 1.0  # not the end-of-text byte, so the state would decode
        stray = GenerationState("b", a.cache, 0, logits, row)
        with pytest.raises(ValueError, match=rf"^cache row {row} is outside the cache's 2 rows \[0, 2\)$"):
            generate([a, stray], model, OFF, 2)
        assert all(np.array_equal(x, y) for x, y in zip(before, a.cache.k + a.cache.v))
        assert a.position == 1 and stray.position == 0


class TestBatchedRunPrompt:
    @pytest.mark.parametrize("mode", list(SkipMode))
    @pytest.mark.parametrize("granularity", [NormGranularity.EXAMPLE, NormGranularity.TOKEN])
    @settings(max_examples=5, deadline=None)
    @given(
        length=st.integers(1, 12),
        count=st.integers(1, 4),
        spare=st.integers(0, 2),
        data=st.data(),
        alpha=st.sampled_from([0.3, 0.6, 0.9]),
        forced=st.none() | st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_batch_equals_prompts_alone(self, mode, granularity, length, count, spare, data, alpha, forced):
        prompts = data.draw(st.lists(st.lists(st.integers(1, 255), min_size=length, max_size=length),
                                     min_size=count, max_size=count))
        rows = data.draw(st.permutations(range(count + spare)))[:count]
        model = build_model(CFG)
        policy = HaltPolicy(granularity=granularity, alpha=alpha, skip_mode=mode)
        cache = model.new_cache(count + spare)
        seqs = [f"s{b}" for b in range(count)]
        states, block = run_prompt(model, prompts, policy, seqs, forced_voids=forced, cache=cache, rows=rows)

        assert isinstance(block, TraceColumns) and len(block) == count * length
        for b, (prompt, row) in enumerate(zip(prompts, rows)):
            (ref,), ref_block = run_prompt(model, [prompt], policy, [seqs[b]], forced_voids=forced)
            state = states[b]
            assert (state.sequence_id, state.row, state.position, state.cache) == (seqs[b], row, length, cache)
            assert state.last_logits.tobytes() == ref.last_logits.tobytes()
            for layer in range(model.layer_count):
                assert cache.k[layer][row].tobytes() == ref.cache.k[layer][0].tobytes()
                assert cache.v[layer][row].tobytes() == ref.cache.v[layer][0].tobytes()
            got = block[b * length:(b + 1) * length]
            assert reference_lines(got) == reference_lines(ref_block)
        untouched = sorted(set(range(count + spare)) - set(rows))
        assert not any(cache.k[layer][untouched].any() for layer in range(model.layer_count))

    @pytest.mark.parametrize("prompts, rows, match", [
        ([[65, 66], [67]], [0, 1], r"share one length, got lengths \[1, 2\]"),
        ([[65], [66]], [1, 1], "distinct cache rows"),
        ([[65], [66]], [0], "as many prompts, sequence ids and rows"),
        ([], [], "at least one"),
        ([[65], [300]], [0, 1], r"token id 300 outside vocabulary \[0, 256\)"),
    ])
    def test_refused_batches(self, prompts, rows, match):
        model = build_model(CFG)
        with pytest.raises(ValueError, match=match):
            run_prompt(model, prompts, OFF, [f"s{i}" for i in range(len(prompts))], cache=model.new_cache(2), rows=rows)

    @pytest.mark.parametrize("prompts, seqs, name", [
        ("hi", "s0", "prompts"),  # an old single-prompt call
        ("hi", ["a", "b"], "prompts"),  # would trace "h" and "i" as two prompts
        (["hi"], "s0", "sequence_ids"),
    ], ids=["both-str", "str-prompts", "str-sequence-ids"])
    def test_str_for_a_list_is_refused_before_the_forward_pass(self, prompts, seqs, name):
        model = build_model(CFG)
        cache = model.new_cache(2)
        with pytest.raises(TypeError, match=f"^{name} must be a list, one entry per prompt, not the str"):
            run_prompt(model, prompts, OFF, seqs, cache=cache)
        assert not any(buf.any() for buf in cache.k + cache.v)

    @pytest.mark.parametrize("row", [-2, 2])
    def test_row_outside_the_cache_is_refused_before_anything_is_written(self, row):
        # -2 would index row 0 of a 2-row cache from the end; 2 is past its last row
        model = build_model(CFG)
        cache = model.new_cache(2)
        with pytest.raises(ValueError, match=rf"^cache row {row} is outside the cache's 2 rows \[0, 2\)$"):
            run_prompt(model, ["hi"], OFF, ["s0"], cache=cache, rows=[row])
        assert not any(buf.any() for buf in cache.k + cache.v)

    @pytest.mark.parametrize("rows, message", [
        ([1, 1], "cache row 1 is given twice: a batch needs distinct cache rows"),
        ([-1, 0], r"cache row -1 is outside the cache's 1 rows \[0, 1\)"),
    ], ids=["repeated", "negative"])
    def test_rows_are_checked_before_a_default_cache_is_made(self, monkeypatch, rows, message):
        def refuse(*args, **kwargs):
            raise AssertionError("run_prompt made a cache for rows it refuses")
        monkeypatch.setattr(ToyTransformer, "new_cache", refuse)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_prompt(build_model(CFG), ["a", "b"], OFF, ["x", "y"], rows=rows)

    def test_default_cache_covers_the_highest_row(self):
        states, block = run_prompt(build_model(CFG), ["ab", "cd"], OFF, ["x", "y"], rows=[3, 1])
        assert [s.row for s in states] == [3, 1] and states[0].cache.k[0].shape[0] == 4
        assert [r.sequence_id for r in block] == ["x", "x", "y", "y"]

    @pytest.mark.parametrize("count", [1, 3])
    def test_default_rows_are_the_list_positions(self, count):
        seqs = ["x", "y", "z"][:count]
        states, block = run_prompt(build_model(CFG), ["ab", "cd", "ef"][:count], OFF, seqs)
        assert isinstance(states, list) and [s.sequence_id for s in states] == seqs
        assert [s.row for s in states] == list(range(count)) and states[0].cache.k[0].shape[0] == count
        assert all(s.cache is states[0].cache for s in states)
        assert isinstance(block, TraceColumns) and block.sequence_id.tolist() == [s for s in seqs for _ in "ab"]


def gelu_oracle(x):
    """The out-of-place expression gelu computes in place."""
    x = np.asarray(x, dtype=np.float32)
    c = np.float32(0.7978845608028654)
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


def layer_norm_oracle(h, gain, eps=1e-5):
    """The out-of-place expression layer_norm_pre computes in place, with np.mean."""
    arr = np.ascontiguousarray(h, dtype=np.float32)
    ms = np.mean(np.square(arr, dtype=np.float64), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + float(eps))
    return (arr * inv).astype(np.float32) * np.asarray(gain, dtype=np.float32)


def forward_oracle(block, h, k_buf, v_buf, segments):
    """TransformerBlock.forward with out-of-place softmax (np.where mask),
    writing its keys and values into the given (rows, heads, capacity, hd) buffers."""
    def mm(a, b):
        return np.matmul(np.ascontiguousarray(a, np.float32), np.ascontiguousarray(b, np.float32))

    b, n, d = h.shape
    hd = d // block.head_count

    def split(x):
        return x.reshape(b, n, block.head_count, hd).transpose(0, 2, 1, 3)

    a_in = layer_norm_oracle(h, block.ln1_gain)
    q, k, v = split(mm(a_in, block.wq)), split(mm(a_in, block.wk)), split(mm(a_in, block.wv))
    ctx = np.empty((b, block.head_count, n, hd), dtype=np.float32)
    i = 0
    for row_start, row_stop, pos_start in segments:
        j = i + row_stop - row_start
        k_buf[row_start:row_stop, :, pos_start:pos_start + n] = k[i:j]
        v_buf[row_start:row_stop, :, pos_start:pos_start + n] = v[i:j]
        k_all = k_buf[row_start:row_stop, :, :pos_start + n]
        v_all = v_buf[row_start:row_stop, :, :pos_start + n]
        scores = mm(q[i:j], k_all.transpose(0, 1, 3, 2)) / np.float32(np.sqrt(hd))
        future = np.arange(pos_start + n)[None, :] > (pos_start + np.arange(n))[:, None]
        scores = np.where(future, np.float32(-np.inf), scores)
        scores = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights = weights / weights.sum(axis=-1, keepdims=True)
        ctx[i:j] = mm(weights, v_all)
        i = j
    h = h + mm(ctx.transpose(0, 2, 1, 3).reshape(b, n, d), block.wo)
    return h + mm(gelu_oracle(mm(layer_norm_oracle(h, block.ln2_gain), block.w1)), block.w2)


@st.composite
def segment_layouts(draw):
    """(segments, cache rows, capacity): runs of batch rows mapped to
    disjoint runs of cache rows, each at its own start position."""
    segments, row = [], 0
    for _ in range(draw(st.integers(1, 3))):
        row += draw(st.integers(0, 1))  # cache rows no segment writes
        size = draw(st.integers(1, 2))
        segments.append((row, row + size, draw(st.integers(0, 6))))
        row += size
    return segments, row + draw(st.integers(0, 1))


class TestInPlaceMath:
    @settings(max_examples=60, deadline=None)
    @given(layout=segment_layouts(), n=st.integers(1, 5), heads=st.integers(1, 3), head_dim=st.sampled_from([1, 2, 4, 8]),
           ffn=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    # one query over 2 and 3 keys, with later positions in the buffer: a strided key view's product
    # differs from the copy's there, so attention must copy it
    @example(layout=([(0, 1, 1), (1, 2, 2), (2, 3, 5)], 3), n=1, heads=2, head_dim=4, ffn=4, seed=0)
    def test_block_forward_equals_the_out_of_place_oracle(self, layout, n, heads, head_dim, ffn, seed):
        segments, cache_rows = layout
        rng = np.random.default_rng(seed)
        d = heads * head_dim

        def f32(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        block = TransformerBlock(f32(d) + 1, f32(d, d), f32(d, d), f32(d, d), f32(d, d), f32(d) + 1,
                                 f32(d, ffn), f32(ffn, d), head_count=heads)
        b = sum(stop - start for start, stop, _ in segments)
        h = f32(b, n, d)
        h_before = h.copy()
        capacity = max(pos for _, _, pos in segments) + n
        cache = KVCache(layer_count=2, rows=cache_rows, head_count=heads, capacity=capacity, head_dim=head_dim)
        for buf in cache.k + cache.v:
            buf[...] = f32(*buf.shape)  # earlier positions hold keys and values the queries attend to
        # the oracle keeps its keys as (rows, heads, capacity, hd); the cache stores them transposed
        k_ref, v_ref = cache.k[1].transpose(0, 1, 3, 2).copy(), cache.v[1].copy()

        # forward takes each segment as its (batch slice, cache-row slice, first position) run
        offsets = np.cumsum([0] + [stop - start for start, stop, _ in segments]).tolist()
        runs = [(slice(i, j), slice(start, stop), pos) for (start, stop, pos), i, j in zip(segments, offsets, offsets[1:])]
        out = block.forward(h, cache, 1, runs)
        expect = forward_oracle(block, h, k_ref, v_ref, segments)
        assert out.dtype == expect.dtype and out.shape == expect.shape
        assert out.tobytes() == expect.tobytes()
        assert cache.k[1].transpose(0, 1, 3, 2).tobytes() == k_ref.tobytes()
        assert cache.v[1].tobytes() == v_ref.tobytes()
        assert h.tobytes() == h_before.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=9), scale=st.sampled_from([1e-3, 1.0, 4.0, 40.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_gelu_equals_the_one_line_oracle(self, shape, scale, seed):
        x = (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)
        expect = gelu_oracle(x.copy())
        out = gelu(x)
        assert out is x  # gelu overwrites its float32 argument with the result
        assert out.dtype == np.float32 and out.tobytes() == expect.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=70), scale=st.sampled_from([0.0, 1e-3, 1.0, 1e4]),
           seed=st.integers(0, 2**32 - 1))
    def test_layer_norm_equals_the_mean_oracle(self, shape, scale, seed):
        rng = np.random.default_rng(seed)
        h = (rng.standard_normal(shape) * scale).astype(np.float32)  # scale 0: all-zero vectors, held by eps
        gain = rng.standard_normal(shape[-1:]).astype(np.float32)
        before = h.copy()
        out = layer_norm_pre(h, gain)
        assert out.dtype == np.float32 and out.tobytes() == layer_norm_oracle(h, gain).tobytes()
        assert h.tobytes() == before.tobytes()

    def test_a_prefill_prompts_transient_is_under_1_75_mib(self):
        """Each block half frees its temporaries when it returns, and gelu writes into its
        product: one 240-byte prompt at prefill shape then allocates at most 1.75 MiB beyond
        its preallocated cache. Holding attention's buffers through the FFN took 3.30 MiB."""
        model = build_model(ModelConfig(layer_count=4, depth=128, head_count=4, ffn_dim=512))
        cache = model.new_cache(1, 241)
        prompt = "prompt 00 ".ljust(240, "x")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_prompt(model, [prompt], HaltPolicy(), ["p"], cache=cache)
            transient = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert transient <= 1.75 * 2 ** 20, f"{transient / 2 ** 20:.2f} MiB"


class TestTokenizer:
    def test_round_trip(self):
        text = "héllo wörld"
        assert decode_tokens(encode_text(text)) == text

    def test_positions_interleave_sin_cos(self):
        pe = sinusoidal_positions(np.arange(4), 2)
        assert pe[0, 0] == pytest.approx(0.0)
        assert pe[0, 1] == pytest.approx(1.0)
        assert pe[2, 0] == pytest.approx(math.sin(2.0), abs=1e-6)
