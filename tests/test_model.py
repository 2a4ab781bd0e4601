import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacvoid import (
    ContainerError,
    HaltPolicy,
    ModelConfig,
    NormGranularity,
    SkipMode,
    ToyTransformer,
    build_model,
    decode_tokens,
    encode_text,
    generate,
    load_container,
    load_weights,
    run_prompt,
    run_stack,
    save_container,
    save_weights,
)
from lacvoid.model import KVCache, TransformerBlock, sinusoidal_positions
from lacvoid.trace import record_to_line
from lacvoid.rng import Xoshiro256StarStar

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
        s1, _ = run_prompt(model, prompt, OFF)
        s2, _ = run_prompt(loaded, prompt, OFF)
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
        monkeypatch.setattr(Xoshiro256StarStar, "uniform", refuse)
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
        state, _ = run_prompt(model, [65], OFF)
        assert np.abs(state.last_logits - self.oracle_logits(tensors)).max() < 1e-5


class TestRunPrompt:
    def test_single_token_off(self):
        model = build_model(CFG)
        state, records = run_prompt(model, [65], OFF)
        assert len(records) == 1
        assert records[0].phase == "PP"
        assert records[0].layer_flags == [True] * 4

    def test_five_tokens_per_token_records(self):
        model = build_model(CFG)
        _, records = run_prompt(model, encode_text("abcde"), DETECT)
        assert len(records) == 5
        assert all(len(r.layer_flags) == 4 for r in records)
        assert [r.token_index for r in records] == list(range(5))

    def test_detect_vs_off_identical_logits(self):
        model = build_model(CFG)
        s_off, _ = run_prompt(model, encode_text("hi there"), OFF)
        s_det, _ = run_prompt(model, encode_text("hi there"), DETECT)
        assert s_off.last_logits.tobytes() == s_det.last_logits.tobytes()

    def test_record_delta_consistency(self):
        # recorded per-layer deltas are successive norm differences
        model = build_model(CFG)
        _, records = run_prompt(model, encode_text("xyz"), DETECT)
        for r in records:
            for t in range(1, len(r.layer_norms)):
                assert r.layer_deltas[t] == pytest.approx(r.layer_norms[t] - r.layer_norms[t - 1], abs=1e-5)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            run_prompt(build_model(CFG), [], OFF)

    def test_overlong_prompt_rejected(self):
        cfg = ModelConfig(layer_count=1, depth=8, head_count=1, ffn_dim=8, max_seq=3, seed=0)
        with pytest.raises(ValueError, match="max_seq"):
            run_prompt(build_model(cfg), [1, 2, 3, 4], OFF)

    def test_bad_token_id_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            run_prompt(build_model(CFG), [300], OFF)


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
        state, _ = run_prompt(model, [65], OFF)
        ids, records = generate([state], model, OFF, 0)
        assert ids == [[]] and records == [[]]

    def test_deterministic(self):
        model = build_model(CFG)
        runs = []
        for _ in range(2):
            state, _ = run_prompt(model, encode_text("abc"), OFF)
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
        state, _ = run_prompt(model, [7], OFF)
        ids, records = generate([state], model, OFF, 3)
        assert ids == [[]] and records == [[]]

    def test_phase_partition(self):
        model = build_model(CFG)
        prompt = encode_text("partition")
        state, pp_records = run_prompt(model, prompt, DETECT)
        (ids,), (rg_records,) = generate([state], model, DETECT, 6)
        assert len(pp_records) == len(prompt)
        assert len(rg_records) == len(ids)
        assert all(r.phase == "PP" for r in pp_records)
        assert all(r.phase == "RG" for r in rg_records)
        assert state.position == len(prompt) + len(ids)

    def test_position_overflow(self):
        cfg = ModelConfig(layer_count=1, depth=8, head_count=1, ffn_dim=8, max_seq=3, seed=1)
        model = build_model(cfg)
        state, _ = run_prompt(model, [65, 66, 67], OFF)
        ids, records = generate([state], model, OFF, 2)
        assert ids == [[]] and records == [[]]
        assert isinstance(state.error, ValueError) and "overflow" in str(state.error)

    def test_kv_cache_matches_full_reforward(self):
        model = build_model(CFG)
        prompt = encode_text("kv check")
        continuation = encode_text("abcd")
        state, _ = run_prompt(model, prompt, OFF)
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

    def test_always_void_middle_layer_equals_removed_layer(self):
        model = build_model(CFG)
        reduced = model.without_layer(1)
        skip = HaltPolicy(skip_mode=SkipMode.SKIP_IDENTITY)
        forced = [False, True, False, False]
        prompt = encode_text("remove me")
        s1, _ = run_prompt(model, prompt, skip, forced_voids=forced)
        ids1, _ = generate([s1], model, skip, 6, forced_voids=forced)
        s2, _ = run_prompt(reduced, prompt, OFF)
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
            assert k_all.shape == v_all.shape == (2, 2, pos, 4)
            assert np.shares_memory(k_all, cache.k[1]) and np.shares_memory(v_all, cache.v[1])
            assert np.array_equal(k_all[:, :, -n:], k) and np.array_equal(v_all[:, :, -n:], v)
        assert all(cache.k[i] is buffers[i][0] and cache.v[i] is buffers[i][1] for i in range(2))
        assert not cache.k[1][0].any() and not cache.k[0].any()  # other rows and layers untouched

    def test_write_past_capacity_raises(self):
        cache = KVCache(layer_count=1, rows=1, head_count=1, capacity=3, head_dim=2)
        kv = np.ones((1, 1, 2, 2), dtype=np.float32)
        cache.append(0, slice(0, 1), 0, kv, kv)
        with pytest.raises(ValueError, match="position 3 overflows max_seq 3"):
            cache.append(0, slice(0, 1), 2, kv, kv)

    def test_decoding_keeps_the_buffers(self):
        model = build_model(CFG)
        state, _ = run_prompt(model, encode_text("buffers"), OFF)
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
    """Batch-of-one reference: (state, PP lines, ids, RG lines, error text)."""
    state, pp = run_prompt(model, prompt, policy, forced_voids=forced)
    (ids,), (rg,) = generate([state], model, policy, max_new, forced_voids=forced)
    return state, pp, ids, [record_to_line(r) for r in rg], None if state.error is None else str(state.error)


class TestBatchedGenerate:
    def test_rows_stop_at_different_steps_and_overflow(self):
        model = eot_model(9, 0.3)
        cache = model.new_cache(len(STAGGERED))
        states = [run_prompt(model, p, DETECT, cache=cache, row=i)[0] for i, p in enumerate(STAGGERED)]
        ids, _ = generate(states, model, DETECT, 12)
        assert [len(x) for x in ids] == [5, 9, 4, 6, 4, 4]
        assert [s.error is not None for s in states] == [False] * 4 + [True] * 2
        assert str(states[4].error) == "position 24 overflows max_seq 24"

    @pytest.mark.parametrize("mode", list(SkipMode))
    @pytest.mark.parametrize("granularity", list(NormGranularity))
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
            state, records = run_prompt(model, p, policy, forced_voids=forced, cache=cache, row=row)
            assert [record_to_line(r) for r in records] == [record_to_line(r) for r in pp]
            states.append(state)
        ids, rg = generate(states, model, policy, max_new, forced_voids=forced)

        for i, (ref, pp, ref_ids, ref_rg, err) in enumerate(alone):
            assert ids[i] == ref_ids
            assert [record_to_line(r) for r in rg[i]] == ref_rg
            assert states[i].last_logits.tobytes() == ref.last_logits.tobytes()
            assert states[i].position == ref.position
            assert (None if states[i].error is None else str(states[i].error)) == err

    def test_cache_smaller_than_max_seq_stops_each_row_at_its_capacity(self):
        model = build_model(ModelConfig(layer_count=1, depth=8, head_count=1, ffn_dim=32, max_seq=64, seed=1))
        prompts = [encode_text("abcd"), encode_text("ab")]
        cache = model.new_cache(2, capacity=6)
        states = [run_prompt(model, p, DETECT, cache=cache, row=i)[0] for i, p in enumerate(prompts)]
        ids, rg = generate(states, model, DETECT, 10)
        assert [s.position for s in states] == [6, 6] and [len(x) for x in ids] == [2, 4]
        for i, p in enumerate(prompts):
            alone, _ = run_prompt(model, p, DETECT, cache=model.new_cache(1, capacity=6))
            (ref_ids,), (ref_rg,) = generate([alone], model, DETECT, 10)
            assert ids[i] == ref_ids
            assert [record_to_line(r) for r in rg[i]] == [record_to_line(r) for r in ref_rg]
            assert str(states[i].error) == str(alone.error) == "position 6 overflows max_seq 6"

    def test_states_must_share_a_cache_in_distinct_rows(self):
        model = build_model(CFG)
        a, _ = run_prompt(model, [65], OFF)
        b, _ = run_prompt(model, [66], OFF)
        with pytest.raises(ValueError, match="share one KVCache"):
            generate([a, b], model, OFF, 2)
        c, _ = run_prompt(model, [67], OFF, cache=a.cache)
        with pytest.raises(ValueError, match="distinct cache rows"):
            generate([a, c], model, OFF, 2)


class TestTokenizer:
    def test_round_trip(self):
        text = "héllo wörld"
        assert decode_tokens(encode_text(text)) == text

    def test_positions_interleave_sin_cos(self):
        pe = sinusoidal_positions(np.arange(4), 2)
        assert pe[0, 0] == pytest.approx(0.0)
        assert pe[0, 1] == pytest.approx(1.0)
        assert pe[2, 0] == pytest.approx(math.sin(2.0), abs=1e-6)
