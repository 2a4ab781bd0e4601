import itertools

import numpy as np
import pytest

import lacvoid.executor as executor
from lacvoid import (
    HaltPolicy,
    LayerStack,
    NormGranularity,
    ShapeError,
    SkipMode,
    l2_norm,
    mask_example,
    mask_token,
    run_stack,
)
from conftest import add_constant_stack, compose_stack, random_affine_stack

TOKEN = NormGranularity.TOKEN


def policy(mode, alpha=0.8, granularity=TOKEN, min_layers=1):
    return HaltPolicy(granularity=granularity, alpha=alpha, skip_mode=mode, min_layers=min_layers)


class TestMasking:
    def test_mask_example_direct(self):
        h = np.ones((2, 2, 2), dtype=np.float32)
        out = mask_example(h, 0)
        assert np.array_equal(out[0], np.zeros((2, 2), np.float32))
        assert np.array_equal(out[1], h[1])

    def test_mask_example_idempotent(self):
        h = np.ones((2, 2, 2), dtype=np.float32)
        once = mask_example(h, 1)
        assert mask_example(once, 1).tobytes() == once.tobytes()

    def test_mask_example_matches_loop_oracle(self):
        h = np.random.default_rng(5).normal(size=(3, 4, 2)).astype(np.float32)
        expect = np.zeros_like(h)
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    expect[i, j, k] = 0.0 if i == 1 else h[i, j, k]
        assert np.array_equal(mask_example(h, 1), expect)

    def test_mask_token_direct(self):
        h = np.ones((1, 3, 2), dtype=np.float32)
        out = mask_token(h, 0, 1)
        assert np.array_equal(out[0, 1], np.zeros(2, np.float32))
        assert np.array_equal(out[0, 0], h[0, 0])
        assert np.array_equal(out[0, 2], h[0, 2])

    def test_mask_token_idempotent(self):
        h = np.random.default_rng(5).normal(size=(2, 3, 2)).astype(np.float32)
        once = mask_token(h, 1, 2)
        assert mask_token(once, 1, 2).tobytes() == once.tobytes()

    def test_mask_token_matches_loop_oracle(self):
        h = np.random.default_rng(5).normal(size=(2, 3, 4)).astype(np.float32)
        expect = h.copy()
        for k in range(4):
            expect[0, 2, k] = 0.0
        assert np.array_equal(mask_token(h, 0, 2), expect)

    @pytest.mark.parametrize("call", [
        lambda h: mask_example(h, 2),
        lambda h: mask_example(h, -1),
        lambda h: mask_token(h, 0, 5),
        lambda h: mask_token(h, 0, -1),
    ])
    def test_index_out_of_range(self, call):
        with pytest.raises(IndexError):
            call(np.ones((2, 3, 2), np.float32))


class TestRunStackModes:
    def test_single_layer_never_void(self):
        stack = add_constant_stack([-2.0])
        h0 = np.full((1, 2, 1), 5.0, dtype=np.float32)
        for mode in SkipMode:
            out = run_stack(stack, h0, policy(mode, alpha=1.0))
            assert not out.void_flags.any()
            assert np.array_equal(out.final_hidden, h0 - 2.0)

    def test_skip_identity_scripted_increments(self):
        # increments {+5, +0.01, +0.01, +5} at alpha 0.9: layers 2 and 3
        # void for every token, final state equals layers {1, 4} alone
        stack = add_constant_stack([5.0, 0.01, 0.01, 5.0])
        h0 = np.ones((1, 3, 1), dtype=np.float32)
        out = run_stack(stack, h0, policy(SkipMode.SKIP_IDENTITY, alpha=0.9))
        np.testing.assert_array_equal(out.void_flags[0], False)
        np.testing.assert_array_equal(out.void_flags[1], True)
        np.testing.assert_array_equal(out.void_flags[2], True)
        np.testing.assert_array_equal(out.void_flags[3], False)
        expect = compose_stack(add_constant_stack([5.0, 5.0]), h0)
        np.testing.assert_allclose(out.final_hidden, expect, atol=1e-6)
        assert out.final_hidden[0, 0, 0] == pytest.approx(11.0)

    def test_halt_frozen_scripted_increments(self):
        # delta -1 at layer 2 halts the token; state stays at its
        # post-layer-1 value through layers 3 and 4
        stack = add_constant_stack([5.0, -1.0, 5.0, 5.0])
        h0 = np.ones((1, 1, 1), dtype=np.float32)
        out = run_stack(stack, h0, policy(SkipMode.HALT_FROZEN, alpha=0.5))
        assert list(out.void_flags[:, 0, 0]) == [False, True, True, True]
        assert out.final_hidden[0, 0, 0] == pytest.approx(6.0)

    def test_halt_frozen_permanence_bitwise(self):
        stack = random_affine_stack(2, 5, 3)
        h0 = np.random.default_rng(3).normal(size=(1, 4, 3)).astype(np.float32)
        out = run_stack(stack, h0, policy(SkipMode.HALT_FROZEN, alpha=1.0))
        # after the first void, a token's flags stay void to the end
        for j in range(4):
            flags = out.void_flags[:, 0, j]
            if flags.any():
                first = int(np.argmax(flags))
                assert flags[first:].all()

    def test_mask_zero_forced_void_zeroes_unit(self):
        stack = add_constant_stack([1.0, 1.0, 2.0])
        h0 = np.ones((1, 2, 1), dtype=np.float32)
        out = run_stack(stack, h0, policy(SkipMode.MASK_ZERO), forced_voids=[False, True, False])
        # layer 2's output is zeroed, layer 3 adds 2 to the zeroed state
        assert np.array_equal(out.final_hidden, np.full((1, 2, 1), 2.0, np.float32))
        assert np.array_equal(out.token_norms[1], np.zeros((1, 2), np.float32))

    def test_detect_matches_off_bitwise(self):
        stack = random_affine_stack(7, 4, 5)
        h0 = np.random.default_rng(8).normal(size=(2, 3, 5)).astype(np.float32)
        off = run_stack(stack, h0, policy(SkipMode.OFF))
        det = run_stack(stack, h0, policy(SkipMode.DETECT))
        assert off.final_hidden.tobytes() == det.final_hidden.tobytes()
        assert not off.void_flags.any()

    def test_off_trace_feeds_offline_detection(self):
        from lacvoid import offline_void_mask

        stack = random_affine_stack(4, 5, 4)
        h0 = np.random.default_rng(4).normal(size=(1, 3, 4)).astype(np.float32)
        off = run_stack(stack, h0, policy(SkipMode.OFF, alpha=0.6))
        det = run_stack(stack, h0, policy(SkipMode.DETECT, alpha=0.6))
        for j in range(3):
            offline = offline_void_mask(off.token_deltas[:, 0, j], 0.6)
            assert list(offline) == list(det.void_flags[:, 0, j])

    def test_shape_drift_names_layer(self):
        def bad(h):
            return h[:, :1, :]

        stack = LayerStack([lambda h: h + 1, bad])
        with pytest.raises(ShapeError, match="layer 2"):
            run_stack(stack, np.ones((1, 3, 2), np.float32), policy(SkipMode.OFF))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            run_stack(LayerStack([]), np.ones((1, 1, 1), np.float32), policy(SkipMode.OFF))

    def test_forced_voids_bad_shape(self):
        stack = add_constant_stack([1.0, 1.0])
        with pytest.raises(ShapeError):
            run_stack(stack, np.ones((1, 1, 1), np.float32), policy(SkipMode.DETECT),
                      forced_voids=[True, False, False])


class TestExplicitRemoval:
    def test_all_sixteen_subsets_match_removed_stack(self):
        stack = random_affine_stack(13, 4, 6)
        h0 = np.random.default_rng(14).normal(size=(2, 3, 6)).astype(np.float32)
        for void_set in itertools.product([False, True], repeat=4):
            out = run_stack(stack, h0, policy(SkipMode.SKIP_IDENTITY), forced_voids=list(void_set))
            kept = LayerStack([l for l, v in zip(stack.layers, void_set) if not v])
            expect = compose_stack(kept, h0)
            assert np.abs(out.final_hidden - expect).max() < 1e-5


class TestGranularities:
    def test_unit_shapes(self):
        stack = random_affine_stack(1, 3, 4)
        h0 = np.random.default_rng(1).normal(size=(2, 5, 4)).astype(np.float32)
        shapes = {
            NormGranularity.BATCH: (3,),
            NormGranularity.EXAMPLE: (3, 2),
            NormGranularity.TOKEN: (3, 2, 5),
        }
        for g, shape in shapes.items():
            out = run_stack(stack, h0, policy(SkipMode.DETECT, granularity=g))
            assert out.void_flags.shape == shape
            assert out.token_norms.shape == (3, 2, 5)
            assert out.token_deltas.shape == (3, 2, 5)

    def test_mask_zero_per_example(self):
        stack = add_constant_stack([1.0, 1.0])
        h0 = np.stack([np.full((2, 1), 1.0), np.full((2, 1), 3.0)]).astype(np.float32)
        # forced_voids[t, i]: void example 0 at the second layer only
        out = run_stack(stack, h0, policy(SkipMode.MASK_ZERO, granularity=NormGranularity.EXAMPLE),
                        forced_voids=np.array([[False, False], [True, False]]))
        assert np.array_equal(out.final_hidden[0], np.zeros((2, 1), np.float32))
        assert np.array_equal(out.final_hidden[1], np.full((2, 1), 5.0, np.float32))


class TestSingleMeasurement:
    @staticmethod
    def spy_stack(seed, layer_count, depth, seen):
        # record the state each layer receives, i.e. the state accepted after the previous layer
        def spy(layer):
            def step(h):
                seen.append(np.array(h, copy=True))
                return layer(h)
            return step
        return LayerStack([spy(layer) for layer in random_affine_stack(seed, layer_count, depth).layers])

    @pytest.mark.parametrize("g", list(NormGranularity))
    @pytest.mark.parametrize("mode", list(SkipMode))
    @pytest.mark.parametrize("forced", [False, True])
    def test_token_norms_are_norms_of_accepted_states(self, mode, g, forced):
        seen = []
        stack = self.spy_stack(21, 5, 4, seen)
        h0 = np.random.default_rng(22).normal(size=(2, 3, 4)).astype(np.float32)
        forced_voids = None
        if forced:
            unit = {NormGranularity.BATCH: (), NormGranularity.EXAMPLE: (2,), NormGranularity.TOKEN: (2, 3)}[g]
            forced_voids = np.random.default_rng(23).random((5,) + unit) < 0.5
            forced_voids[2] = True  # at least one void layer whatever the draw
        out = run_stack(stack, h0, policy(mode, alpha=1.0, granularity=g), forced_voids=forced_voids)
        if mode in (SkipMode.MASK_ZERO, SkipMode.SKIP_IDENTITY, SkipMode.HALT_FROZEN):
            assert out.void_flags.any()
        accepted = seen[1:] + [out.final_hidden]
        for t, state in enumerate(accepted):
            assert out.token_norms[t].tobytes() == l2_norm(state, TOKEN)[..., 0].tobytes()

    @pytest.mark.parametrize("mode", list(SkipMode))
    def test_token_granularity_measures_each_state_once(self, mode, monkeypatch):
        calls = []

        def counting(h, granularity):
            calls.append(granularity)
            return l2_norm(h, granularity)

        monkeypatch.setattr(executor, "l2_norm", counting)
        stack = random_affine_stack(31, 6, 4)
        h0 = np.random.default_rng(32).normal(size=(1, 4, 4)).astype(np.float32)
        out = run_stack(stack, h0, policy(mode, alpha=1.0))
        if mode in (SkipMode.MASK_ZERO, SkipMode.SKIP_IDENTITY, SkipMode.HALT_FROZEN):
            assert out.void_flags.any()
        assert calls == [TOKEN] * 7
