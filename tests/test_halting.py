import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lacvoid import (
    HaltPolicy,
    NonFiniteError,
    NormGranularity,
    SkipMode,
    l2_norm,
    offline_void_mask,
    run_stack,
)
from conftest import add_constant_stack, random_affine_stack


class TestProgress:
    def test_hand_arithmetic(self):
        # norm 3 -> 5 is progress 2
        out = run_stack(add_constant_stack([2.0]), np.full((1, 1, 1), 3.0, np.float32), HaltPolicy())
        assert np.array_equal(out.token_deltas, np.full((1, 1, 1), 2.0, np.float32))

    def test_equal_norms(self):
        # negation keeps every square, so the progress is exactly 0
        h0 = np.random.default_rng(4).normal(size=(2, 3, 5)).astype(np.float32)
        for g in (NormGranularity.EXAMPLE, NormGranularity.TOKEN):
            out = run_stack([lambda h: -h], h0, HaltPolicy(granularity=g))
            assert np.array_equal(out.token_deltas, np.zeros((1, 2, 3), np.float32))

    def test_seeded_stack_matches_subtraction_oracle(self):
        stack = random_affine_stack(11, 4, 3)
        h = np.random.default_rng(11).normal(size=(1, 2, 3)).astype(np.float32)
        out = run_stack(stack, h, HaltPolicy(skip_mode=SkipMode.OFF))
        norms = [l2_norm(h, NormGranularity.TOKEN)]
        for layer in stack:
            h = layer(h)
            norms.append(l2_norm(h, NormGranularity.TOKEN))
        for t, (prev, curr) in enumerate(zip(norms, norms[1:])):
            expect = np.array([[float(c) - float(p) for p, c in zip(prev[0, :, 0], curr[0, :, 0])]], np.float32)
            np.testing.assert_allclose(out.token_deltas[t], expect, atol=1e-7)


class TestVoidRule:
    """Hand cases of lambda = alpha * (max - min) over the progress so far."""

    def test_below_threshold_is_void(self):
        # range 1.0 at alpha 1.0 gives lambda exactly 1.0 at layer 2; 0.5 < 1.0
        assert offline_void_mask([1.5, 0.5], alpha=1.0).tolist() == [False, True]

    def test_half_range_over_mixed_signs(self):
        # range 4 - (-2) = 6 at alpha 0.5 gives lambda 3.0 from layer 2 on
        assert not offline_void_mask([-2.0, 4.0, 3.0], alpha=0.5).any()
        assert offline_void_mask([-2.0, 4.0, 2.99], alpha=0.5).tolist() == [False, False, True]

    def test_floor_protects_early_layers(self):
        # --min-layers N keeps layers 1..N
        assert offline_void_mask([1.0, -1.0, -1.0], alpha=1.0, min_layers=1).tolist() == [False, True, True]
        assert offline_void_mask([1.0, -1.0, -1.0], alpha=1.0, min_layers=2).tolist() == [False, False, True]
        assert not offline_void_mask([1.0, -1.0, -1.0], alpha=1.0, min_layers=3).any()

    @pytest.mark.parametrize("min_layers", [0, -3])
    def test_floor_below_one_refused(self, min_layers):
        # the usage floor is HaltPolicy's: layer 1 is kept by min_layers >= 1, not by a second rule
        with pytest.raises(ValueError, match=f"min_layers must be >= 1, got {min_layers}"):
            offline_void_mask([1.0, -1.0], alpha=1.0, min_layers=min_layers)

    @pytest.mark.parametrize("deltas", [[1.0, -1.0, -1.0, -1.0], [[1.0, -1.0, -1.0, -1.0]] * 3], ids=["T", "NxT"])
    def test_floor_above_the_layer_count_refused(self, deltas):
        # run_stack's refusal, with its message; a floor equal to the layer count keeps every layer
        assert not offline_void_mask(deltas, alpha=1.0, min_layers=4).any()
        with pytest.raises(ValueError, match=r"^min_layers=9 exceeds layer count 4$"):
            offline_void_mask(deltas, alpha=1.0, min_layers=9)
        stack = add_constant_stack([1.0, -1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match=r"^min_layers=9 exceeds layer count 4$"):
            run_stack(stack, np.ones((1, 1, 1), np.float32), HaltPolicy(min_layers=9))

    def test_mask_is_boolean(self):
        mask = offline_void_mask([5.0, -1.0, 4.0, 0.1], alpha=0.5)
        assert mask.dtype == bool
        assert mask.tolist() == [False, True, False, True]

    def test_first_layer_always_kept(self):
        # with one observation lambda is 0; a negative first delta must not void layer 1
        assert offline_void_mask([-1.0], alpha=1.0).tolist() == [False]
        assert offline_void_mask([-1.0, -2.0], alpha=1.0).tolist() == [False, True]

    def test_strict_inequality_at_zero(self):
        # delta == lambda == 0 does not halt ("falls below" is strict)
        assert not offline_void_mask([0.0, 0.0, 0.0], alpha=1.0).any()

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_single_value_gives_zero_lambda(self, alpha):
        # one observed value has range 0, so lambda is 0: only negative progress falls below it
        for d, void in [(-1.0, True), (-1e-30, True), (0.0, False), (1e-30, False), (1.0, False)]:
            assert list(offline_void_mask([d, d], alpha)) == [False, void]

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.01])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            offline_void_mask([1.0, 2.0], alpha)


class TestLiveRule:
    """run_stack's own running extrema and halt-frozen latch, by hand."""

    def test_running_extrema_track_all_deltas(self):
        # progress -4, 1, 2, 1.9 at alpha 0.35: layer 3 is void only if the
        # range includes its own delta (6 * 0.35 = 2.1 > 2, but 5 * 0.35 < 2),
        # layer 4 only if the range still holds layer 1's -4
        stack = add_constant_stack([-4.0, 1.0, 2.0, 1.9])
        out = run_stack(stack, np.full((1, 1, 1), 10.0, np.float32), HaltPolicy(alpha=0.35))
        assert list(out.void_flags[:, 0, 0]) == [False, True, True, True]

    def test_halt_frozen_latch(self):
        # token 0 steps +5, -1, +5, +5 and halts at layer 2; token 1 steps
        # +5, +4, +5, +5 and never falls below lambda; the latch is per unit
        steps = np.array([[5.0, 5.0], [-1.0, 4.0], [5.0, 5.0], [5.0, 5.0]], np.float32)
        stack = [lambda h, c=c: h + c.reshape(1, 2, 1) for c in steps]
        h0 = np.ones((1, 2, 1), np.float32)
        detect = run_stack(stack, h0, HaltPolicy(alpha=0.5, skip_mode=SkipMode.DETECT))
        frozen = run_stack(stack, h0, HaltPolicy(alpha=0.5, skip_mode=SkipMode.HALT_FROZEN))
        assert list(detect.void_flags[:, 0, 0]) == [False, True, False, False]
        assert list(frozen.void_flags[:, 0, 0]) == [False, True, True, True]
        assert not detect.void_flags[:, 0, 1].any() and not frozen.void_flags[:, 0, 1].any()
        assert frozen.final_hidden[0, :, 0].tolist() == [6.0, 20.0]

    @pytest.mark.parametrize("granularity", [NormGranularity.EXAMPLE, NormGranularity.TOKEN], ids=lambda g: g.value)
    def test_matches_offline_recomputation(self, granularity):
        # unit progress recomputed from the plain forward pass, replayed offline
        stack = random_affine_stack(6, 6, 3)
        h0 = np.random.default_rng(6).normal(size=(3, 4, 3)).astype(np.float32)
        out = run_stack(stack, h0, HaltPolicy(granularity=granularity, alpha=0.7))
        h, norms = h0, [l2_norm(h0, granularity)]
        for layer in stack:
            h = layer(h)
            norms.append(l2_norm(h, granularity))
        unit_deltas = np.stack([c - p for p, c in zip(norms, norms[1:])]).reshape(len(stack), -1)
        grid = {NormGranularity.EXAMPLE: (3, 1), NormGranularity.TOKEN: (3, 4)}
        expect = offline_void_mask(unit_deltas.T, 0.7).T.reshape((len(stack),) + grid[granularity])
        assert np.array_equal(out.void_flags, np.broadcast_to(expect, out.void_flags.shape))

    @pytest.mark.parametrize("mode", list(SkipMode), ids=lambda m: m.value)
    def test_determinism_byte_for_byte(self, mode):
        stack = random_affine_stack(9, 5, 3)
        h0 = np.random.default_rng(9).uniform(-2, 2, size=(2, 3, 3)).astype(np.float32)
        blobs = []
        for _ in range(2):
            out = run_stack(stack, h0, HaltPolicy(alpha=0.4, skip_mode=mode))
            blobs.append(b"".join(a.tobytes() for a in
                                  (out.void_flags, out.token_deltas, out.token_norms, out.final_hidden)))
        assert blobs[0] == blobs[1]


class TestOfflineVoids:
    def test_constant_sequence_has_no_voids(self):
        assert not offline_void_mask([1.0, 1.0, 1.0, 1.0], alpha=1.0).any()

    def test_hand_stepped_example(self):
        # stepwise: t=2 lambda=6, -1 < 6; t=3 lambda=6, 4 < 6; t=4 lambda=6, 0.1 < 6
        assert offline_void_mask([5.0, -1.0, 4.0, 0.1], alpha=1.0, min_layers=1).tolist() == [False, True, True, True]

    def test_hand_stepped_example_brute_force(self):
        deltas = np.array([5.0, -1.0, 4.0, 0.1], dtype=np.float32)
        voids = []
        for t in range(1, 5):
            window = deltas[:t]
            lam = 1.0 * (window.max() - window.min())
            voids.append(t >= 2 and float(deltas[t - 1]) < lam)
        assert offline_void_mask(deltas, alpha=1.0).tolist() == voids

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            offline_void_mask([], alpha=0.5)

    @pytest.mark.parametrize("deltas", [[0.1, np.inf, 0.2], [0.1, np.nan, 0.2], [[0.1, -np.inf, 0.2]],
                                        [[0.1, 0.2, 0.3], [0.4, np.nan, 0.5]], [0.1, 1e300, 0.2], [[0.1, -1e39]]])
    def test_non_finite_deltas_raise(self, deltas):
        # each used to give a mask: inf voided layer 3, nan voided nothing, -inf voided layers 2-3;
        # a float64 beyond float32's range raised numpy's overflow warning as it became inf
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            offline_void_mask(deltas, alpha=0.5)

    @given(
        deltas=st.lists(st.floats(-50, 50, allow_nan=False, width=32), min_size=1, max_size=12),
        a1=st.floats(0.01, 1.0),
        a2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_alpha_monotone_inclusion(self, deltas, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        assert not (offline_void_mask(deltas, lo) & ~offline_void_mask(deltas, hi)).any()

    @given(
        deltas=st.lists(st.floats(-20, 20, allow_nan=False, width=32), min_size=2, max_size=10),
        alpha=st.floats(0.01, 1.0),
        min_layers=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_negative_progress_capture(self, deltas, alpha, min_layers):
        # lambda = alpha * (max - min) is never negative, so every eligible negative delta is void
        arr = np.asarray(deltas, dtype=np.float32)
        if min_layers > len(arr):
            with pytest.raises(ValueError, match=f"min_layers={min_layers} exceeds layer count {len(arr)}"):
                offline_void_mask(arr, alpha, min_layers)
            return
        mask = offline_void_mask(arr, alpha, min_layers)
        for t in range(2, len(arr) + 1):
            if arr[t - 1] < 0 and t > min_layers:
                assert mask[t - 1]


class TestOneRule:
    """offline_void_mask is the window oracle row by row, and run_stack's live
    flags are offline_void_mask of its own recorded deltas."""

    @given(
        deltas=hnp.arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                          elements=st.floats(-2.0**100, 2.0**100, width=32)),
        alpha=st.floats(0.01, 1.0),
        min_layers=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matrix_matches_window_oracle(self, deltas, alpha, min_layers):
        n, t_total = deltas.shape
        if min_layers > t_total:
            with pytest.raises(ValueError, match=f"min_layers={min_layers} exceeds layer count {t_total}"):
                offline_void_mask(deltas, alpha, min_layers)
            return
        mask = offline_void_mask(deltas, alpha, min_layers)
        assert mask.shape == (n, t_total) and mask.dtype == bool

        for i in range(n):
            assert np.array_equal(offline_void_mask(deltas[i], alpha, min_layers), mask[i])
            for t in range(1, t_total + 1):
                window = deltas[i, :t]
                lam = np.float32(alpha) * (window.max() - window.min())
                expect = t >= 2 and t > min_layers and bool(window[-1] < lam)
                assert bool(mask[i, t - 1]) == expect

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
        alpha=st.floats(0.01, 1.0),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_stack_token_flags_replay_offline(self, seed, shape, alpha, data):
        layers, b, length, depth = shape
        min_layers = data.draw(st.integers(1, layers))
        stack = random_affine_stack(seed, layers, depth)
        h0 = np.random.default_rng(seed).normal(size=(b, length, depth)).astype(np.float32)
        for mode in (SkipMode.DETECT, SkipMode.HALT_FROZEN):
            out = run_stack(stack, h0, HaltPolicy(alpha=alpha, skip_mode=mode, min_layers=min_layers))
            for i in range(b):
                for j in range(length):
                    expect = offline_void_mask(out.token_deltas[:, i, j], alpha, min_layers)
                    if mode is SkipMode.HALT_FROZEN:
                        expect = np.logical_or.accumulate(expect)
                    assert np.array_equal(out.void_flags[:, i, j], expect)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 2, 2)])
    def test_rejects_shapes_without_a_layer_axis(self, shape):
        with pytest.raises(ValueError):
            offline_void_mask(np.zeros(shape, np.float32), 0.5)


class TestHaltPolicy:
    @pytest.mark.parametrize("alpha", [0.0, 1.5, -1.0])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError):
            HaltPolicy(alpha=alpha)

    def test_min_layers_bound(self):
        with pytest.raises(ValueError):
            HaltPolicy(min_layers=0)

    @pytest.mark.parametrize("build", [
        lambda: HaltPolicy(granularity="token"),
        lambda: dataclasses.replace(HaltPolicy(), granularity="token"),
    ], ids=["constructor", "replace"])
    def test_non_member_granularity_refused(self, build):
        # the unit is a NormGranularity member; its str value is not one
        message = "halting granularity must be EXAMPLE or TOKEN, got token"
        with pytest.raises(ValueError, match=message):
            build()

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(HaltPolicy)] == ["granularity", "alpha", "skip_mode", "min_layers"]
        with pytest.raises(TypeError):
            HaltPolicy(formula="original")

    def test_min_layers_checked_against_stack(self):
        stack = random_affine_stack(0, 2, 3)
        h0 = np.ones((1, 1, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            run_stack(stack, h0, HaltPolicy(min_layers=5))
