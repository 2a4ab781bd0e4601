import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lacvoid import (
    HaltPolicy,
    NormGranularity,
    ProgressHistory,
    ShapeError,
    SkipMode,
    ThresholdFormula,
    decide,
    detect_voids_offline,
    l2_norm,
    offline_void_mask,
    progress,
    run_stack,
    threshold,
)
from conftest import random_affine_stack

ORIG, MOD = ThresholdFormula.ORIGINAL, ThresholdFormula.MODIFIED


def history_of(*deltas) -> ProgressHistory:
    h = ProgressHistory()
    for d in deltas:
        h.append(np.asarray(d, dtype=np.float32))
    return h


class TestProgress:
    def test_hand_arithmetic(self):
        assert np.array_equal(progress([3.0], [5.0]), np.array([2.0], dtype=np.float32))

    def test_equal_norms(self):
        assert np.array_equal(progress([4.0], [4.0]), np.array([0.0], dtype=np.float32))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            progress(np.zeros(2, np.float32), np.zeros(3, np.float32))

    def test_seeded_stack_matches_subtraction_oracle(self):
        stack = random_affine_stack(11, 4, 3)
        h = np.random.default_rng(11).normal(size=(1, 2, 3)).astype(np.float32)
        norms = [l2_norm(h, NormGranularity.TOKEN)]
        for layer in stack.layers:
            h = layer(h)
            norms.append(l2_norm(h, NormGranularity.TOKEN))
        for prev, curr in zip(norms, norms[1:]):
            got = progress(prev, curr)
            expect = np.array([[ [float(c) - float(p)] for p, c in zip(prev[0, :, 0], curr[0, :, 0])]], np.float32)
            np.testing.assert_allclose(got, expect, atol=1e-7)


class TestProgressHistory:
    def test_running_extrema_track_all_deltas(self):
        rng = np.random.default_rng(21)
        h = ProgressHistory()
        appended = [rng.uniform(-4, 4, size=(2, 3)).astype(np.float32) for _ in range(7)]
        for d in appended:
            h.append(d)
        stacked = np.stack(appended)
        assert np.array_equal(h.running_max, stacked.max(axis=0))
        assert np.array_equal(h.running_min, stacked.min(axis=0))
        assert h.step_count == 7

    def test_shape_mismatch_rejected(self):
        h = history_of([1.0, 2.0])
        with pytest.raises(ShapeError):
            h.append(np.zeros(3, np.float32))


class TestThreshold:
    def test_half_range(self):
        assert threshold(history_of(1.0, 3.0, 2.0), 0.5, MOD) == pytest.approx(1.0)

    def test_single_entry_is_zero(self):
        for alpha in (0.1, 0.5, 1.0):
            assert float(threshold(history_of(2.0), alpha, MOD)) == 0.0
            assert float(threshold(history_of(2.0), alpha, ORIG)) == 0.0

    def test_both_formulas_agree_on_mixed_signs(self):
        h = history_of(-2.0, 4.0)
        # max - min >= 0 always, so the absolute value never changes anything
        assert float(threshold(h, 0.8, ORIG)) == pytest.approx(4.8)
        assert float(threshold(h, 0.8, MOD)) == pytest.approx(4.8)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            threshold(ProgressHistory(), 0.5, MOD)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.01])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            threshold(history_of(1.0), alpha, MOD)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_formula_equivalence_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        h = history_of(*rng.uniform(-10, 10, size=rng.integers(1, 9)).astype(np.float32))
        alpha = float(rng.uniform(0.01, 1.0))
        a = threshold(h, alpha, ORIG)
        b = threshold(h, alpha, MOD)
        assert a.tobytes() == b.tobytes()

    def test_non_negative(self):
        for deltas in ([1.0], [-5.0, -2.0], [3.0, -3.0, 0.0]):
            assert float(threshold(history_of(*deltas), 1.0, MOD)) >= 0.0
            assert float(threshold(history_of(*deltas), 1.0, ORIG)) >= 0.0


class TestDecide:
    def test_below_threshold_is_void(self):
        # range 1.0 at alpha 1.0 gives lambda exactly 1.0; 0.5 < 1.0
        h = history_of(1.5, 0.5)
        d = decide(h, np.float32(0.5), HaltPolicy(alpha=1.0))
        assert float(d.threshold_value) == 1.0
        assert bool(d.void)

    def test_floor_protects_early_layers(self):
        h = history_of(-1.0)
        d = decide(h, np.float32(-1.0), HaltPolicy(alpha=1.0, min_layers=2))
        assert not bool(d.void)

    def test_first_layer_always_kept(self):
        # with one observation lambda is 0; a negative first delta must not void layer 1
        h = history_of(-1.0)
        d = decide(h, np.float32(-1.0), HaltPolicy(alpha=1.0, min_layers=1))
        assert not bool(d.void)

    def test_strict_inequality_at_zero(self):
        # delta == lambda == 0 does not halt ("falls below" is strict)
        h = history_of(0.0, 0.0, 0.0)
        d = decide(h, np.float32(0.0), HaltPolicy(alpha=1.0))
        assert not bool(d.void)

    def test_matches_offline_recomputation(self):
        rng = np.random.default_rng(6)
        deltas = rng.uniform(-3, 5, size=6).astype(np.float32)
        policy = HaltPolicy(alpha=0.7, min_layers=1)
        h = ProgressHistory()
        live = []
        for d in deltas:
            h.append(np.asarray(d))
            live.append(bool(decide(h, np.asarray(d, np.float32), policy).void))
        offline = offline_void_mask(deltas, 0.7, MOD, 1)
        assert live == list(offline)

    def test_halt_frozen_latch(self):
        policy = HaltPolicy(alpha=1.0, skip_mode=SkipMode.HALT_FROZEN)
        h = ProgressHistory()
        voids = []
        for d in [5.0, -1.0, 5.0, 5.0]:
            h.append(np.asarray(d, np.float32))
            voids.append(bool(decide(h, np.asarray(d, np.float32), policy).void))
        # layer 2 halts; the latch keeps layers 3 and 4 void despite large progress
        assert voids == [False, True, True, True]

    def test_determinism_byte_for_byte(self):
        rng = np.random.default_rng(9)
        deltas = rng.uniform(-2, 2, size=(5, 3)).astype(np.float32)
        outs = []
        for _ in range(2):
            h = ProgressHistory()
            blobs = b""
            for d in deltas:
                h.append(d)
                dec = decide(h, d, HaltPolicy(alpha=0.4))
                blobs += dec.void.tobytes() + dec.threshold_value.tobytes()
            outs.append(blobs)
        assert outs[0] == outs[1]


class TestOfflineVoids:
    def test_constant_sequence_has_no_voids(self):
        assert detect_voids_offline([1.0, 1.0, 1.0, 1.0], alpha=1.0) == set()

    def test_hand_stepped_example(self):
        # stepwise: t=2 lambda=6, -1 < 6; t=3 lambda=6, 4 < 6; t=4 lambda=6, 0.1 < 6
        assert detect_voids_offline([5.0, -1.0, 4.0, 0.1], alpha=1.0, min_layers=1) == {2, 3, 4}

    def test_hand_stepped_example_brute_force(self):
        deltas = np.array([5.0, -1.0, 4.0, 0.1], dtype=np.float32)
        voids = set()
        for t in range(1, 5):
            window = deltas[:t]
            lam = 1.0 * (window.max() - window.min())
            if t >= 2 and float(deltas[t - 1]) < lam:
                voids.add(t)
        assert detect_voids_offline(deltas, alpha=1.0) == voids

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            detect_voids_offline([], alpha=0.5)

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            detect_voids_offline(np.zeros((2, 3), np.float32), alpha=0.5)

    @given(
        deltas=st.lists(st.floats(-50, 50, allow_nan=False, width=32), min_size=1, max_size=12),
        a1=st.floats(0.01, 1.0),
        a2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_alpha_monotone_inclusion(self, deltas, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        assert detect_voids_offline(deltas, lo) <= detect_voids_offline(deltas, hi)

    @given(
        deltas=st.lists(st.floats(-20, 20, allow_nan=False, width=32), min_size=2, max_size=10),
        alpha=st.floats(0.01, 1.0),
        min_layers=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_negative_progress_capture(self, deltas, alpha, min_layers):
        arr = np.asarray(deltas, dtype=np.float32)
        mask = offline_void_mask(arr, alpha, MOD, min_layers)
        for t in range(1, len(arr) + 1):
            window = arr[:t]
            lam = np.float32(alpha) * (window.max() - window.min())
            if arr[t - 1] < 0 and lam > 0 and t >= min_layers:
                assert mask[t - 1]


class TestOneRule:
    """offline_void_mask over an (N, T) matrix is the live rule, row by row."""

    @given(
        deltas=hnp.arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                          elements=st.floats(-2.0**100, 2.0**100, width=32)),
        alpha=st.floats(0.01, 1.0),
        formula=st.sampled_from(list(ThresholdFormula)),
        min_layers=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matrix_matches_window_oracle_and_live_decide(self, deltas, alpha, formula, min_layers):
        mask = offline_void_mask(deltas, alpha, formula, min_layers)
        n, t_total = deltas.shape
        assert mask.shape == (n, t_total) and mask.dtype == bool

        for i in range(n):
            assert np.array_equal(offline_void_mask(deltas[i], alpha, formula, min_layers), mask[i])
            for t in range(1, t_total + 1):
                window = deltas[i, :t]
                spread = window.max() - window.min()
                lam = np.float32(alpha) * (np.abs(spread) if formula is ORIG else spread)
                expect = t >= 2 and t >= min_layers and bool(window[-1] < lam)
                assert bool(mask[i, t - 1]) == expect

        policy = HaltPolicy(alpha=alpha, formula=formula, min_layers=min_layers)
        history = ProgressHistory()
        for t in range(t_total):
            column = deltas[:, t]
            history.append(column)
            assert np.array_equal(decide(history, column, policy).void, mask[:, t])

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

    def test_min_layers_checked_against_stack(self):
        stack = random_affine_stack(0, 2, 3)
        h0 = np.ones((1, 1, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            run_stack(stack, h0, HaltPolicy(min_layers=5))
