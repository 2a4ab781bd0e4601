import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lacvoid.executor as executor
from lacvoid import (
    HaltPolicy,
    NormGranularity,
    ShapeError,
    SkipMode,
    l2_norm,
    run_stack,
)
from conftest import add_constant_stack, compose_stack, random_affine_stack

EXAMPLE, TOKEN = NormGranularity.EXAMPLE, NormGranularity.TOKEN


def policy(mode, alpha=0.8, granularity=TOKEN, min_layers=1):
    return HaltPolicy(granularity=granularity, alpha=alpha, skip_mode=mode, min_layers=min_layers)


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

        stack = [lambda h: h + 1, bad]
        with pytest.raises(ShapeError, match="layer 2"):
            run_stack(stack, np.ones((1, 3, 2), np.float32), policy(SkipMode.OFF))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            run_stack([], np.ones((1, 1, 1), np.float32), policy(SkipMode.OFF))

    def test_forced_voids_bad_shape(self):
        stack = add_constant_stack([1.0, 1.0])
        with pytest.raises(ShapeError):
            run_stack(stack, np.ones((1, 1, 1), np.float32), policy(SkipMode.DETECT),
                      forced_voids=[True, False, False])

    @pytest.mark.parametrize("g, bad, unit", [
        (NormGranularity.EXAMPLE, (3,), "(2, 2)"),
        (NormGranularity.EXAMPLE, (2, 2, 3), "(2, 2)"),
        (NormGranularity.EXAMPLE, (2, 3), "(2, 2)"),  # token-shaped flags under EXAMPLE
        (NormGranularity.TOKEN, (2, 2), "(2, 2, 3)"),
        (NormGranularity.TOKEN, (3, 2, 3), "(2, 2, 3)"),  # one layer too many
    ])
    def test_forced_voids_bad_shape_message_names_the_unit_shape(self, g, bad, unit):
        message = f"forced_voids shape {bad} does not match (layers,)+unit {unit}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            run_stack(add_constant_stack([1.0, 1.0]), np.ones((2, 3, 1), np.float32),
                      policy(SkipMode.DETECT, granularity=g), forced_voids=np.zeros(bad, bool))

    def test_list_and_tuple_stacks_agree(self):
        stack = random_affine_stack(3, 4, 5)
        h0 = np.random.default_rng(3).normal(size=(2, 3, 5)).astype(np.float32)
        a = run_stack(stack, h0, policy(SkipMode.HALT_FROZEN, alpha=1.0))
        b = run_stack(tuple(stack), h0, policy(SkipMode.HALT_FROZEN, alpha=1.0))
        for field in ("final_hidden", "void_flags", "token_norms", "token_deltas"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


class TestExplicitRemoval:
    def test_all_sixteen_subsets_match_removed_stack(self):
        stack = random_affine_stack(13, 4, 6)
        h0 = np.random.default_rng(14).normal(size=(2, 3, 6)).astype(np.float32)
        for void_set in itertools.product([False, True], repeat=4):
            out = run_stack(stack, h0, policy(SkipMode.SKIP_IDENTITY), forced_voids=list(void_set))
            kept = [l for l, v in zip(stack, void_set) if not v]
            expect = compose_stack(kept, h0)
            assert np.abs(out.final_hidden - expect).max() < 1e-5


class TestGranularities:
    def test_outcome_arrays_are_per_token(self):
        stack = random_affine_stack(1, 3, 4)
        h0 = np.random.default_rng(1).normal(size=(2, 5, 4)).astype(np.float32)
        # forced_voids stays unit-shaped; the outcome repeats each unit's flag over its tokens
        forced = {
            NormGranularity.EXAMPLE: (np.array([[False, False], [True, False], [False, True]]), (3, 2, 1)),
            NormGranularity.TOKEN: (np.random.default_rng(2).random((3, 2, 5)) < 0.5, (3, 2, 5)),
        }
        for g, (unit_flags, unit_view) in forced.items():
            out = run_stack(stack, h0, policy(SkipMode.DETECT, granularity=g), forced_voids=unit_flags)
            assert out.void_flags.shape == out.token_norms.shape == out.token_deltas.shape == (3, 2, 5)
            assert np.array_equal(out.void_flags, np.broadcast_to(unit_flags.reshape(unit_view), (3, 2, 5)))

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
        return [spy(layer) for layer in random_affine_stack(seed, layer_count, depth)]

    @pytest.mark.parametrize("g", [EXAMPLE, TOKEN])
    @pytest.mark.parametrize("mode", list(SkipMode))
    @pytest.mark.parametrize("forced", [False, True])
    def test_token_norms_are_norms_of_accepted_states(self, mode, g, forced):
        seen = []
        stack = self.spy_stack(21, 5, 4, seen)
        h0 = np.random.default_rng(22).normal(size=(2, 3, 4)).astype(np.float32)
        forced_voids = None
        if forced:
            unit = {NormGranularity.EXAMPLE: (2,), NormGranularity.TOKEN: (2, 3)}[g]
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


def spec_run_stack(layers, h0, policy, forced_voids=None):
    """run_stack from the paper's definitions: a plain loop per layer and per
    unit over float32 scalars, with norms from l2_norm and no _void_rule.

    A unit is one example (b,) or one token (b, j). Its progress at layer t
    is the candidate's norm minus the norm of the state it accepted before;
    lambda = alpha * (max - min) over its progress so far, layer t's
    included. Layer t is void when the progress is strictly below lambda
    and t is past both 1 and min_layers, unless forced_voids gives the flag.
    Each mode then acts as the SkipMode docstring says; the halt-frozen
    latch is the live controller's, so forced voids do not latch.
    Returns (final_hidden, void_flags, token_norms, token_deltas).
    """
    mode, g = policy.skip_mode, policy.granularity
    h = np.array(h0, dtype=np.float32)
    batch, length = h.shape[:2]
    units = [(b,) for b in range(batch)] if g is EXAMPLE else list(itertools.product(range(batch), range(length)))
    forced = None if forced_voids is None else np.asarray(forced_voids, dtype=bool)
    progress = {u: [] for u in units}
    latched = set()
    flags = np.zeros((len(layers), batch, length), dtype=bool)
    token_norms = np.zeros((len(layers), batch, length), dtype=np.float32)
    token_deltas = np.zeros((len(layers), batch, length), dtype=np.float32)
    for t, layer in enumerate(layers, start=1):
        candidate = np.asarray(layer(h), dtype=np.float32)
        prior_norms, cand_norms = l2_norm(h, g)[..., 0], l2_norm(candidate, g)[..., 0]
        accepted = candidate.copy()
        for u in units:
            delta = cand_norms[u] - prior_norms[u]
            progress[u].append(delta)
            if forced is not None:
                void = bool(forced[t - 1] if forced.ndim == 1 else forced[t - 1][u])
            elif mode is SkipMode.OFF:
                void = False
            else:
                lam = np.float32(policy.alpha) * (max(progress[u]) - min(progress[u]))
                void = bool(delta < lam) and t >= 2 and t > policy.min_layers
                if mode is SkipMode.HALT_FROZEN:
                    if void:
                        latched.add(u)
                    void = u in latched
            flags[t - 1][u] = void
            if void and mode is SkipMode.MASK_ZERO:
                accepted[u] = 0.0
            elif void and mode in (SkipMode.SKIP_IDENTITY, SkipMode.HALT_FROZEN):
                accepted[u] = h[u]
        token_deltas[t - 1] = l2_norm(candidate, TOKEN)[..., 0] - l2_norm(h, TOKEN)[..., 0]
        h = accepted
        token_norms[t - 1] = l2_norm(h, TOKEN)[..., 0]
    return h, flags, token_norms, token_deltas


def spec_step(kind: str, seed: int, scale: float, depth: int):
    """One step function: a seeded affine map, the identity, zero output or a scaled copy."""
    if kind == "affine":
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, size=(depth, depth)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=depth).astype(np.float32)
        return lambda h: h @ w + b
    if kind == "identity":
        return lambda h: h
    if kind == "zero":
        return np.zeros_like
    return lambda h, c=np.float32(scale): h * c


@st.composite
def stack_cases(draw, mode, g):
    """(steps, h0, policy, forced_voids) for run_stack and spec_run_stack; steps are spec_step arguments."""
    batch, length, depth = (draw(st.integers(1, n)) for n in (3, 4, 4))
    steps = draw(st.lists(st.tuples(st.sampled_from(["affine", "identity", "zero", "scaled"]),
                                    st.integers(0, 2 ** 16), st.sampled_from([-1.0, 0.5, 2.0])),
                          min_size=1, max_size=6))
    pol = HaltPolicy(granularity=g, skip_mode=mode,
                     alpha=draw(st.sampled_from([0.3, 0.5, 0.8, 1.0]) | st.floats(0.01, 1.0)),
                     min_layers=draw(st.just(1) | st.integers(1, len(steps))))
    h0 = np.random.default_rng(draw(st.integers(0, 2 ** 16))).normal(size=(batch, length, depth)).astype(np.float32)
    unit = (batch,) if g is EXAMPLE else (batch, length)
    forced = draw(st.none() | hnp.arrays(bool, (len(steps),)) | hnp.arrays(bool, (len(steps),) + unit))
    return steps, h0, pol, forced


ONE = np.ones((1, 1, 1), np.float32)
DOUBLE, ZERO = ("scaled", 0, 2.0), ("zero", 0, 2.0)


class TestSpecOracle:
    @staticmethod
    def check(steps, h0, pol, forced):
        layers = [spec_step(kind, seed, scale, h0.shape[2]) for kind, seed, scale in steps]
        out = run_stack(layers, h0, pol, forced_voids=forced)
        want = spec_run_stack(layers, h0, pol, forced_voids=forced)
        for field, expect in zip(("final_hidden", "void_flags", "token_norms", "token_deltas"), want):
            got = getattr(out, field)
            assert (got.dtype, got.shape) == (expect.dtype, expect.shape), field
            assert got.tobytes() == expect.tobytes(), field

    @pytest.mark.parametrize("g", [EXAMPLE, TOKEN], ids=lambda g: g.value)
    @pytest.mark.parametrize("mode", list(SkipMode), ids=lambda m: m.value)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_run_stack_equals_the_spec_oracle(self, mode, g, data):
        self.check(*data.draw(stack_cases(mode, g)))

    @pytest.mark.parametrize("steps, pol", [
        # progress +1, -2, +2: layer 2 is void and latches the unit, though layer 3 is above lambda
        ([DOUBLE, ZERO, DOUBLE], HaltPolicy(alpha=0.3, skip_mode=SkipMode.HALT_FROZEN)),
        # layer 2 would be void, but min_layers=2 protects it
        ([DOUBLE, ZERO], HaltPolicy(alpha=0.5, min_layers=2)),
        # progress 0, 0: range 0, so lambda is 0 and the strict comparison flags nothing
        ([("identity", 0, 1.0)] * 2, HaltPolicy(alpha=0.5)),
    ], ids=["latch", "min-layers", "zero-range"])
    def test_hand_cases_equal_the_spec_oracle(self, steps, pol):
        self.check(steps, ONE, pol, None)
