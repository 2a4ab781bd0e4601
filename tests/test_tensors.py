import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lacvoid import NonFiniteError, NormGranularity, ShapeError, l2_norm, layer_norm_pre
from lacvoid.tensors import _rounds_finite_f32

E, T = NormGranularity.EXAMPLE, NormGranularity.TOKEN


def loop_norm(h: np.ndarray, granularity: NormGranularity) -> np.ndarray:
    """Element-wise loop oracle, float64 accumulation."""
    b, l, d = h.shape
    if granularity is E:
        out = np.zeros((b, 1), dtype=np.float32)
        for i in range(b):
            s = 0.0
            for j in range(l):
                for k in range(d):
                    s += float(h[i, j, k]) ** 2
            out[i, 0] = math.sqrt(s)
        return out
    out = np.zeros((b, l, 1), dtype=np.float32)
    for i in range(b):
        for j in range(l):
            s = 0.0
            for k in range(d):
                s += float(h[i, j, k]) ** 2
            out[i, j, 0] = math.sqrt(s)
    return out


class TestL2Norm:
    def test_per_token_ones(self):
        h = np.ones((1, 1, 4), dtype=np.float32)
        assert np.array_equal(l2_norm(h, T), np.array([[[2.0]]], dtype=np.float32))

    @pytest.mark.parametrize("granularity,shape", [(E, (2, 1)), (T, (2, 5, 1))])
    def test_output_shapes(self, rng42, granularity, shape):
        h = rng42.normal(size=(2, 5, 3)).astype(np.float32)
        got = l2_norm(h, granularity)
        assert got.shape == shape
        np.testing.assert_allclose(got, loop_norm(h, granularity), rtol=1e-6)

    def test_rank_error(self):
        with pytest.raises(ShapeError):
            l2_norm(np.zeros((2, 3), dtype=np.float32), T)

    @pytest.mark.parametrize("granularity", ["token", None])
    def test_non_member_granularity_error(self, granularity):
        with pytest.raises(TypeError, match=f"^unknown granularity: {granularity!r}$"):
            l2_norm(np.ones((1, 2, 2), dtype=np.float32), granularity)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_error(self, bad):
        h = np.ones((1, 2, 2), dtype=np.float32)
        h[0, 1, 0] = bad
        with pytest.raises(NonFiniteError):
            l2_norm(h, T)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_granularity_consistency(self, seed):
        rng = np.random.default_rng(seed)
        b, l, d = rng.integers(1, 5), rng.integers(1, 7), rng.integers(1, 9)
        h = rng.uniform(-3, 3, size=(b, l, d)).astype(np.float32)
        ex = l2_norm(h, E).astype(np.float64)
        tok = l2_norm(h, T).astype(np.float64)
        assert float((ex**2).sum()) == pytest.approx(float((tok**2).sum()), rel=1e-5, abs=1e-8)
        for i in range(b):
            assert float(ex[i, 0] ** 2) == pytest.approx(float((tok[i] ** 2).sum()), rel=1e-5, abs=1e-8)

    @given(seed=st.integers(0, 2**31 - 1), c=st.floats(-4.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, seed, c):
        rng = np.random.default_rng(seed)
        h = rng.uniform(-2, 2, size=(2, 3, 4)).astype(np.float32)
        for g in (E, T):
            scaled = l2_norm((np.float32(c) * h), g)
            np.testing.assert_allclose(scaled, abs(c) * l2_norm(h, g), rtol=1e-5, atol=1e-6)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_non_negativity(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(2, 4, 3)).astype(np.float32)
        for g in (E, T):
            assert (l2_norm(h, g) >= 0).all()


def state_norm_oracle(h, granularity):
    """l2_norm as it was written before the finiteness check moved to the sums:
    check the state, square it in float64, sum and take the root."""
    arr = np.ascontiguousarray(h, dtype=np.float32)
    if not np.isfinite(arr).all():
        raise NonFiniteError("hidden state contains NaN or Inf")
    sq = np.square(arr, dtype=np.float64)
    if granularity is E:
        return np.sqrt(sq.sum(axis=(1, 2)))[:, None].astype(np.float32)
    return np.sqrt(sq.sum(axis=2))[:, :, None].astype(np.float32)


finite_states = hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=9),
                           elements=st.floats(width=32, allow_nan=False, allow_infinity=False))
EXTREME = np.array([[[3e38, -3e38], [-3e38, 1.0]]], dtype=np.float32)


class TestNormsFromSums:
    """l2_norm checks its float64 roots: it must equal the expression that
    checked the state wherever that gives a finite norm, and refuse the
    rest."""

    @settings(max_examples=150, deadline=None)
    @given(h=finite_states)
    @example(h=EXTREME)
    def test_l2_norm_equals_the_state_checked_expression(self, h):
        for g in (E, T):
            with np.errstate(over="ignore"):  # a norm past float32's range rounds to inf in the oracle
                want = state_norm_oracle(h, g)
            if np.isfinite(want).all():
                assert l2_norm(h, g).tobytes() == want.tobytes()
            else:
                with pytest.raises(NonFiniteError, match="exceeds float32's range"):
                    l2_norm(h, g)

    @pytest.mark.parametrize("x", [0.0, float(np.finfo(np.float32).max), np.nextafter(2.0**128 - 2.0**103, 0),
                                   2.0**128 - 2.0**103, 2.0**128, 1e300, np.inf, np.nan])
    def test_range_check_agrees_with_the_float32_cast(self, x):
        with np.errstate(over="ignore"):
            assert _rounds_finite_f32(np.array([x])) == bool(np.isfinite(np.float32(x)))

    @settings(max_examples=60, deadline=None)
    @given(h=finite_states, data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_l2_norm_raises_for_any_non_finite_element(self, h, data, bad):
        h = h.copy()
        h[tuple(data.draw(st.integers(0, n - 1)) for n in h.shape)] = bad
        for g in (E, T):
            with pytest.raises(NonFiniteError):
                l2_norm(h, g)


class TestLayerNormPre:
    def test_constant_vector_unit_rms(self):
        h = np.full((1, 1, 8), 3.0, dtype=np.float32)
        out = layer_norm_pre(h, np.ones(8, dtype=np.float32))
        rms = math.sqrt(float((out.astype(np.float64) ** 2).mean()))
        assert rms == pytest.approx(1.0, abs=1e-6)

    def test_zeros_stay_zero(self):
        h = np.zeros((1, 2, 4), dtype=np.float32)
        assert np.array_equal(layer_norm_pre(h, np.ones(4, dtype=np.float32)), h)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(-2, 2, size=6).astype(np.float32)
        gain = rng.uniform(0.5, 1.5, size=6).astype(np.float32)
        eps = 1e-5
        ms = sum(float(x) ** 2 for x in h) / 6
        expect = np.array([float(x) / math.sqrt(ms + eps) * float(g) for x, g in zip(h, gain)])
        got = layer_norm_pre(h.reshape(1, 1, 6), gain)[0, 0]
        assert np.abs(got - expect).max() < 1e-6

    def test_gain_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm_pre(np.zeros((1, 1, 4), np.float32), np.ones(3, np.float32))
