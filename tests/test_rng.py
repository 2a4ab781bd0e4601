"""The portable RNG scheme, pinned by golden values, and the lane-parallel
uniform checked against the scalar next_u64 loop it replaces."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacvoid import ModelConfig, build_model
from lacvoid.rng import Xoshiro256StarStar, splitmix64, stream_for


def scalar_uniform(gen: Xoshiro256StarStar, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Oracle: one next_u64 per value, mapped as the scheme documents."""
    scale = (hi - lo) / float(1 << 24)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = lo + scale * (gen.next_u64() >> 40)
    return out.astype(np.float32)


def test_splitmix64_reference_outputs():
    # Published splitmix64 outputs for seed 1234567.
    state, outputs = 1234567, []
    for _ in range(5):
        value, state = splitmix64(state)
        outputs.append(value)
    assert outputs == [6457827717110365317, 3203168211198807973, 9817491932198370423,
                       4593380528125082431, 16408922859458223821]


def test_embed_stream_first_outputs():
    gen = stream_for(0, "embed")
    assert [gen.next_u64() for _ in range(8)] == [
        4163528794871250304, 6738850416198239274, 15566625424070086477, 17656510183290294392,
        6263640528404787418, 3903618259375488416, 5090472260037209345, 6496359817377402096,
    ]


@pytest.mark.parametrize("config, digest", [
    (ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=64),
     "d751ac08b2bdd8a5410fc2d90dea466373fb058dc001970e2fa2130e30e81192"),
    (ModelConfig(layer_count=8, depth=64, head_count=4, ffn_dim=256),
     "307c382b44462d464eef3636abb8085154d07a8d4f55c7921df44b83e8b2a619"),
    (ModelConfig(layer_count=4, depth=128, head_count=4, ffn_dim=512),
     "650e5f47967c74e1012979f627200137ca24a169b50d52f32ea75ccb4b86d82e"),
])
def test_build_model_weight_digest(config, digest):
    """sha256 over the little-endian float32 bytes of every tensor, in sorted-name order."""
    tensors = build_model(config).named_tensors()
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(np.ascontiguousarray(tensors[name], dtype="<f4").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 65537])
def test_uniform_matches_scalar_at_lane_boundaries(n):
    fast, slow = stream_for(5, "edge"), stream_for(5, "edge")
    assert fast.uniform(n, -0.5, 0.5).tobytes() == scalar_uniform(slow, n, -0.5, 0.5).tobytes()
    assert fast.next_u64() == slow.next_u64()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), name=st.text(max_size=12), n=st.integers(0, 5000),
       lo=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e6))
def test_uniform_equals_scalar_oracle(seed, name, n, lo, width):
    hi = lo + width
    fast, slow = stream_for(seed, name), stream_for(seed, name)
    assert fast.uniform(n, lo, hi).tobytes() == scalar_uniform(slow, n, lo, hi).tobytes()
    # The state after the call is the state at step n: the stream continues unchanged.
    assert fast.integers(4, 0, 1 << 20) == slow.integers(4, 0, 1 << 20)


def test_consecutive_calls_continue_one_stream():
    gen, oracle = stream_for(9, "chunks"), stream_for(9, "chunks")
    parts = [gen.uniform(n) for n in (3, 700, 1, 5000)]
    assert np.concatenate(parts).tobytes() == scalar_uniform(oracle, 5704).tobytes()
