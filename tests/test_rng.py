"""The portable RNG scheme, pinned by golden values, and the lane-parallel
draws of a batch of streams checked against the scalar next_u64 loop
they replace."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacvoid import ModelConfig, build_model, rng
from lacvoid.rng import Xoshiro256StarStar, _draw_streams, _to_integers, _to_uniform, splitmix64, stream_for
from lacvoid.suites import build_suite, score_case

# sizes at and next to powers of two, where the lane length and the lane count step
BOUNDARY_SIZES = [0, 1, 2, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 65537]
SIZES = st.one_of(st.sampled_from(BOUNDARY_SIZES), st.integers(0, 3000))


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


def test_all_zero_seeding_starts_from_state_1_0_0_0(monkeypatch):
    # splitmix64's output is a bijection of its state, so no seed gives four
    # zero words and only a patched splitmix64 reaches the remap.
    # Hand-derived: the first output is rotl(0*5, 7)*9 = 0 and the state
    # becomes [1, 1, 1, 0]; the second is rotl(1*5, 7)*9 = 5760.
    monkeypatch.setattr(rng, "splitmix64", lambda state: (0, state))
    gen = Xoshiro256StarStar(0)
    assert gen._s == [1, 0, 0, 0]
    assert gen.next_u64() == 0
    assert gen._s == [1, 1, 1, 0]
    assert gen.next_u64() == 5760


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


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_uniform_matches_scalar_at_lane_boundaries(n):
    gen, oracle = stream_for(5, "edge"), stream_for(5, "edge")
    (u,) = _draw_streams([gen], [n])
    assert _to_uniform(u, -0.5, 0.5).tobytes() == scalar_uniform(oracle, n, -0.5, 0.5).tobytes()
    assert gen.next_u64() == stream_for(5, "edge").next_u64()  # still at its first output


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.text(max_size=8), SIZES,
                                st.floats(-1e6, 1e6), st.floats(0.0, 1e6)), max_size=6))
def test_draw_streams_equals_scalar_oracle(specs):
    """A batch of streams of mixed sizes gives each stream's own bytes and leaves it at its start."""
    gens = [stream_for(seed, name) for seed, name, *_ in specs]
    draws = _draw_streams(gens, [n for _, _, n, _, _ in specs])
    for gen, u, (seed, name, n, lo, width) in zip(gens, draws, specs):
        oracle = stream_for(seed, name)
        assert _to_uniform(u, lo, lo + width).tobytes() == scalar_uniform(oracle, n, lo, lo + width).tobytes()
        assert gen.next_u64() == stream_for(seed, name).next_u64()


def test_one_batch_of_every_boundary_size():
    names = [f"edge{n}" for n in BOUNDARY_SIZES]
    gens = [stream_for(5, name) for name in names]
    draws = _draw_streams(gens, BOUNDARY_SIZES)
    for gen, u, name, n in zip(gens, draws, names, BOUNDARY_SIZES):
        oracle = stream_for(5, name)
        assert _to_uniform(u, -0.5, 0.5).tobytes() == scalar_uniform(oracle, n, -0.5, 0.5).tobytes()
        assert gen.next_u64() == stream_for(5, name).next_u64()


def test_draw_streams_refuses_a_negative_count():
    with pytest.raises(ValueError, match=r"^_draw_streams: negative draw count in \[3, -1\]$"):
        _draw_streams([stream_for(1, "a"), stream_for(1, "b")], [3, -1])


def test_draw_streams_gives_one_generator_twice_equal_leading_draws():
    gen = stream_for(1, "twice")
    first, _, again = _draw_streams([gen, stream_for(1, "other"), gen], [3, 300, 5])
    assert first.tobytes() == again[:3].tobytes() == _draw_streams([stream_for(1, "twice")], [3])[0].tobytes()
    assert gen.next_u64() == stream_for(1, "twice").next_u64()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), name=st.text(max_size=12), n=SIZES,
       lo=st.integers(-2**70, 2**70), span=st.integers(1, 2**70))
def test_integers_equals_scalar_loop(seed, name, n, lo, span):
    gen, oracle = stream_for(seed, name), stream_for(seed, name)
    assert _to_integers(_draw_streams([gen], [n])[0], lo, lo + span) == [
        lo + (oracle.next_u64() >> 40) % span for _ in range(n)]
    assert gen.next_u64() == stream_for(seed, name).next_u64()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["copy", "sorted"])
def test_build_suite_equals_scalar_loop(name, seed):
    # every case draws its bytes from its own named stream, one next_u64 per byte
    cases = build_suite(name, seed)
    assert len(cases) == 6
    for i, case in enumerate(cases):
        gen = stream_for(seed, f"suite:{name}:{i}")
        prompt = tuple(33 + (gen.next_u64() >> 40) % 94 for _ in range(8))
        assert case.sequence_id == f"{name}{i:03d}" and case.prompt_ids == prompt
        assert case.expected_ids == (tuple(sorted(prompt)) if name == "sorted" else prompt)


# every prompt of both suites at seeds 0 and 1, pinned as literals
SUITE_PROMPTS = {
    ("copy", 0): [b'X#Q^;),!', b'U2K|1Bml', b'S:!=Ltgd', b'h2JP#gO3', b'36XN)[4b', b'cnVpW{K9'],
    ("copy", 1): [b'c$w(`bq;', b'D~[auFoC', b'3G-oybZ:', b'gzN"nN6I', b'{V4gQJUg', b'.JEBFy=|'],
    ("sorted", 0): [b'B$6rU3Fm', b'3z[=h_u@', b'RTYzJ.:+', b'y;3[Z5y@', b'Km<X)7sy', b'y_&wuA+*'],
    ("sorted", 1): [b'2XW;;vu"', b'@7;Ph@Ur', b'Q[%:[yq]', b'ny{>bMUU', b'A`{&bSFl', b'R~G1]tpb'],
}


@pytest.mark.parametrize("name, seed", sorted(SUITE_PROMPTS))
def test_build_suite_golden_prompts(name, seed):
    assert [bytes(case.prompt_ids) for case in build_suite(name, seed)] == SUITE_PROMPTS[name, seed]


def test_build_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match=r"^unknown suite 'nonsense', expected one of \('copy', 'sorted'\)$"):
        build_suite("nonsense", 0)


@pytest.mark.parametrize("generated", [(), (1, 2)])
def test_score_case_with_no_expected_bytes_is_1(generated):
    assert score_case(generated, ()) == 1.0
