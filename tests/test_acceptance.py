"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import csv
import itertools
import json

import numpy as np
import pytest

from lacvoid import (
    HaltPolicy,
    ModelConfig,
    NormGranularity,
    SkipMode,
    build_model,
    detect_voids_offline,
    export_reports,
    l2_norm,
    mask_example,
    mask_token,
    norm_profile,
    offline_void_mask,
    read_trace,
    render_bitmap,
    run_prompt,
    run_stack,
    save_weights,
    usage_report,
    write_trace,
)
from lacvoid.cli import main as cli_main
from lacvoid.model import ToyTransformer, TransformerBlock
from lacvoid.rng import stream_for
from lacvoid.trace import white_pixel_count
from conftest import add_constant_stack, compose_stack, random_affine_stack


def ok(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def toy8():
    """Fixed 8-layer model shared by the full-model criteria."""
    return build_model(ModelConfig(layer_count=8, depth=32, head_count=4, ffn_dim=64, max_seq=32, seed=0))


def acceptance_prompts(n):
    gen = stream_for(123, "acceptance-prompts")
    out = []
    for _ in range(n):
        length = 4 + (gen.next_u64() % 9)
        out.append(gen.integers(int(length), 1, 256))
    return out


def test_granularity_consistency_suite():
    """batch^2 == sum(example^2) == sum(token^2), 1e-5 relative, 1000 tensors."""
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        b, l, d = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 8)
        h = rng.uniform(-3, 3, size=(b, l, d)).astype(np.float32)
        batch_sq = float(l2_norm(h, NormGranularity.BATCH)[0]) ** 2
        ex = l2_norm(h, NormGranularity.EXAMPLE).astype(np.float64)
        tok = l2_norm(h, NormGranularity.TOKEN).astype(np.float64)
        assert batch_sq == pytest.approx(float((ex**2).sum()), rel=1e-5, abs=1e-9)
        for i in range(b):
            assert float(ex[i, 0] ** 2) == pytest.approx(float((tok[i] ** 2).sum()), rel=1e-5, abs=1e-9)
    ok("granularity consistency (1000 tensors)")


def test_offline_alpha_monotonicity():
    """Void sets nested and usage non-increasing over a 10-alpha grid."""
    rng = np.random.default_rng(55)
    alphas = [round(0.1 * k, 1) for k in range(1, 11)]
    for _ in range(1000):
        deltas = rng.uniform(-5, 10, size=rng.integers(2, 10)).astype(np.float32)
        prev_set: set[int] = set()
        prev_usage = 1.0
        for alpha in alphas:
            voids = detect_voids_offline(deltas, alpha)
            usage = 1.0 - len(voids) / len(deltas)
            assert prev_set <= voids
            assert usage <= prev_usage + 1e-12
            prev_set, prev_usage = voids, usage
    ok("offline alpha monotonicity (1000 sequences x 10 alphas)")


def test_explicit_removal_oracle():
    """Skip-identity with each fixed void subset matches the reduced stack."""
    stack = random_affine_stack(31, 4, 6)
    h0 = np.random.default_rng(32).normal(size=(2, 3, 6)).astype(np.float32)
    policy = HaltPolicy(skip_mode=SkipMode.SKIP_IDENTITY)
    for subset in itertools.product([False, True], repeat=4):
        out = run_stack(stack, h0, policy, forced_voids=list(subset))
        kept = [l for l, v in zip(stack, subset) if not v]
        expect = compose_stack(kept, h0)
        assert np.abs(out.final_hidden - expect).max() < 1e-5
    ok("explicit-removal oracle (16 void subsets)")


def test_halt_frozen_and_mask_zero_suites():
    """Frozen units never change again; masking twice equals masking once."""
    increments = [4.0, 0.05, -1.0]
    for combo in itertools.product(increments, repeat=3):
        stack = add_constant_stack(combo)
        h0 = np.random.default_rng(5).uniform(1.0, 2.0, size=(1, 2, 1)).astype(np.float32)

        # capture the state entering every layer plus the final state
        seen = []

        def spy(layer):
            def wrapped(h):
                seen.append(h.copy())
                return layer(h)
            return wrapped

        spied = [spy(l) for l in stack]
        out = run_stack(spied, h0, HaltPolicy(alpha=1.0, skip_mode=SkipMode.HALT_FROZEN))
        trajectory = seen[1:] + [out.final_hidden]  # states after layers 1..3
        for j in range(2):
            flags = out.void_flags[:, 0, j]
            if flags.any():
                first = int(np.argmax(flags))
                assert flags[first:].all()
                frozen = seen[first][0, j].tobytes()  # state entering the first void layer
                for t in range(first, 3):
                    assert trajectory[t][0, j].tobytes() == frozen

        masked_out = run_stack(stack, h0, HaltPolicy(alpha=1.0, skip_mode=SkipMode.MASK_ZERO))
        for state in list(seen) + [masked_out.final_hidden]:
            for i in range(state.shape[0]):
                once_e = mask_example(state, i)
                assert mask_example(once_e, i).tobytes() == once_e.tobytes()
                for j in range(state.shape[1]):
                    once = mask_token(state, i, j)
                    assert mask_token(once, i, j).tobytes() == once.tobytes()
    ok("halt-frozen permanence + mask-zero idempotence (27 scripted stacks)")


def test_detect_mode_non_interference(toy8):
    """Detect-mode logits are bitwise equal to off-mode logits."""
    off = HaltPolicy(skip_mode=SkipMode.OFF)
    detect = HaltPolicy(skip_mode=SkipMode.DETECT)
    for i, ids in enumerate(acceptance_prompts(50)):
        s_off, _ = run_prompt(toy8, ids, off, sequence_id=f"p{i}")
        s_det, _ = run_prompt(toy8, ids, detect, sequence_id=f"p{i}")
        assert s_off.last_logits.tobytes() == s_det.last_logits.tobytes()
    ok("detect-mode non-interference (50 prompts, bitwise)")


def test_preln_norm_growth(toy8):
    """Mean per-layer norm non-decreasing for >= 90% of adjacent pairs."""
    policy = HaltPolicy(skip_mode=SkipMode.DETECT)
    records = []
    for i, ids in enumerate(acceptance_prompts(100)):
        _, recs = run_prompt(toy8, ids, policy, sequence_id=f"g{i}")
        records.extend(recs)
    means = norm_profile(records).mean_norms["PP"]
    pairs = list(zip(means, means[1:]))
    fraction = sum(1 for a, b in pairs if b >= a) / len(pairs)
    assert fraction >= 0.9
    ok(f"pre-LN norm growth ({fraction:.0%} of adjacent pairs non-decreasing)")


def test_round_trips(toy8, tmp_path):
    """JSONL, PGM, and CSV all re-parse to structurally equal data."""
    policy = HaltPolicy(skip_mode=SkipMode.DETECT)
    records = []
    for i, ids in enumerate(acceptance_prompts(10)):
        _, recs = run_prompt(toy8, ids, policy, sequence_id=f"r{i}")
        records.extend(recs)

    trace_path = tmp_path / "trace.jsonl"
    write_trace(records, trace_path)
    back = read_trace(trace_path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.sequence_id, a.token_index, a.phase, a.token_id, a.layer_flags) == \
               (b.sequence_id, b.token_index, b.phase, b.token_id, b.layer_flags)
        assert np.abs(np.array(a.layer_norms) - np.array(b.layer_norms)).max() < 1e-6
        assert np.abs(np.array(a.layer_deltas) - np.array(b.layer_deltas)).max() < 1e-6

    seq0 = [r for r in back if r.sequence_id == "r0"]
    pgm = render_bitmap(seq0, phase="PP")
    assert white_pixel_count(pgm) == sum(sum(r.layer_flags) for r in seq0)

    usage = usage_report(back)
    profile = norm_profile(back)
    csv_path, json_path = export_reports(usage, profile, tmp_path)
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == usage.layer_count
    for t, row in enumerate(rows):
        assert float(row["pp_frequency"]) == pytest.approx(usage.frequencies["PP"][t], abs=1e-6)
        assert float(row["pp_mean_norm"]) == pytest.approx(profile.mean_norms["PP"][t], abs=1e-6)
        assert float(row["pp_mean_delta"]) == pytest.approx(profile.mean_deltas["PP"][t], abs=1e-6)
    summary = json.loads(json_path.read_text())
    assert summary["average_usage"]["PP"] == pytest.approx(usage.average_usage["PP"])
    ok("trace/bitmap/report round-trips")


def test_end_to_end_determinism(tmp_path):
    """cmd_trace twice with identical flags gives byte-identical traces."""
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = cli_main(["trace", "--seed-model", "d16,h2,l4", "--seed", "11",
                         "--prompt", "determinism check", "--max-new", "8",
                         "--alpha", "0.8", "--out", str(out)])
        assert code == 0
        blobs.append((out / "trace.jsonl").read_bytes())
    assert blobs[0] == blobs[1] and len(blobs[0]) > 0
    ok("end-to-end determinism (byte-identical traces)")


def consistency_model(depth=16, layers=4) -> ToyTransformer:
    """Model whose per-token progress is strictly positive at every layer.

    Attention weights are zero and the FFN is an identity pair scaled by
    one half, so each block adds 0.5 * gelu(rms(h)): a vector whose
    every component shares its sign with h (x * gelu(x) >= 0), which
    strictly grows the norm. No alpha in (0, 1] can void any layer.
    """
    cfg = ModelConfig(layer_count=layers, depth=depth, head_count=2, ffn_dim=depth, max_seq=64, seed=0)
    z = np.zeros((depth, depth), np.float32)
    ones = np.ones(depth, np.float32)
    blocks = [
        TransformerBlock(ones.copy(), z, z, z, z, ones.copy(),
                         np.eye(depth, dtype=np.float32),
                         (0.5 * np.eye(depth)).astype(np.float32), 2)
        for _ in range(layers)
    ]
    embed = stream_for(0, "embed").uniform(256 * depth, -0.25, 0.25).reshape(256, depth)
    embed[0] = 0.0  # keep the end-of-text byte from winning the argmax
    return ToyTransformer(cfg, embed, blocks, ones.copy())


def test_comparison_consistency_floor(tmp_path, capsys):
    """cmd_compare: with no layer void, skipped equals not-skipped exactly."""
    weights = tmp_path / "consistency.lactnsr"
    save_weights(consistency_model(), weights)
    code = cli_main(["compare", "--weights", str(weights), "--suite", "copy",
                     "--alpha", "0.000001", "--mode", "skip-identity",
                     "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    table = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("score", "pp_usage", "rg_usage"):
            table[parts[0]] = (parts[1], parts[2])
    assert table["score"][0] == table["score"][1]
    assert table["pp_usage"] == ("1.0000", "1.0000")
    assert table["rg_usage"] == ("1.0000", "1.0000")
    ok("table-shaped comparison consistency floor (skipped == not skipped)")
