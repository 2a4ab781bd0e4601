"""Tracing a toy transformer: prompt processing and response generation.

Builds a seeded 6-layer byte-level model, forwards a prompt (PP phase),
greedily generates a continuation (RG phase), and writes the per-token
trace plus a token-by-layer void bitmap. White pixels in the bitmap are
activated layers, black pixels are voids; layer 1 is the bottom row.
"""

from pathlib import Path

from lacvoid import (
    HaltPolicy,
    ModelConfig,
    SkipMode,
    build_model,
    decode_tokens,
    generate,
    render_bitmap,
    run_prompt,
    write_trace,
)

config = ModelConfig(layer_count=6, depth=32, head_count=4, ffn_dim=64, max_seq=64, seed=0)
model = build_model(config)
policy = HaltPolicy(alpha=0.8, skip_mode=SkipMode.DETECT)

prompt = "void hunting"
# run_prompt and generate take and return lists, one entry per sequence
(state,), pp_records = run_prompt(model, [prompt], policy, ["demo"])
(generated,), (rg_records,) = generate([state], model, policy, max_new=12)
records = pp_records + rg_records  # + joins two TraceColumns blocks

print(f"prompt tokens: {len(pp_records)}  generated tokens: {len(rg_records)}")
print(f"continuation bytes: {generated}")
print(f"as text: {decode_tokens(generated)!r}\n")

for r in records[:6]:
    flags = "".join("#" if f else "." for f in r.layer_flags)
    print(f"  {r.phase} token {r.token_index:2d} (byte {r.token_id:3d}) layers [{flags}]")
print("  ...")

out = Path("demo_out")
out.mkdir(exist_ok=True)
# write_trace writes to an open file; "w" replaces an earlier run's trace
with open(out / "trace.jsonl", "w", encoding="utf-8", newline="\n") as fh:
    written = write_trace(records, fh)
# a boolean mask over the phase column selects one phase's rows
(out / "bitmap_pp.pgm").write_text(render_bitmap(records[records.phase == "PP"]))
(out / "bitmap_rg.pgm").write_text(render_bitmap(records[records.phase == "RG"]))
print(f"\nwrote {written} bytes of trace and two PGM bitmaps under {out}/")
