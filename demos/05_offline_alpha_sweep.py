"""Offline alpha sweeps and per-layer profiles from one recorded run.

Because traces store every layer's norm and progress even when nothing
is skipped, the halting decisions can be replayed at any alpha without
re-running the model. Usage is monotone in alpha by construction: a
larger alpha only raises thresholds.
"""

import numpy as np

from lacvoid import (
    HaltPolicy,
    ModelConfig,
    SkipMode,
    alpha_sweep,
    build_model,
    generate,
    norm_profile,
    run_prompt,
)
from lacvoid.rng import stream_for

model = build_model(ModelConfig(layer_count=8, depth=32, head_count=4, ffn_dim=64, max_seq=48, seed=0))
off = HaltPolicy(skip_mode=SkipMode.OFF)

# record 20 sequences once, in off mode
records = []
gen = stream_for(7, "sweep-demo")
for i in range(20):
    prompt = gen.integers(8, 33, 127)
    state, pp = run_prompt(model, prompt, off, sequence_id=f"d{i}")
    _, (rg,) = generate([state], model, off, 8)
    records += pp + rg

print("alpha   pp_usage  rg_usage")
for alpha, report in alpha_sweep(records, [round(0.1 * k, 1) for k in range(1, 11)]):
    print(f" {alpha:.1f}     {report.average_usage['PP']:.3f}     {report.average_usage['RG']:.3f}")

# the per-layer profiles behind those decisions
profile = norm_profile(records)
print("\nlayer  pp_mean_norm  pp_mean_delta")
for t in range(profile.layer_count):
    print(f"  {t + 1}      {profile.mean_norms['PP'][t]:7.3f}      {profile.mean_deltas['PP'][t]:+7.4f}")
print("\nthe mean norm grows with depth (pre-LN residual stream);")
print("layers with the smallest mean progress are the usual voids")
