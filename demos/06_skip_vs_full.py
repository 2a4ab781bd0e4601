"""Skip-vs-full comparison on a checkable synthetic suite.

Runs the copy suite twice: once with every layer (off) and once
skipping voids (skip-identity), then prints scores and average layer
usage per phase. The CLI equivalent is:

    lacvoid compare --seed-model d16,h2,l4 --suite copy --alpha 0.8
"""

from lacvoid import HaltPolicy, ModelConfig, SkipMode, TraceColumns, build_model, generate, run_prompt, usage_report
from lacvoid.suites import build_suite, score_case

model = build_model(ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=64, max_seq=64, seed=3))
cases = build_suite("copy", seed=0)

results = {}
for label, mode in (("not_skipped", SkipMode.OFF), ("skipped", SkipMode.SKIP_IDENTITY)):
    policy = HaltPolicy(alpha=0.8, skip_mode=mode)
    scores, blocks = [], []
    for case in cases:
        (state,), pp = run_prompt(model, [case.prompt_ids], policy, [case.sequence_id])
        (generated,), (rg,) = generate([state], model, policy, len(case.expected_ids))
        scores.append(score_case(generated, case.expected_ids))
        blocks += [pp, rg]
    report = usage_report(TraceColumns.concat(blocks))
    results[label] = (sum(scores) / len(scores), report.average_usage)

print(f"{'':<12}{'not_skipped':>12}{'skipped':>10}")
print(f"{'score':<12}{results['not_skipped'][0]:>12.4f}{results['skipped'][0]:>10.4f}")
for phase in ("PP", "RG"):
    print(f"{phase + ' usage':<12}{results['not_skipped'][1][phase]:>12.4f}{results['skipped'][1][phase]:>10.4f}")
print("\n(the toy model is untrained; scores exercise the harness, not language skill)")
