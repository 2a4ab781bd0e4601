"""Per-layer metrics of one workload iteration, computed from its spans.

Times are inclusive span time in seconds unless the name says self time;
calls made on the CLI's pool threads add up, so a layer's busy time can
exceed the wall time of the command that ran it. Metrics whose unit is
"count" or "bytes" come from tensor shapes and repeat exactly.
"""

from __future__ import annotations

from collections import defaultdict

# name -> unit, in the order the benchmark reports them.
LAYER_METRICS = {
    "rng.floats": "count",
    "rng.busy_s": "s",
    "container.load_s": "s",
    "container.bytes": "bytes",
    "model.build_calls": "count",
    "model.build_s": "s",
    "model.pp_s": "s",
    "model.pp_tokens": "count",
    "model.rg_s": "s",
    "model.rg_tokens": "count",
    "model.rg_step_ms.p50": "ms",
    "model.rg_step_ms.p99": "ms",
    "model.block_pp_s": "s",
    "model.block_rg_s": "s",
    "model.kv_append_s": "s",
    "model.kv_bytes_copied": "bytes",
    "model.logits_s": "s",
    "executor.controller_pp_s": "s",
    "executor.controller_rg_s": "s",
    "executor.controller_share": "ratio",
    "executor.void_frac_pp": "ratio",
    "executor.void_frac_rg": "ratio",
    "tensors.l2_norm_calls": "count",
    "tensors.l2_norm_s": "s",
    "tensors.matmul_calls": "count",
    "tensors.matmul_s": "s",
    "tensors.matmul_flops": "count",
    "tensors.layer_norm_s": "s",
    "halting.decide_calls": "count",
    "halting.decide_s": "s",
    "halting.replay_calls": "count",
    "halting.replay_s": "s",
    "analysis.sweep_s": "s",
    "analysis.usage_report_calls": "count",
    "analysis.usage_report_s": "s",
    "analysis.norm_profile_s": "s",
    "analysis.export_s": "s",
    "trace.write_s": "s",
    "trace.write_mb_per_s": "MB/s",
    "trace.read_s": "s",
    "trace.read_mb_per_s": "MB/s",
    "trace.bitmap_s": "s",
    "cli.self_s": "s",
    "cli.pool_overlap": "ratio",
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}

_MAIN = "lacvoid.cli.main"
_SETUP = ("lacvoid.model.build_model", "lacvoid.model.load_weights")
_FORWARD = "lacvoid.model.TransformerBlock.forward"
_RUN_STACK = "lacvoid.executor.run_stack"
_PHASE_OF = {"lacvoid.model.run_prompt": "pp", "lacvoid.model.generate": "rg"}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _union_s(intervals: list[tuple[int, int]]) -> float:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered / 1e9


def layer_metrics(spans: list[tuple]) -> tuple[dict[str, float], list[float]]:
    """Metrics of one iteration, plus its RG step times in ms (for percentiles)."""
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        sid, name, start, end, parent, _, count = s
        calls[name] += 1
        busy[name] += (end - start) / 1e9
        if isinstance(count, int):
            counts[name] += count
        if parent is not None:
            children[parent].append(s)

    def parent_name(s):
        p = by_id.get(s[4])
        return p[1] if p else None

    rng_busy = sum((s[3] - s[2]) / 1e9 for s in spans
                   if s[1].startswith("lacvoid.rng.") and not (parent_name(s) or "").startswith("lacvoid.rng."))

    block = {"pp": 0.0, "rg": 0.0}
    controller = {"pp": 0.0, "rg": 0.0}
    voids = {"pp": [0, 0], "rg": [0, 0]}
    steps_ms = []
    for s in spans:
        if s[1] != _RUN_STACK:
            continue
        phase = _PHASE_OF.get(parent_name(s))
        if phase is None:
            continue
        inside = sum((c[3] - c[2]) / 1e9 for c in children[s[0]] if c[1] == _FORWARD)
        block[phase] += inside
        controller[phase] += (s[3] - s[2]) / 1e9 - inside
        voids[phase][0] += s[6][0]
        voids[phase][1] += s[6][1]
        if phase == "rg":
            steps_ms.append((s[3] - s[2]) / 1e6)

    # CLI self time: each command's wall minus what its layer spans cover,
    # counting spans opened on pool threads while the command ran.
    cli_self = 0.0
    mains = sorted((s for s in spans if s[1] == _MAIN), key=lambda s: s[2])
    for m in mains:
        under = [(c[2], c[3]) for c in children[m[0]]]
        under += [(s[2], s[3]) for s in spans
                  if s[4] is None and s[5] != m[5] and m[2] <= s[2] <= m[3]]
        cli_self += (m[3] - m[2]) / 1e9 - _union_s(under)

    # Pool overlap of the forward command (the first one): sequence time over
    # the command's wall less set-up, trace writing and offline replay.
    overlap = 0.0
    if mains:
        fwd = mains[0]
        direct = children[fwd[0]]
        aside = sum((c[3] - c[2]) / 1e9 for c in direct
                    if c[1] in _SETUP + ("lacvoid.trace.write_trace", "lacvoid.analysis.alpha_sweep"))
        sequences = sum((s[3] - s[2]) / 1e9 for s in spans
                        if s[1] in _PHASE_OF and fwd[2] <= s[2] <= fwd[3])
        overlap = _ratio(sequences, (fwd[3] - fwd[2]) / 1e9 - aside)

    write_s, read_s = busy["lacvoid.trace.write_trace"], busy["lacvoid.trace.read_trace"]
    ctrl = controller["pp"] + controller["rg"]
    metrics = {
        "rng.floats": counts["lacvoid.rng.Xoshiro256StarStar.uniform"],
        "rng.busy_s": rng_busy,
        "container.load_s": busy["lacvoid.container.load_container"],
        "container.bytes": counts["lacvoid.container.load_container"],
        "model.build_calls": calls["lacvoid.model.build_model"],
        "model.build_s": busy["lacvoid.model.build_model"],
        "model.pp_s": busy["lacvoid.model.run_prompt"],
        "model.pp_tokens": counts["lacvoid.model.run_prompt"],
        "model.rg_s": busy["lacvoid.model.generate"],
        "model.rg_tokens": counts["lacvoid.model.generate"],
        "model.block_pp_s": block["pp"],
        "model.block_rg_s": block["rg"],
        "model.kv_append_s": busy["lacvoid.model.KVCache.append"],
        "model.kv_bytes_copied": counts["lacvoid.model.KVCache.append"],
        "model.logits_s": busy["lacvoid.model.ToyTransformer.logits_from_hidden"],
        "executor.controller_pp_s": controller["pp"],
        "executor.controller_rg_s": controller["rg"],
        "executor.controller_share": _ratio(ctrl, ctrl + block["pp"] + block["rg"]),
        "executor.void_frac_pp": _ratio(*voids["pp"]),
        "executor.void_frac_rg": _ratio(*voids["rg"]),
        "tensors.l2_norm_calls": calls["lacvoid.tensors.l2_norm"],
        "tensors.l2_norm_s": busy["lacvoid.tensors.l2_norm"],
        "tensors.matmul_calls": calls["lacvoid.tensors.matmul"],
        "tensors.matmul_s": busy["lacvoid.tensors.matmul"],
        "tensors.matmul_flops": counts["lacvoid.tensors.matmul"],
        "tensors.layer_norm_s": busy["lacvoid.tensors.layer_norm_pre"],
        "halting.decide_calls": calls["lacvoid.halting.decide"],
        "halting.decide_s": busy["lacvoid.halting.decide"],
        "halting.replay_calls": calls["lacvoid.halting.offline_void_mask"],
        "halting.replay_s": busy["lacvoid.halting.offline_void_mask"],
        "analysis.sweep_s": busy["lacvoid.analysis.alpha_sweep"],
        "analysis.usage_report_calls": calls["lacvoid.analysis.usage_report"],
        "analysis.usage_report_s": busy["lacvoid.analysis.usage_report"],
        "analysis.norm_profile_s": busy["lacvoid.analysis.norm_profile"],
        "analysis.export_s": busy["lacvoid.analysis.export_reports"],
        "trace.write_s": write_s,
        "trace.write_mb_per_s": _ratio(counts["lacvoid.trace.write_trace"] / 1e6, write_s),
        "trace.read_s": read_s,
        "trace.read_mb_per_s": _ratio(counts["lacvoid.trace.read_trace"] / 1e6, read_s),
        "trace.bitmap_s": busy["lacvoid.trace.render_bitmap"],
        "cli.self_s": cli_self,
        "cli.pool_overlap": overlap,
        "tracing.spans": len(spans),
    }
    return metrics, steps_ms
