"""Command-line front-end: trace runs, alpha sweeps, reports, comparisons.

Exit codes: 0 success, 1 runtime error, 2 usage error. Sequences run in
groups, in input order, whose KV caches fit a fixed byte budget. In a
group, prompt processing (PP) runs one sequence per worker of a thread
pool, one worker per CPU, whose BLAS calls overlap.
Response generation (RG) then decodes the group's rows as one batch on
the main thread. Output files are written by the main thread after all
groups finish, in input order, so runs are byte-deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import alpha_sweep, export_reports, norm_profile, usage_report
from .halting import HaltPolicy, SkipMode
from .model import ModelConfig, ToyTransformer, build_model, generate, load_weights, run_prompt
from .suites import SUITE_NAMES, SuiteCase, build_suite, score_case
from .tensors import DTYPE, NormGranularity
from .trace import PHASE_PP, PHASE_RG, read_trace, render_bitmap, write_trace


def _fmt_usage(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


# KV cache bytes of one group of sequences; a group still takes one row per pool worker.
_GROUP_KV_BYTES = 1 << 20


def _groups(model: ToyTransformer, jobs: list[SuiteCase], max_new: int, workers: int):
    """Runs of consecutive jobs whose KV cache fits _GROUP_KV_BYTES, each of at
    least `workers` jobs but the last. Yields (jobs, cache capacity)."""
    per_position = 2 * model.layer_count * model.config.depth * np.dtype(DTYPE).itemsize
    group: list[SuiteCase] = []
    capacity = 0
    for job in jobs:
        need = min(model.config.max_seq, len(job.prompt_ids) + max_new)
        grown = max(capacity, need)
        if len(group) >= workers and (len(group) + 1) * grown * per_position > _GROUP_KV_BYTES:
            yield group, capacity
            group, grown = [], need
        group.append(job)
        capacity = grown
    if group:
        yield group, capacity


def _run_group(model: ToyTransformer, group: list[SuiteCase], capacity: int, policy: HaltPolicy,
               max_new: int, pool: ThreadPoolExecutor) -> list:
    """PP per job on `pool`, then RG of the group as one batch.

    Returns, in input order, (records, generated ids) per job or the
    ValueError that stopped it.
    """
    cache = model.new_cache(len(group), capacity)
    # rows in prompt-length order, so rows decoding at one position are adjacent
    by_length = sorted(range(len(group)), key=lambda i: len(group[i].prompt_ids))
    row_of = {i: row for row, i in enumerate(by_length)}

    def prompt(i: int):
        job = group[i]
        try:
            return run_prompt(model, job.prompt_ids, policy, sequence_id=job.sequence_id, cache=cache, row=row_of[i])
        except ValueError as exc:
            return exc

    results = list(pool.map(prompt, range(len(group))))
    ok = [i for i, res in enumerate(results) if not isinstance(res, ValueError)]
    gen_ids, rg_records = generate([results[i][0] for i in ok], model, policy, max_new)
    for i, ids, records in zip(ok, gen_ids, rg_records):
        state, pp_records = results[i]
        results[i] = state.error if state.error is not None else (pp_records + records, ids)
    return results


def _run_jobs(model: ToyTransformer, jobs: list[SuiteCase], policy: HaltPolicy, max_new: int):
    """Run each sequence (PP then RG); results returned in input order.

    A group finishes even when one of its jobs fails; then the error of
    the first failing job, in input order, is raised.
    """
    workers = min(len(jobs), os.cpu_count() or 1)
    out = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for group, capacity in _groups(model, jobs, max_new, workers):
            results = _run_group(model, group, capacity, policy, max_new, pool)
            for res in results:
                if isinstance(res, ValueError):
                    raise res
            out += results
    return out


def _parse_seed_model(text: str, seed: int) -> ModelConfig:
    """Compact model string: comma-separated d<depth>,h<heads>,l<layers>
    with optional f<ffn>, m<max_seq>. Example: d16,h2,l4."""
    fields = {"d": None, "h": None, "l": None, "f": None, "m": None}
    for part in text.split(","):
        part = part.strip()
        if not part or part[0] not in fields or not part[1:].isdigit():
            raise ValueError(f"bad --seed-model component {part!r}")
        fields[part[0]] = int(part[1:])
    if fields["d"] is None or fields["h"] is None or fields["l"] is None:
        raise ValueError("--seed-model needs at least d<depth>,h<heads>,l<layers>")
    return ModelConfig(
        layer_count=fields["l"],
        depth=fields["d"],
        head_count=fields["h"],
        ffn_dim=fields["f"] if fields["f"] is not None else 4 * fields["d"],
        max_seq=fields["m"] if fields["m"] is not None else 256,
        seed=seed,
    )


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.8, help="threshold knob in (0, 1]")
    p.add_argument("--granularity", choices=[g.value for g in NormGranularity], default="token")
    p.add_argument("--mode", choices=[m.value for m in SkipMode], default="detect")
    p.add_argument("--min-layers", type=int, default=1, help="layers 1..N are never voids")


def _add_run_flags(p: argparse.ArgumentParser, with_prompt: bool = True) -> None:
    p.add_argument("--seed-model", help="build a seeded model, e.g. d16,h2,l4")
    p.add_argument("--weights", help="load a model from a tensor container file")
    if with_prompt:
        p.add_argument("--prompt", help="literal prompt text (utf-8 bytes)")
        p.add_argument("--prompt-file", help="file with one prompt per line")
    p.add_argument("--suite", choices=SUITE_NAMES, help="synthetic checkable suite")
    p.add_argument("--max-new", type=int, default=16, help="response tokens per sequence")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="model/suite seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lacvoid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="run PP then RG and write trace.jsonl")
    _add_policy_flags(p_trace)
    _add_run_flags(p_trace)

    p_sweep = sub.add_parser("sweep", help="trace once, re-threshold offline per alpha")
    _add_policy_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--alphas", default="", help="comma-separated alpha grid, e.g. 0.1,0.2,...")

    p_report = sub.add_parser("report", help="aggregate a trace into CSV/JSON/bitmaps")
    p_report.add_argument("--trace", required=True, help="trace.jsonl path")
    p_report.add_argument("--out", default=".", help="output directory")

    p_cmp = sub.add_parser("compare", help="skip-vs-full scores on a synthetic suite")
    _add_policy_flags(p_cmp)
    _add_run_flags(p_cmp, with_prompt=False)
    p_cmp.set_defaults(mode="skip-identity")  # the skipped column skips unless told otherwise
    return parser


def _policy_from_args(args, parser, skip_mode: str | None = None) -> HaltPolicy:
    if not 0.0 < args.alpha <= 1.0:
        parser.error(f"--alpha must be in (0, 1], got {args.alpha}")
    if args.min_layers < 1:
        parser.error(f"--min-layers must be >= 1, got {args.min_layers}")
    return HaltPolicy(
        granularity=NormGranularity(args.granularity),
        alpha=args.alpha,
        skip_mode=SkipMode(skip_mode if skip_mode is not None else args.mode),
        min_layers=args.min_layers,
    )


def _model_from_args(args, parser) -> ToyTransformer:
    if bool(args.seed_model) == bool(args.weights):
        parser.error("exactly one of --seed-model or --weights is required")
    if args.weights:
        return load_weights(args.weights)
    try:
        config = _parse_seed_model(args.seed_model, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    return build_model(config)


def _jobs_from_args(args, parser) -> tuple[list[SuiteCase], int]:
    """The run's sequences and its max_new (capped by the suite's answer length)."""
    if args.max_new < 0:
        parser.error(f"--max-new must be >= 0, got {args.max_new}")
    sources = [s for s in (getattr(args, "prompt", None), getattr(args, "prompt_file", None), args.suite) if s]
    if len(sources) != 1:
        parser.error("exactly one of --prompt, --prompt-file, or --suite is required")
    if args.suite:
        cases = build_suite(args.suite, args.seed)
        max_new = min([args.max_new] + [len(c.expected_ids) for c in cases])
        return cases, max_new
    if getattr(args, "prompt", None):
        prompts = [args.prompt]
    else:
        prompts = [ln for ln in Path(args.prompt_file).read_text(encoding="utf-8").splitlines() if ln.strip()]
        if not prompts:
            parser.error(f"--prompt-file {args.prompt_file} contains no prompts")
    return [SuiteCase(f"seq{i:03d}", tuple(p.encode("utf-8"))) for i, p in enumerate(prompts)], args.max_new


def _summarize(records) -> tuple[dict[str, int], dict[str, float | None]]:
    tokens = {p: sum(1 for r in records if r.phase == p) for p in (PHASE_PP, PHASE_RG)}
    usage: dict[str, float | None] = {PHASE_PP: None, PHASE_RG: None}
    if records:
        report = usage_report(records)
        usage.update(report.average_usage)
    return tokens, usage


def cmd_trace(args, parser) -> int:
    policy = _policy_from_args(args, parser)
    model = _model_from_args(args, parser)
    jobs, max_new = _jobs_from_args(args, parser)
    results = _run_jobs(model, jobs, policy, max_new)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    trace_path.unlink(missing_ok=True)
    for job, (records, _) in zip(jobs, results):
        write_trace(records, trace_path)
        tokens, usage = _summarize(records)
        print(f"{job.sequence_id}: pp_tokens={tokens[PHASE_PP]} rg_tokens={tokens[PHASE_RG]} "
              f"pp_usage={_fmt_usage(usage[PHASE_PP])} rg_usage={_fmt_usage(usage[PHASE_RG])}")
    return 0


def _parse_alphas(text: str, parser) -> list[float]:
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(float(part))
        except ValueError:
            parser.error(f"bad alpha value {part!r} in --alphas")
    if not vals:
        parser.error("--alphas must list at least one value")
    for a in vals:
        if not 0.0 < a <= 1.0:
            parser.error(f"--alphas entries must be in (0, 1], got {a}")
    return vals


def cmd_sweep(args, parser) -> int:
    """Detect-mode baseline run, then offline re-thresholding per alpha.

    Usage columns come from the recorded progress (offline replay), so
    they are monotone in alpha by construction. For suites, the score
    column re-runs generation with skipping applied at each alpha.
    """
    alphas = _parse_alphas(args.alphas, parser)
    base_policy = _policy_from_args(args, parser, skip_mode="detect")
    model = _model_from_args(args, parser)
    jobs, max_new = _jobs_from_args(args, parser)
    results = _run_jobs(model, jobs, base_policy, max_new)
    all_records = [r for records, _ in results for r in records]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    trace_path.unlink(missing_ok=True)
    write_trace(all_records, trace_path)

    score_mode = args.mode if args.mode in ("mask-zero", "skip-identity", "halt-frozen") else "skip-identity"
    sweep = alpha_sweep(all_records, alphas, args.min_layers)
    rows = []
    for alpha, report in sweep:
        score = ""
        if args.suite:
            policy = dataclasses.replace(_policy_from_args(args, parser, skip_mode=score_mode), alpha=alpha)
            runs = _run_jobs(model, jobs, policy, max_new)
            scores = [score_case(gen_ids, job.expected_ids) for job, (_, gen_ids) in zip(jobs, runs)]
            score = f"{sum(scores) / len(scores):.6f}"
        pp = report.average_usage.get(PHASE_PP)
        rg = report.average_usage.get(PHASE_RG)
        rows.append((alpha, pp, rg, score))

    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,pp_usage,rg_usage,task_score\n")
        for alpha, pp, rg, score in rows:
            pp_s = "" if pp is None else f"{pp:.9g}"
            rg_s = "" if rg is None else f"{rg:.9g}"
            fh.write(f"{alpha:.9g},{pp_s},{rg_s},{score}\n")
    print(f"wrote {sweep_path} ({len(rows)} alphas)")
    return 0


def cmd_report(args, parser) -> int:
    records = read_trace(args.trace)
    if not records:
        print(f"error: {args.trace} contains no records", file=sys.stderr)
        return 1
    groups: dict[tuple[str, str], list] = {}
    tokens: set[tuple[str, int]] = set()
    for r in records:
        if (r.sequence_id, r.token_index) in tokens:
            raise ValueError(f"{args.trace}: sequence {r.sequence_id!r} has more than one record "
                             f"for token_index {r.token_index}")
        tokens.add((r.sequence_id, r.token_index))
        groups.setdefault((r.sequence_id, r.phase), []).append(r)
    for seq_id, _ in groups:
        if "/" in seq_id or "\0" in seq_id:
            raise ValueError(f"sequence_id {seq_id!r} cannot name a bitmap file: it holds '/' or NUL")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    usage = usage_report(records)
    profile = norm_profile(records)
    written = list(export_reports(usage, profile, out_dir))
    # PP sorts before RG, so each sequence's bitmaps come in phase order
    for (seq_id, phase), group in sorted(groups.items()):
        pgm_path = out_dir / f"bitmap_{seq_id}_{phase.lower()}.pgm"
        pgm_path.write_text(render_bitmap(group), encoding="utf-8")
        written.append(pgm_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_compare(args, parser) -> int:
    if not args.suite:
        parser.error("compare requires --suite")
    skip_mode = args.mode if args.mode != "off" else "skip-identity"
    model = _model_from_args(args, parser)
    jobs, max_new = _jobs_from_args(args, parser)

    columns = {}
    for label, mode in (("not_skipped", "off"), ("skipped", skip_mode)):
        policy = _policy_from_args(args, parser, skip_mode=mode)
        results = _run_jobs(model, jobs, policy, max_new)
        records = [r for recs, _ in results for r in recs]
        scores = [score_case(gen_ids, job.expected_ids) for job, (_, gen_ids) in zip(jobs, results)]
        _, usage = _summarize(records)
        columns[label] = {
            "score": sum(scores) / len(scores),
            "pp_usage": usage[PHASE_PP],
            "rg_usage": usage[PHASE_RG],
        }

    source = f"seed:{args.seed_model}" if args.seed_model else args.weights
    print(f"suite={args.suite} model={source} layers={model.layer_count} "
          f"alpha={args.alpha} skip={skip_mode}")
    print(f"{'metric':<12} {'not_skipped':>12} {'skipped':>12}")
    for metric in ("score", "pp_usage", "rg_usage"):
        a = columns["not_skipped"][metric]
        b = columns["skipped"][metric]
        print(f"{metric:<12} {_fmt_usage(a):>12} {_fmt_usage(b):>12}")
    return 0


_COMMANDS = {"trace": cmd_trace, "sweep": cmd_sweep, "report": cmd_report, "compare": cmd_compare}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
