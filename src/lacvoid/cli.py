"""Command-line front-end: trace runs, alpha sweeps, reports, comparisons.

Exit codes: 0 success, 1 runtime error (a closed stdout too, silently),
2 usage error. Sequences run in groups, in input order, whose KV caches
fit 8 MiB. In a group, prompt processing (PP) forwards equal-length
prompts as batches, each one run_prompt call on a thread pool of one
worker per CPU, whose BLAS calls overlap; each length's prompts split
into as few batches as hold no more tokens than one max_seq prompt each.
Response generation (RG) then decodes the group's rows as one batch on
the main thread, which takes results in input order, so runs are
byte-deterministic. `trace` writes each group's
records as soon as the group finishes, so it holds one group's records at
a time. `trace` and `sweep` write trace.jsonl all or nothing, through
_trace_file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import _cell, alpha_sweep, export_reports, usage_report
from .halting import HaltPolicy, SkipMode
from .model import ModelConfig, ToyTransformer, _prompt_ids, build_model, generate, load_weights, run_prompt
from .suites import SUITE_NAMES, SuiteCase, build_suite, score_case
from .tensors import DTYPE, NormGranularity
from .trace import PHASE_PP, PHASE_RG, TraceColumns, read_trace, render_bitmap, write_trace


def _fmt_usage(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


# KV cache bytes of one group of sequences; a group still takes one row per pool worker.
# A group's rows decode as one batch, so a wider group takes fewer RG steps.
_GROUP_KV_BYTES = 8 << 20


def _groups(model: ToyTransformer, jobs: list[SuiteCase], max_new: int, workers: int):
    """Runs of consecutive jobs whose KV cache fits _GROUP_KV_BYTES,
    each of at least `workers` jobs but the last, so RG decodes at least
    `workers` rows at a time even when one job's cache needs more than
    _GROUP_KV_BYTES / workers. Yields (jobs, cache capacity).

    The budget also bounds `trace`'s record memory, since it writes each
    group's records before the next group starts."""
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


def _pp_batches(lengths: list[int], max_seq: int):
    """Split rows, given by their checked prompt lengths in sorted order,
    into PP batches: each run of rows of one length n into the fewest
    contiguous batches of near-equal size that hold at most max_seq // n
    rows each, so no batch holds more tokens than one max_seq prompt.
    Yields (start, stop) row ranges."""
    start = 0
    for n, run in itertools.groupby(lengths):
        size = len(list(run))
        parts = -(-size // (max_seq // n))
        for k in range(parts):
            yield start + k * size // parts, start + (k + 1) * size // parts
        start += size


def _run_group(model: ToyTransformer, group: list[SuiteCase], capacity: int, policy: HaltPolicy,
               max_new: int, pool: ThreadPoolExecutor) -> list[TraceColumns]:
    """PP of equal-length prompts in batches on `pool`, then RG of the group as one batch.

    Returns each job's records, PP then RG, in input order. Each prompt
    is checked before it is batched, so a prompt that run_prompt refuses
    fails alone. The group finishes even when a job fails; then the
    ValueError of its first failing job in input order is raised.
    """
    errors: dict[int, ValueError] = {}  # job index -> the error that stopped it
    for i, job in enumerate(group):
        try:
            _prompt_ids(job.prompt_ids, model.config)
        except ValueError as exc:
            errors[i] = exc
    # rows in prompt-length order, so equal-length prompts, and rows decoding at one position, are adjacent
    by_length = sorted((i for i in range(len(group)) if i not in errors), key=lambda i: len(group[i].prompt_ids))
    lengths = [len(group[i].prompt_ids) for i in by_length]
    cache = model.new_cache(len(by_length), capacity)

    def prompts(rows: tuple[int, int]):
        batch = by_length[rows[0]:rows[1]]
        return run_prompt(model, [group[i].prompt_ids for i in batch], policy,
                          [group[i].sequence_id for i in batch], cache=cache, rows=list(range(*rows)))

    batches = list(_pp_batches(lengths, model.config.max_seq))
    pp = {}  # job index -> (state, PP trace)
    for (start, stop), (states, trace) in zip(batches, pool.map(prompts, batches)):
        n = lengths[start]
        for b, i in enumerate(by_length[start:stop]):
            pp[i] = states[b], trace[b * n:(b + 1) * n]
    states = [state for state, _ in pp.values()]
    rg = dict(zip(pp, generate(states, model, policy, max_new)[1]))  # job index -> RG trace
    errors.update((i, state.error) for i, state in zip(pp, states) if state.error is not None)
    if errors:
        raise errors[min(errors)]
    return [pp[i][1] + rg[i] for i in range(len(group))]


def _run_jobs(model: ToyTransformer, jobs: list[SuiteCase], policy: HaltPolicy, max_new: int):
    """Run each sequence (PP then RG); yields each job's records in input
    order, one group at a time. Raises as _run_group does, before any of
    the failing group's jobs is yielded."""
    workers = min(len(jobs), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for group, capacity in _groups(model, jobs, max_new, workers):
            yield from _run_group(model, group, capacity, policy, max_new, pool)


def _parse_seed_model(text: str, seed: int) -> ModelConfig:
    """Compact model string: comma-separated d<depth>,h<heads>,l<layers>
    with optional f<ffn>, m<max_seq>, each at most once. Example: d16,h2,l4."""
    fields = {"d": None, "h": None, "l": None, "f": None, "m": None}
    for part in text.split(","):
        part = part.strip()
        if not part or part[0] not in fields or not (part[1:].isascii() and part[1:].isdigit()):
            raise ValueError(f"bad --seed-model component {part!r}")
        if fields[part[0]] is not None:
            raise ValueError(f"repeated --seed-model component {part[0]!r} in {text!r}")
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
    p.add_argument("--granularity", choices=[g.value for g in NormGranularity], default="token",
                   help="halting unit: each prompt, or each token")
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
    p.add_argument("--seed", type=int, default=0, help="model/suite seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lacvoid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="run PP then RG and write trace.jsonl")
    _add_policy_flags(p_trace)
    _add_run_flags(p_trace)
    p_trace.add_argument("--out", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", help="trace once, re-threshold offline per alpha")
    _add_policy_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--alphas", default="", help="comma-separated alpha grid, e.g. 0.1,0.2,...")
    p_sweep.set_defaults(mode="skip-identity")  # the mode of the --suite score runs; the trace is detect's

    p_report = sub.add_parser("report", help="aggregate a trace into CSV/JSON/bitmaps")
    p_report.add_argument("--trace", required=True, help="trace.jsonl path")
    p_report.add_argument("--out", default=".", help="output directory")

    p_cmp = sub.add_parser("compare", help="skip-vs-full scores on a synthetic suite")
    _add_policy_flags(p_cmp)
    _add_run_flags(p_cmp, with_prompt=False)
    p_cmp.set_defaults(mode="skip-identity")  # the mode of the skipped column
    for p in sub.choices.values():
        p.set_defaults(parser=p)  # so a usage error raised inside a command names that command
    return parser


def _policy_from_args(args, parser) -> HaltPolicy:
    try:
        return HaltPolicy(
            granularity=NormGranularity(args.granularity),
            alpha=args.alpha,
            skip_mode=SkipMode(args.mode),
            min_layers=args.min_layers,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _model_from_args(args, parser) -> ToyTransformer:
    """The built or loaded model; a usage error when --min-layers exceeds its layer count."""
    if bool(args.seed_model) == bool(args.weights):
        parser.error("exactly one of --seed-model or --weights is required")
    if args.weights:
        model = load_weights(args.weights)
    else:
        try:
            config = _parse_seed_model(args.seed_model, args.seed)
        except ValueError as exc:
            parser.error(str(exc))
        model = build_model(config)
    if args.min_layers > model.layer_count:
        parser.error(f"--min-layers {args.min_layers} exceeds the model's layer count {model.layer_count}")
    return model


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
        try:
            text = Path(args.prompt_file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"--prompt-file {args.prompt_file}: not valid UTF-8: {exc.reason} "
                             f"at byte {exc.start}") from exc
        prompts = [ln for ln in text.split("\n") if ln.strip()]
        if not prompts:
            parser.error(f"--prompt-file {args.prompt_file} contains no prompts")
    return [SuiteCase(f"seq{i:03d}", tuple(p.encode("utf-8"))) for i, p in enumerate(prompts)], args.max_new


def _score(model: ToyTransformer, jobs: list[SuiteCase], policy: HaltPolicy, max_new: int) -> tuple[float, TraceColumns]:
    """The mean score of the suite jobs' generations under policy, read from their
    RG records' token ids, and the run's records; raises as _run_jobs does."""
    blocks = list(_run_jobs(model, jobs, policy, max_new))
    scores = [score_case(block.token_id[block.phase == PHASE_RG], job.expected_ids)
              for job, block in zip(jobs, blocks, strict=True)]
    return sum(scores) / len(scores), TraceColumns.concat(blocks)


def _summarize(trace: TraceColumns) -> tuple[dict[str, int], dict[str, float | None]]:
    """Tokens and average usage per phase; a phase without tokens has usage None."""
    report = usage_report(trace)
    phases = (PHASE_PP, PHASE_RG)
    return {p: report.token_counts.get(p, 0) for p in phases}, {p: report.average_usage.get(p) for p in phases}


@contextlib.contextmanager
def _trace_file(out_dir: Path):
    """The one writer of trace.jsonl: makes out_dir and yields a text file
    open on trace.jsonl.partial there, which replaces trace.jsonl when the
    body succeeds and is deleted when it raises, so a failed run leaves
    an earlier trace.jsonl as it was."""
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / "trace.jsonl.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(partial, out_dir / "trace.jsonl")
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def cmd_trace(args, parser) -> int:
    """Write each group's records to trace.jsonl in --out as the group
    finishes. Summary lines are printed once the run has succeeded."""
    policy = _policy_from_args(args, parser)
    model = _model_from_args(args, parser)
    jobs, max_new = _jobs_from_args(args, parser)

    summaries = []
    with _trace_file(Path(args.out)) as fh:
        for trace, job in zip(_run_jobs(model, jobs, policy, max_new), jobs, strict=True):
            write_trace(trace, fh)
            tokens, usage = _summarize(trace)
            summaries.append(f"{job.sequence_id}: pp_tokens={tokens[PHASE_PP]} rg_tokens={tokens[PHASE_RG]} "
                             f"pp_usage={_fmt_usage(usage[PHASE_PP])} rg_usage={_fmt_usage(usage[PHASE_RG])}")
    for line in summaries:
        print(line)
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
    column re-runs generation in --mode at each alpha. Nothing is written
    until the baseline and every score run have succeeded.
    """
    alphas = _parse_alphas(args.alphas, parser)
    if args.granularity != NormGranularity.TOKEN.value:
        parser.error(f"sweep needs --granularity token, got {args.granularity}: "
                     "the replay re-thresholds per-token deltas")
    policy = _policy_from_args(args, parser)
    model = _model_from_args(args, parser)
    jobs, max_new = _jobs_from_args(args, parser)
    detect = dataclasses.replace(policy, skip_mode=SkipMode.DETECT)
    trace = TraceColumns.concat(_run_jobs(model, jobs, detect, max_new))

    lines = ["alpha,pp_usage,rg_usage,task_score\n"]
    for alpha, report in alpha_sweep(trace, alphas, args.min_layers):
        score = ""
        if args.suite:
            score = f"{_score(model, jobs, dataclasses.replace(policy, alpha=alpha), max_new)[0]:.6f}"
        usage = report.average_usage
        lines.append(f"{_cell(alpha)},{_cell(usage.get(PHASE_PP))},{_cell(usage.get(PHASE_RG))},{score}\n")

    out_dir = Path(args.out)
    with _trace_file(out_dir) as fh:
        write_trace(trace, fh)
    sweep_path = out_dir / "sweep.csv"
    sweep_path.write_text("".join(lines), encoding="utf-8", newline="\n")
    print(f"wrote {sweep_path} ({len(alphas)} alphas)")
    return 0


def _bitmap_name(seq_id: str, phase: str) -> str:
    return f"bitmap_{seq_id}_{phase.lower()}.pgm"


def cmd_report(args, parser) -> int:
    trace = read_trace(args.trace)
    if not trace:
        print(f"error: {args.trace} contains no records", file=sys.stderr)
        return 1
    groups: dict[tuple[str, str], list[int]] = {}  # (sequence, phase) -> record indices
    tokens: set[tuple[str, int]] = set()
    columns = trace.sequence_id.tolist(), trace.token_index.tolist(), trace.phase.tolist()
    for i, (seq_id, token_index, phase) in enumerate(zip(*columns)):
        if (seq_id, token_index) in tokens:
            raise ValueError(f"{args.trace}: sequence {seq_id!r} has more than one record "
                             f"for token_index {token_index}")
        tokens.add((seq_id, token_index))
        groups.setdefault((seq_id, phase), []).append(i)
    for seq_id, phase in groups:
        if "/" in seq_id or "\0" in seq_id:
            raise ValueError(f"sequence_id {seq_id!r} cannot name a bitmap file: it holds '/' or NUL")
        if len(os.fsencode(_bitmap_name(seq_id, phase))) > 255:  # NAME_MAX of Linux's common file systems
            raise ValueError(f"sequence_id {seq_id!r} cannot name a bitmap file: its name is over 255 bytes")
    out_dir = Path(args.out)
    written = list(export_reports(trace, out_dir))  # makes out_dir
    # PP sorts before RG, so each sequence's bitmaps come in phase order
    for (seq_id, phase), rows in sorted(groups.items()):
        pgm_path = out_dir / _bitmap_name(seq_id, phase)
        pgm_path.write_text(render_bitmap(trace[rows]), encoding="utf-8")
        written.append(pgm_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_compare(args, parser) -> int:
    if not args.suite:
        parser.error("compare requires --suite")
    skipped = _policy_from_args(args, parser)
    model = _model_from_args(args, parser)
    jobs, max_new = _jobs_from_args(args, parser)

    columns = []  # (score, pp_usage, rg_usage) of not_skipped, then of skipped
    for policy in (dataclasses.replace(skipped, skip_mode=SkipMode.OFF), skipped):
        score, trace = _score(model, jobs, policy, max_new)
        _, usage = _summarize(trace)
        columns.append((score, usage[PHASE_PP], usage[PHASE_RG]))

    source = f"seed:{args.seed_model}" if args.seed_model else args.weights
    print(f"suite={args.suite} model={source} layers={model.layer_count} "
          f"alpha={args.alpha} skip={args.mode}")
    print(f"{'metric':<12} {'not_skipped':>12} {'skipped':>12}")
    for metric, a, b in zip(("score", "pp_usage", "rg_usage"), *columns):
        print(f"{metric:<12} {_fmt_usage(a):>12} {_fmt_usage(b):>12}")
    return 0


_COMMANDS = {"trace": cmd_trace, "sweep": cmd_sweep, "report": cmd_report, "compare": cmd_compare}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args, args.parser)
        sys.stdout.flush()  # here, so a closed stdout is met while its error can still be handled
        return code
    except SystemExit as exc:  # --help, or parser.error in parsing or inside a command
        return int(exc.code) if exc.code is not None else 0
    except BrokenPipeError:  # stdout's reader has gone: exit 1 quietly, with the exit's flush sent nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
