"""Checks of every output the workload's CLI commands write.

For the default seed (0) each output's sha256 must equal the digest
pinned in `digests.json`, taken from the seed code's outputs. For every
seed the outputs must also satisfy invariants that hold whatever the
model computes. Each problem is attributed to the command that wrote
the file, so a bad output counts as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np

from workloads import Workload

DEFAULT_SEED = 0
PINNED = Path(__file__).with_name("digests.json")
FORWARD, REPORT = 0, 1  # index of the command in an iteration
_SEQ_LINE = re.compile(r"^(seq\d+): pp_tokens=(\d+) rg_tokens=(\d+) ")
_CSV_HEADER = ["layer_index", "pp_frequency", "rg_frequency",
               "pp_mean_norm", "rg_mean_norm", "pp_mean_delta", "rg_mean_delta"]


def written_by(filename: str) -> int:
    return FORWARD if filename in ("trace.jsonl", "sweep.csv") else REPORT


def digest_dir(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the commands wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def compare_digests(got: dict[str, str], want: dict[str, str]) -> list[tuple[int, str]]:
    problems = []
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            what = "missing" if name not in got else "unexpected" if name not in want else "digest differs"
            problems.append((written_by(name), f"{name}: {what}"))
    return problems


def pinned_digests(workload: str) -> dict[str, str]:
    return json.loads(PINNED.read_text(encoding="utf-8"))[workload]


def check_outputs(workload: Workload, seed: int, prompts: list[str], out_dir: Path,
                  forward_stdout: str) -> list[tuple[int, str]]:
    """All problems in one iteration's outputs, as (command index, message)."""
    problems: list[tuple[int, str]] = []
    if seed == DEFAULT_SEED:
        problems += compare_digests(digest_dir(out_dir), pinned_digests(workload.name))
    try:
        records = _check_trace(workload, prompts, out_dir, forward_stdout)
    except _MALFORMED as exc:
        return problems + [(FORWARD, f"trace.jsonl: {exc}")]
    if workload.alphas:
        try:
            problems += [(FORWARD, f"sweep.csv: {m}") for m in _check_sweep(workload, out_dir / "sweep.csv")]
        except _MALFORMED as exc:
            problems.append((FORWARD, f"sweep.csv: {exc!r}"))
    if workload.report:
        try:
            problems += [(REPORT, m) for m in _check_report(records, out_dir)]
        except _MALFORMED as exc:
            problems.append((REPORT, f"report: {exc!r}"))
    return problems


# What reading a damaged or missing output can raise.
_MALFORMED = (OSError, ValueError, IndexError, KeyError, AttributeError, TypeError)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _check_trace(workload: Workload, prompts: list[str], out_dir: Path, forward_stdout: str):
    from lacvoid.trace import read_trace, record_to_line

    path = out_dir / "trace.jsonl"
    records = read_trace(path)
    text = path.read_text(encoding="utf-8")
    _require(text == "".join(record_to_line(r) + "\n" for r in records), "read_trace does not round-trip")

    by_seq: dict[str, list] = {}
    for r in records:
        by_seq.setdefault(r.sequence_id, []).append(r)
    expected_ids = [f"seq{i:03d}" for i in range(len(prompts))]
    _require(list(by_seq) == expected_ids, f"sequence ids {list(by_seq)[:3]}... not {expected_ids[:3]}...")
    printed = {m.group(1): (int(m.group(2)), int(m.group(3)))
               for m in map(_SEQ_LINE.match, forward_stdout.splitlines()) if m}
    for seq_id, prompt in zip(expected_ids, prompts):
        recs = by_seq[seq_id]
        pp = [r for r in recs if r.phase == "PP"]
        rg = [r for r in recs if r.phase == "RG"]
        _require(pp + rg == recs, f"{seq_id}: RG records before PP records")
        _require([r.token_id for r in pp] == list(prompt.encode("ascii")), f"{seq_id}: PP tokens are not the prompt")
        _require([r.token_index for r in recs] == list(range(len(recs))), f"{seq_id}: token indices not contiguous")
        _require(len(rg) <= workload.max_new, f"{seq_id}: {len(rg)} RG tokens > max_new {workload.max_new}")
        if not workload.alphas:  # trace prints the token counts of each sequence
            _require(printed.get(seq_id) == (len(pp), len(rg)),
                     f"{seq_id}: {len(pp)}+{len(rg)} records but the command printed {printed.get(seq_id)}")
    _require(len({r.layer_count for r in records}) == 1, "records mix layer counts")
    return records


def _check_sweep(workload: Workload, path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["alpha", "pp_usage", "rg_usage", "task_score"]]:
        return [f"bad header {rows[:1]}"]
    body = rows[1:]
    if [float(r[0]) for r in body] != list(workload.alphas):
        return [f"alphas {[r[0] for r in body]} are not {list(workload.alphas)}"]
    problems = []
    for col, label in ((1, "pp_usage"), (2, "rg_usage")):
        usage = [float(r[col]) for r in body]
        if any(not 0.0 <= u <= 1.0 for u in usage) or any(b > a for a, b in zip(usage, usage[1:])):
            problems.append(f"{label} {usage} is not in [0, 1] and non-increasing in alpha")
    return problems


def _render_pgm(recs, layer_count: int) -> str:
    recs = sorted(recs, key=lambda r: r.token_index)
    rows = [" ".join("255" if r.layer_flags[t] else "0" for r in recs) for t in range(layer_count - 1, -1, -1)]
    return f"P2\n{len(recs)} {layer_count}\n255\n" + "\n".join(rows) + "\n"


def _report_rows(records, layer_count: int) -> list[list[str]]:
    """report.csv body: per-layer means of flags, norms and deltas by phase."""
    columns = []
    for field in ("layer_flags", "layer_norms", "layer_deltas"):
        for phase in ("PP", "RG"):
            values = [getattr(r, field) for r in records if r.phase == phase]
            means = np.array(values, dtype=np.float64).mean(axis=0) if values else None
            columns.append(["" if means is None else "%.9g" % means[t] for t in range(layer_count)])
    return [[str(t + 1)] + [col[t] for col in columns] for t in range(layer_count)]


def _check_report(records, out_dir: Path) -> list[str]:
    layer_count = records[0].layer_count
    problems = []
    with open(out_dir / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows != [_CSV_HEADER] + _report_rows(records, layer_count):
        problems.append(f"report.csv: rows disagree with the {layer_count}-layer means of the trace")

    summary = json.loads((out_dir / "report_summary.json").read_text(encoding="utf-8"))
    counts = {p: n for p in ("PP", "RG") if (n := sum(r.phase == p for r in records))}
    if summary.get("layer_count") != layer_count or summary.get("token_counts") != counts:
        problems.append("report_summary.json: layer_count or token_counts disagree with the trace")

    expected = {}
    for r in records:
        expected.setdefault(f"bitmap_{r.sequence_id}_{r.phase.lower()}.pgm", []).append(r)
    present = {p.name for p in out_dir.glob("bitmap_*.pgm")}
    for name in sorted(present ^ set(expected)):
        problems.append(f"{name}: {'missing' if name in expected else 'unexpected'} bitmap")
    for name in sorted(present & set(expected)):
        if (out_dir / name).read_text(encoding="utf-8") != _render_pgm(expected[name], layer_count):
            problems.append(f"{name}: pixels disagree with the trace flags")
    return problems
