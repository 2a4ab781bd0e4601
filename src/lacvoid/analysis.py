"""Aggregate trace records into usage and norm statistics.

Every aggregator takes one TraceColumns block and reads its columns as
arrays; an empty block gives a report with no phases.

Usage is a per-token micro-average: the mean over tokens of (active
layers / layer count). Per-layer frequencies are the fraction of
tokens for which the layer was active, split by phase, undivided.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .halting import SkipMode, offline_void_mask
from .trace import PHASES, TraceColumns, _require_block

__all__ = [
    "LayerUsageReport",
    "NormProfile",
    "usage_report",
    "norm_profile",
    "alpha_sweep",
    "export_reports",
    "CSV_HEADER",
]

CSV_HEADER = ["layer_index", "pp_frequency", "rg_frequency",
              "pp_mean_norm", "rg_mean_norm", "pp_mean_delta", "rg_mean_delta"]
REPORT_STEM = "report"  # export_reports' file stem


@dataclass
class LayerUsageReport:
    """Per-layer activation statistics split by phase.

    Dictionaries are keyed by phase name and contain only phases that
    actually had tokens.
    """

    layer_count: int
    frequencies: dict[str, np.ndarray]
    average_usage: dict[str, float]
    token_counts: dict[str, int]
    alpha: float | None


@dataclass
class NormProfile:
    """Per-layer mean post-layer norm and mean progress, split by phase."""

    layer_count: int
    mean_norms: dict[str, np.ndarray]
    mean_deltas: dict[str, np.ndarray]


def _uniform_or_none(values) -> object | None:
    vals = set(values)
    return vals.pop() if len(vals) == 1 else None


def _by_phase(matrix: np.ndarray, phases: np.ndarray):
    """(phase, rows of matrix) for each phase that has rows, in PHASES order."""
    for phase in PHASES:
        rows = phases == phase
        if rows.any():
            yield phase, matrix[rows]


def _usage_from_columns(flags: np.ndarray, phases: np.ndarray, alpha) -> LayerUsageReport:
    """Usage report from an (N, T) activation flag matrix and its (N,) phase column."""
    t_total = flags.shape[1]
    frequencies: dict[str, np.ndarray] = {}
    average: dict[str, float] = {}
    counts: dict[str, int] = {}
    for phase, sub in _by_phase(flags.astype(np.float64), phases):
        frequencies[phase] = sub.mean(axis=0)
        average[phase] = float(sub.sum(axis=1).mean() / t_total)
        counts[phase] = len(sub)
    return LayerUsageReport(
        layer_count=t_total,
        frequencies=frequencies,
        average_usage=average,
        token_counts=counts,
        alpha=alpha,
    )


def usage_report(trace: TraceColumns) -> LayerUsageReport:
    """Aggregate activation flags. alpha is the records' own alpha when
    that is uniform, else None."""
    _require_block(trace, "usage_report")
    return _usage_from_columns(trace.layer_flags, trace.phase, _uniform_or_none(trace.alpha.tolist()))


def norm_profile(trace: TraceColumns) -> NormProfile:
    """Arithmetic means of per-layer norms and progress, by phase."""
    _require_block(trace, "norm_profile")
    return NormProfile(layer_count=trace.layer_count,
                       mean_norms={p: sub.mean(axis=0) for p, sub in _by_phase(trace.layer_norms, trace.phase)},
                       mean_deltas={p: sub.mean(axis=0) for p, sub in _by_phase(trace.layer_deltas, trace.phase)})


def alpha_sweep(trace: TraceColumns, alphas, min_layers: int = 1) -> list[tuple[float, LayerUsageReport]]:
    """Re-threshold recorded progress at each alpha, without re-running.

    Records must carry per-layer deltas from a run that did not alter
    the stream (off or detect mode), otherwise the replayed decisions
    do not correspond to any single forward pass: ValueError names any
    other skip mode. The deltas are replayed per token, so the sweep
    matches a live run at token granularity only. Each alpha is one
    offline_void_mask call over the (N, T) delta matrix.
    """
    _require_block(trace, "alpha_sweep")
    altered = set(trace.skip_mode.tolist()) - {SkipMode.OFF.value, SkipMode.DETECT.value}
    if altered:
        raise ValueError(f"alpha_sweep replays traces of off or detect runs, got skip_mode {sorted(altered)}")
    return [(float(alpha), _usage_from_columns(~offline_void_mask(trace.layer_deltas, alpha, min_layers),
                                               trace.phase, float(alpha)))
            for alpha in alphas]


def _fmt(x: float) -> str:
    return "%.9g" % float(x)


def export_reports(trace: TraceColumns, out_dir) -> tuple[Path, Path]:
    """Write the block's combined per-layer CSV and JSON summary.

    The CSV has one row per layer (1-based indices) of usage_report's
    frequencies and norm_profile's means; columns for a phase with no
    tokens are left empty. The summary's alpha and formula are the
    records' own when uniform, else None. Returns (csv_path, json_path).
    """
    _require_block(trace, "export_reports")
    usage, profile = usage_report(trace), norm_profile(trace)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{REPORT_STEM}.csv"
    json_path = out_dir / f"{REPORT_STEM}_summary.json"

    columns = [stat.get(phase) for stat in (usage.frequencies, profile.mean_norms, profile.mean_deltas)
               for phase in PHASES]  # CSV_HEADER's order
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for layer in range(usage.layer_count):
            writer.writerow([layer + 1] + ["" if c is None else _fmt(c[layer]) for c in columns])

    summary = {
        "layer_count": usage.layer_count,
        "alpha": usage.alpha,
        "formula": _uniform_or_none(trace.formula.tolist()),
        "token_counts": usage.token_counts,
        "average_usage": {p: usage.average_usage[p] for p in usage.average_usage},
        "average_usage_2dp": {p: round(usage.average_usage[p], 2) for p in usage.average_usage},
        "normalization": "per-layer frequencies divided by the report's maximum layer frequency",
    }
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return csv_path, json_path
