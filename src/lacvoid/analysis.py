"""Aggregate trace records into usage and norm statistics.

Usage is a per-token micro-average: the mean over tokens of (active
layers / layer count). Per-layer frequencies are the fraction of
tokens for which the layer was active, split by phase; the normalized
view divides every frequency by the single largest layer frequency in
the report, so the report's maximum is exactly 1.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .halting import offline_void_mask
from .tensors import DTYPE
from .trace import PHASES, TraceRecord, record_array

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


@dataclass
class LayerUsageReport:
    """Per-layer activation statistics split by phase.

    Dictionaries are keyed by phase name and contain only phases that
    actually had tokens.
    """

    layer_count: int
    frequencies: dict[str, np.ndarray]
    normalized: dict[str, np.ndarray]
    average_usage: dict[str, float]
    token_counts: dict[str, int]
    alpha: float | None
    formula: str | None


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


def _usage_from_columns(flags: np.ndarray, phases: np.ndarray, alpha, formula) -> LayerUsageReport:
    """Usage report from an (N, T) activation flag matrix and its (N,) phase column."""
    t_total = flags.shape[1]
    frequencies: dict[str, np.ndarray] = {}
    average: dict[str, float] = {}
    counts: dict[str, int] = {}
    for phase, sub in _by_phase(flags.astype(np.float64), phases):
        frequencies[phase] = sub.mean(axis=0)
        average[phase] = float(sub.sum(axis=1).mean() / t_total)
        counts[phase] = len(sub)
    peak = max((f.max() for f in frequencies.values()), default=0.0)
    normalized = {p: (f / peak if peak > 0 else np.zeros_like(f)) for p, f in frequencies.items()}
    return LayerUsageReport(
        layer_count=t_total,
        frequencies=frequencies,
        normalized=normalized,
        average_usage=average,
        token_counts=counts,
        alpha=alpha,
        formula=formula,
    )


def usage_report(records: list[TraceRecord]) -> LayerUsageReport:
    """Aggregate activation flags. alpha/formula are the records' own
    settings when those are uniform, else None."""
    return _usage_from_columns(record_array(records, "layer_flags", bool), record_array(records, "phase"),
                               _uniform_or_none(r.alpha for r in records),
                               _uniform_or_none(r.formula for r in records))


def norm_profile(records: list[TraceRecord]) -> NormProfile:
    """Arithmetic means of per-layer norms and progress, by phase."""
    phases = record_array(records, "phase")
    norms = record_array(records, "layer_norms", np.float64)
    deltas = record_array(records, "layer_deltas", np.float64)
    return NormProfile(layer_count=norms.shape[1],
                       mean_norms={p: sub.mean(axis=0) for p, sub in _by_phase(norms, phases)},
                       mean_deltas={p: sub.mean(axis=0) for p, sub in _by_phase(deltas, phases)})


def alpha_sweep(records: list[TraceRecord], alphas, min_layers: int = 1) -> list[tuple[float, LayerUsageReport]]:
    """Re-threshold recorded progress at each alpha, without re-running.

    Records must carry per-layer deltas from a run that did not alter
    the stream (off or detect mode), otherwise the replayed decisions
    do not correspond to any single forward pass. The (N, T) delta
    matrix is built once; each alpha is one offline_void_mask call.
    """
    deltas = record_array(records, "layer_deltas", DTYPE)
    phases = record_array(records, "phase")
    return [(float(alpha), _usage_from_columns(~offline_void_mask(deltas, alpha, min_layers), phases,
                                               float(alpha), "modified"))
            for alpha in alphas]


def _fmt(x: float) -> str:
    return "%.9g" % float(x)


def export_reports(usage: LayerUsageReport, profile: NormProfile, out_dir, stem: str = "report") -> tuple[Path, Path]:
    """Write the combined per-layer CSV and the JSON summary.

    The CSV has one row per layer (1-based indices); columns for a
    phase with no tokens are left empty. Returns (csv_path, json_path).
    """
    if usage.layer_count != profile.layer_count:
        raise ValueError(f"usage has {usage.layer_count} layers but profile has {profile.layer_count}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}_summary.json"

    def cell(mapping, phase, layer):
        return _fmt(mapping[phase][layer]) if phase in mapping else ""

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for layer in range(usage.layer_count):
            writer.writerow([
                layer + 1,
                cell(usage.frequencies, "PP", layer),
                cell(usage.frequencies, "RG", layer),
                cell(profile.mean_norms, "PP", layer),
                cell(profile.mean_norms, "RG", layer),
                cell(profile.mean_deltas, "PP", layer),
                cell(profile.mean_deltas, "RG", layer),
            ])

    summary = {
        "layer_count": usage.layer_count,
        "alpha": usage.alpha,
        "formula": usage.formula,
        "token_counts": usage.token_counts,
        "average_usage": {p: usage.average_usage[p] for p in usage.average_usage},
        "average_usage_2dp": {p: round(usage.average_usage[p], 2) for p in usage.average_usage},
        "normalization": "per-layer frequencies divided by the report's maximum layer frequency",
    }
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return csv_path, json_path
