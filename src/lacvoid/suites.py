"""Synthetic prompt suites with programmatically checkable answers.

Stand-ins for benchmark harnesses at desk scale: tiny byte-level tasks
whose expected continuation is computable, so a skip-vs-full comparison
has a score to report. The toy model is untrained; scores measure the
mechanics of the comparison, not linguistic competence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import _draw_streams, _to_integers, stream_for

SUITE_NAMES = ("copy", "sorted")
SUITE_CASES, SUITE_LENGTH = 6, 8  # cases per suite, prompt bytes per case


@dataclass(frozen=True)
class SuiteCase:
    """One sequence to run: a suite case, or a prompt with no expected answer."""

    sequence_id: str
    prompt_ids: tuple[int, ...]
    expected_ids: tuple[int, ...] | None = None


def build_suite(name: str, seed: int) -> list[SuiteCase]:
    """Deterministic cases for a named suite.

    copy: the expected continuation repeats the prompt bytes.
    sorted: the expected continuation is the prompt bytes in ascending
    order.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    gens = [stream_for(seed, f"suite:{name}:{i}") for i in range(SUITE_CASES)]
    out = []
    for i, draws in enumerate(_draw_streams(gens, [SUITE_LENGTH] * len(gens))):  # one batch for every case
        prompt = tuple(_to_integers(draws, 33, 127))  # printable ASCII
        expected = tuple(sorted(prompt)) if name == "sorted" else prompt
        out.append(SuiteCase(sequence_id=f"{name}{i:03d}", prompt_ids=prompt, expected_ids=expected))
    return out


def score_case(generated_ids, expected_ids) -> float:
    """Per-byte accuracy against the expected continuation."""
    if not expected_ids:
        return 1.0
    hits = sum(1 for i, e in enumerate(expected_ids) if i < len(generated_ids) and generated_ids[i] == e)
    return hits / len(expected_ids)
