"""Runs a layer stack and applies per-unit halting decisions.

Every layer always executes (the norm measurements need its candidate
output); the skip mode only decides what happens to the candidate:
kept, zeroed, or discarded in favor of the unit's previous state.
Actual compute savings are out of scope; this is a measurement and
what-if harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError
from .halting import HaltPolicy, SkipMode, _void_rule
from .tensors import DTYPE, NormGranularity, l2_norm, require_hidden_state

__all__ = [
    "ExecutionOutcome",
    "mask_example",
    "mask_token",
    "run_stack",
]

StepFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class ExecutionOutcome:
    """Everything recorded while running a stack under a policy.

    void_flags, token_norms and token_deltas are each (layers, B, L),
    per token whatever the policy granularity, so traces can be written
    from them: a unit's void flag is repeated over its tokens.
    token_norms are of the accepted post-layer state and token_deltas
    are the candidate progress.
    """

    final_hidden: np.ndarray
    void_flags: np.ndarray
    token_norms: np.ndarray
    token_deltas: np.ndarray


def mask_example(h, example_index: int) -> np.ndarray:
    """Copy of h with one example's activations zeroed."""
    arr = require_hidden_state(h)
    if not 0 <= example_index < arr.shape[0]:
        raise IndexError(f"example index {example_index} out of range for batch {arr.shape[0]}")
    out = arr.copy()
    out[example_index] = 0.0
    return out


def mask_token(h, example_index: int, token_index: int) -> np.ndarray:
    """Copy of h with one token's activations zeroed."""
    arr = require_hidden_state(h)
    if not 0 <= example_index < arr.shape[0]:
        raise IndexError(f"example index {example_index} out of range for batch {arr.shape[0]}")
    if not 0 <= token_index < arr.shape[1]:
        raise IndexError(f"token index {token_index} out of range for length {arr.shape[1]}")
    out = arr.copy()
    out[example_index, token_index] = 0.0
    return out


def _measure(h: np.ndarray, granularity: NormGranularity) -> tuple[np.ndarray, np.ndarray]:
    """Unit norms on the token grid ((1, 1), (B, 1) or (B, L)) and (B, L)
    token norms of h; one reduction at TOKEN granularity."""
    tok = l2_norm(h, NormGranularity.TOKEN)[..., 0]
    if granularity is NormGranularity.TOKEN:
        return tok, tok
    return l2_norm(h, granularity).reshape(-1, 1), tok


def run_stack(layers: Sequence[StepFn], h0, policy: HaltPolicy, forced_voids=None) -> ExecutionOutcome:
    """Execute the step functions in order, deciding and applying voids per unit.

    Unit arrays (norms, progress, its running max and min, void flags
    and the halt-frozen latch) live on the (B, L) token grid: (1, 1) per
    batch, (B, 1) per example, (B, L) per token, so they broadcast over
    the tokens of each unit. Each layer's void flags come from the void
    rule (halting._void_rule) over the progress so far, the current
    layer's included; under HALT_FROZEN a unit's first void latches it
    void for every later layer.

    forced_voids bypasses the live controller entirely: a boolean array
    of shape (layers,) (one flag per layer, all units) or (layers,) +
    unit, unit being () per batch, (B,) per example or (B, L) per token.
    The skip mode still determines how a forced void is applied.
    Progress is recorded either way.

    Each state is measured once: h0 and every candidate. A void unit's
    accepted state is its prior state or zeros, so its accepted norm is
    the prior norm or exactly 0; l2_norm reduces a unit over the same
    values in the same order, so this equals measuring the accepted state.
    """
    h = require_hidden_state(h0)
    t_total = len(layers)
    if t_total == 0:
        raise ValueError("layer stack is empty")
    if policy.min_layers > t_total:
        raise ValueError(f"min_layers={policy.min_layers} exceeds layer count {t_total}")
    g = policy.granularity
    mode = policy.skip_mode

    norm_before, tok_before = _measure(h, g)
    grid = norm_before.shape

    forced = None
    if forced_voids is not None:
        forced = np.asarray(forced_voids, dtype=bool)
        unit = () if g is NormGranularity.BATCH else grid if g is NormGranularity.TOKEN else grid[:1]
        if forced.shape not in ((t_total,), (t_total,) + unit):
            raise ShapeError(f"forced_voids shape {forced.shape} does not match (layers,)+unit {(t_total,) + unit}")
        forced = forced.reshape((t_total,) + (grid if forced.ndim > 1 else (1, 1)))

    dmax, dmin, latched = np.float32(-np.inf), np.float32(np.inf), False
    flags = np.zeros((t_total,) + tok_before.shape, dtype=bool)
    tok_norms = np.zeros((t_total,) + tok_before.shape, dtype=DTYPE)
    tok_deltas = np.zeros((t_total,) + tok_before.shape, dtype=DTYPE)

    for t, layer in enumerate(layers, start=1):
        candidate = layer(h)
        candidate = np.asarray(candidate, dtype=DTYPE)
        if candidate.shape != h.shape:
            raise ShapeError(f"layer {t} changed hidden shape from {h.shape} to {candidate.shape}")

        cand_norm, cand_tok = _measure(candidate, g)
        delta = cand_norm - norm_before

        if forced is not None:
            void = forced[t - 1]
        elif mode is SkipMode.OFF:
            void = np.zeros(grid, dtype=bool)
        else:
            dmax, dmin = np.maximum(dmax, delta), np.minimum(dmin, delta)
            void = _void_rule(delta, dmax, dmin, t, policy.alpha, policy.min_layers)
            if mode is SkipMode.HALT_FROZEN:
                void = latched = void | latched

        flags[t - 1] = void
        tok_deltas[t - 1] = cand_tok - tok_before
        if mode in (SkipMode.OFF, SkipMode.DETECT) or not void.any():
            h, norm_before, tok_before = candidate, cand_norm, cand_tok
        else:
            # MASK_ZERO zeroes a void unit; SKIP_IDENTITY and HALT_FROZEN keep its prior state
            if mode is SkipMode.MASK_ZERO:
                h = norm_before = tok_before = np.float32(0.0)
            h = np.where(void[..., None], h, candidate)
            tok_before = np.where(void, tok_before, cand_tok)
            norm_before = tok_before if g is NormGranularity.TOKEN else np.where(void, norm_before, cand_norm)
        tok_norms[t - 1] = tok_before

    return ExecutionOutcome(
        final_hidden=h,
        void_flags=flags,
        token_norms=tok_norms,
        token_deltas=tok_deltas,
    )
