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
from .halting import HaltPolicy, ProgressHistory, SkipMode, decide
from .tensors import DTYPE, NormGranularity, l2_norm, require_hidden_state

__all__ = [
    "LayerStack",
    "ExecutionOutcome",
    "mask_example",
    "mask_token",
    "expand_unit_to_tokens",
    "run_stack",
]

StepFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LayerStack:
    """Ordered shape-preserving step functions over hidden states."""

    layers: tuple[StepFn, ...]

    def __init__(self, layers: Sequence[StepFn]):
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def layer_count(self) -> int:
        return len(self.layers)


@dataclass
class ExecutionOutcome:
    """Everything recorded while running a stack under a policy.

    void_flags follows the policy granularity: () per batch, (B,) per
    example, (B, L) per token, stacked along a leading layer axis.
    token_norms are of the accepted post-layer state and token_deltas
    are the candidate progress, both per token whatever the policy
    granularity, so traces can be written from them.
    """

    final_hidden: np.ndarray
    void_flags: np.ndarray
    token_norms: np.ndarray
    token_deltas: np.ndarray
    granularity: NormGranularity

    @property
    def layer_count(self) -> int:
        return self.void_flags.shape[0]


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


def expand_unit_to_tokens(arr: np.ndarray, token_shape: tuple[int, int], granularity: NormGranularity) -> np.ndarray:
    """Broadcast a unit-shaped array to the (B, L) token grid."""
    b, l = token_shape
    if granularity is NormGranularity.BATCH:
        view = arr.reshape(1, 1)
    elif granularity is NormGranularity.EXAMPLE:
        view = arr.reshape(b, 1)
    else:
        view = arr.reshape(b, l)
    return np.broadcast_to(view, token_shape)


def _measure(h: np.ndarray, granularity: NormGranularity) -> tuple[np.ndarray, np.ndarray]:
    """Unit norms and (B, L) token norms of h; one reduction at TOKEN granularity."""
    tok = l2_norm(h, NormGranularity.TOKEN)[..., 0]
    if granularity is NormGranularity.TOKEN:
        return tok, tok
    unit = l2_norm(h, granularity)
    return (unit.reshape(()) if granularity is NormGranularity.BATCH else unit[:, 0]), tok


def run_stack(stack: LayerStack, h0, policy: HaltPolicy, forced_voids=None) -> ExecutionOutcome:
    """Execute all layers in order, deciding and applying voids per unit.

    forced_voids bypasses the live controller entirely: a boolean array
    of shape (layer_count,) (one flag per layer, all units) or
    (layer_count, *unit_shape). The skip mode still determines how a
    forced void is applied. Progress is recorded either way.

    Each state is measured once: h0 and every candidate. A void unit's
    accepted state is its prior state or zeros, so its accepted norm is
    the prior norm or exactly 0; l2_norm reduces a unit over the same
    values in the same order, so this equals measuring the accepted state.
    """
    h = require_hidden_state(h0)
    t_total = stack.layer_count
    if t_total == 0:
        raise ValueError("layer stack is empty")
    if policy.min_layers > t_total:
        raise ValueError(f"min_layers={policy.min_layers} exceeds layer count {t_total}")
    g = policy.granularity
    mode = policy.skip_mode

    norm_before, tok_before = _measure(h, g)
    unit_shape = norm_before.shape

    forced = None
    if forced_voids is not None:
        forced = np.asarray(forced_voids, dtype=bool)
        if forced.shape == (t_total,):
            forced = np.broadcast_to(forced.reshape((t_total,) + (1,) * len(unit_shape)), (t_total,) + unit_shape)
        elif forced.shape != (t_total,) + unit_shape:
            raise ShapeError(f"forced_voids shape {forced.shape} does not match (layers,)+unit {(t_total,) + unit_shape}")

    history = ProgressHistory()
    flags = np.zeros((t_total,) + unit_shape, dtype=bool)
    tok_norms = np.zeros((t_total,) + tok_before.shape, dtype=DTYPE)
    tok_deltas = np.zeros((t_total,) + tok_before.shape, dtype=DTYPE)

    for t, layer in enumerate(stack.layers, start=1):
        candidate = layer(h)
        candidate = np.asarray(candidate, dtype=DTYPE)
        if candidate.shape != h.shape:
            raise ShapeError(f"layer {t} changed hidden shape from {h.shape} to {candidate.shape}")

        cand_norm, cand_tok = _measure(candidate, g)
        delta = cand_norm - norm_before

        if forced is not None:
            void = forced[t - 1]
        elif mode is SkipMode.OFF:
            void = np.zeros(unit_shape, dtype=bool)
        else:
            history.append(delta)
            void = decide(history, delta, policy).void

        flags[t - 1] = void
        tok_deltas[t - 1] = cand_tok - tok_before
        if mode in (SkipMode.OFF, SkipMode.DETECT) or not void.any():
            h, norm_before, tok_before = candidate, cand_norm, cand_tok
        else:
            # MASK_ZERO zeroes a void unit; SKIP_IDENTITY and HALT_FROZEN keep its prior state
            if mode is SkipMode.MASK_ZERO:
                h = norm_before = tok_before = np.float32(0.0)
            void_tok = expand_unit_to_tokens(void, candidate.shape[:2], g)
            h = np.where(void_tok[..., None], h, candidate)
            tok_before = np.where(void_tok, tok_before, cand_tok)
            norm_before = tok_before if g is NormGranularity.TOKEN else np.where(void, norm_before, cand_norm)
        tok_norms[t - 1] = tok_before

    return ExecutionOutcome(
        final_hidden=h,
        void_flags=flags,
        token_norms=tok_norms,
        token_deltas=tok_deltas,
        granularity=g,
    )
