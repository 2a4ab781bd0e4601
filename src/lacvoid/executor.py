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

    Unit-shaped arrays follow the policy granularity: () per batch,
    (B,) per example, (B, L) per token, stacked along a leading layer
    axis. norms are of the accepted post-layer state; deltas are the
    candidate progress that drove the decision. token_norms and
    token_deltas always carry the per-token view so traces can be
    written regardless of the policy granularity.
    """

    final_hidden: np.ndarray
    void_flags: np.ndarray
    norms: np.ndarray
    deltas: np.ndarray
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


def _squeeze_unit(norm: np.ndarray, granularity: NormGranularity) -> np.ndarray:
    # l2_norm keeps a trailing singleton axis; unit arrays drop it.
    if granularity is NormGranularity.BATCH:
        return norm.reshape(())
    return norm[..., 0]


def _expand_unit(arr: np.ndarray, hidden_shape: tuple[int, ...], granularity: NormGranularity) -> np.ndarray:
    """Broadcast a unit-shaped array over the (B, L, D) hidden shape."""
    b, l, _ = hidden_shape
    if granularity is NormGranularity.BATCH:
        view = arr.reshape(1, 1, 1)
    elif granularity is NormGranularity.EXAMPLE:
        view = arr.reshape(b, 1, 1)
    else:
        view = arr.reshape(b, l, 1)
    return np.broadcast_to(view, hidden_shape)


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


def run_stack(stack: LayerStack, h0, policy: HaltPolicy, forced_voids=None) -> ExecutionOutcome:
    """Execute all layers in order, deciding and applying voids per unit.

    forced_voids bypasses the live controller entirely: a boolean array
    of shape (layer_count,) (one flag per layer, all units) or
    (layer_count, *unit_shape). The skip mode still determines how a
    forced void is applied. Progress is recorded either way.
    """
    h = require_hidden_state(h0)
    t_total = stack.layer_count
    if t_total == 0:
        raise ValueError("layer stack is empty")
    if policy.min_layers > t_total:
        raise ValueError(f"min_layers={policy.min_layers} exceeds layer count {t_total}")
    g = policy.granularity

    norm_before = _squeeze_unit(l2_norm(h, g), g)
    tok_before = _squeeze_unit(l2_norm(h, NormGranularity.TOKEN), NormGranularity.TOKEN)
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
    norms = np.zeros((t_total,) + unit_shape, dtype=DTYPE)
    deltas = np.zeros((t_total,) + unit_shape, dtype=DTYPE)
    tok_norms = np.zeros((t_total,) + tok_before.shape, dtype=DTYPE)
    tok_deltas = np.zeros((t_total,) + tok_before.shape, dtype=DTYPE)

    for t, layer in enumerate(stack.layers, start=1):
        candidate = layer(h)
        candidate = np.asarray(candidate, dtype=DTYPE)
        if candidate.shape != h.shape:
            raise ShapeError(f"layer {t} changed hidden shape from {h.shape} to {candidate.shape}")

        cand_norm = _squeeze_unit(l2_norm(candidate, g), g)
        cand_tok = _squeeze_unit(l2_norm(candidate, NormGranularity.TOKEN), NormGranularity.TOKEN)
        delta = cand_norm - norm_before

        if forced is not None:
            void = forced[t - 1]
        elif policy.skip_mode is SkipMode.OFF:
            void = np.zeros(unit_shape, dtype=bool)
        else:
            history.append(delta)
            void = decide(history, delta, policy).void

        mode = policy.skip_mode
        if mode in (SkipMode.OFF, SkipMode.DETECT):
            h_new = candidate
        elif mode is SkipMode.MASK_ZERO:
            h_new = np.where(_expand_unit(void, h.shape, g), np.float32(0.0), candidate)
        else:  # SKIP_IDENTITY and HALT_FROZEN keep the unit's prior state
            h_new = np.where(_expand_unit(void, h.shape, g), h, candidate)

        flags[t - 1] = void
        deltas[t - 1] = delta
        tok_deltas[t - 1] = cand_tok - tok_before
        if h_new is not candidate and void.any():
            norm_after = _squeeze_unit(l2_norm(h_new, g), g)
            tok_after = _squeeze_unit(l2_norm(h_new, NormGranularity.TOKEN), NormGranularity.TOKEN)
        else:
            norm_after = cand_norm
            tok_after = cand_tok
        norms[t - 1] = norm_after
        tok_norms[t - 1] = tok_after

        h = h_new
        norm_before = norm_after
        tok_before = tok_after

    return ExecutionOutcome(
        final_hidden=h,
        void_flags=flags,
        norms=norms,
        deltas=deltas,
        token_norms=tok_norms,
        token_deltas=tok_deltas,
        granularity=g,
    )
