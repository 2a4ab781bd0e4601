"""Dynamic thresholds and per-unit void decisions over layer progress.

A unit (one example or one token, per the policy's granularity) makes
"progress" at each layer: the change in its activation L2 norm. The
running range of observed progress values sets a dynamic threshold,
lambda = alpha * (max(deltas) - min(deltas)); a layer whose progress
falls below the threshold is a void for that unit.

The rule itself lives in _void_rule alone, called by the executor
layer by layer with running extrema and by offline_void_mask, the one
offline replay of recorded deltas, with accumulated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteError
from .tensors import DTYPE, NormGranularity, _rounds_finite_f32

__all__ = [
    "SkipMode",
    "HaltPolicy",
    "offline_void_mask",
]


class SkipMode(Enum):
    """What the executor does with a unit flagged void at a layer.

    OFF            plain forward pass, norms recorded only.
    DETECT         record void flags, never alter the stream.
    MASK_ZERO      zero the unit's activations after a void layer.
    SKIP_IDENTITY  the layer acts as identity for the unit (residual
                   stream preserved); the unit may reactivate later.
    HALT_FROZEN    first void latches the unit; its state is carried
                   unchanged through all remaining layers.
    """

    OFF = "off"
    DETECT = "detect"
    MASK_ZERO = "mask-zero"
    SKIP_IDENTITY = "skip-identity"
    HALT_FROZEN = "halt-frozen"


@dataclass(frozen=True)
class HaltPolicy:
    """Configuration for halting decisions. Immutable and shareable.

    alpha scales the threshold: larger alpha means a more decisive
    threshold and more voids. min_layers is the usage floor, at least 1:
    layers 1..min_layers are never flagged void. Layer 1 is always kept
    because with a single observation the threshold is zero, so a
    negative first delta would otherwise void it.
    """

    granularity: NormGranularity = NormGranularity.TOKEN
    alpha: float = 0.8
    skip_mode: SkipMode = SkipMode.DETECT
    min_layers: int = 1

    def __post_init__(self) -> None:
        if self.granularity not in (NormGranularity.EXAMPLE, NormGranularity.TOKEN):
            raise ValueError(f"halting granularity must be EXAMPLE or TOKEN, got {self.granularity}")
        _check_rule_args(self.alpha, self.min_layers)


def _check_rule_args(alpha: float, min_layers: int) -> None:
    """ValueError unless alpha is in (0, 1] and min_layers >= 1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if min_layers < 1:
        raise ValueError(f"min_layers must be >= 1, got {min_layers}")


def _check_floor(min_layers: int, layer_count: int) -> None:
    """ValueError when the usage floor min_layers exceeds layer_count."""
    if min_layers > layer_count:
        raise ValueError(f"min_layers={min_layers} exceeds layer count {layer_count}")


def _void_rule(delta, dmax, dmin, step, alpha: float, min_layers: int) -> np.ndarray:
    """Void flags of delta, given its running extrema so far and its 1-based step.

    lambda = alpha * (dmax - dmin); void is strictly below lambda, and
    layers 1..min_layers (min_layers >= 1) are never void. step is an
    int, or an array broadcasting to delta.
    """
    return (delta < np.float32(alpha) * (dmax - dmin)) & (step > min_layers)


def offline_void_mask(delta_sequence, alpha: float, min_layers: int = 1) -> np.ndarray:
    """Boolean void mask over recorded progress: a (T,) sequence or an (N, T) matrix.

    Running extrema along the layer axis feed the same rule, in the
    same float32 arithmetic, as the live path's layer-by-layer
    decisions, so traces recorded without skipping can be
    re-thresholded at any alpha after the fact. alpha and min_layers
    are refused as HaltPolicy and run_stack refuse them. A NaN or
    infinite delta raises NonFiniteError, as the trace reader and
    l2_norm refuse one, and so does a finite one beyond float32's range,
    which the conversion to float32 would make infinite.
    """
    deltas = np.asarray(delta_sequence, dtype=np.float64)
    if deltas.ndim not in (1, 2) or deltas.shape[-1] == 0:
        raise ValueError(f"expected a non-empty (T,) or (N, T) delta array, got shape {deltas.shape}")
    if not _rounds_finite_f32(np.abs(deltas)):
        raise NonFiniteError("progress deltas contain NaN or Inf, or a magnitude beyond float32's range "
                             f"({np.finfo(DTYPE).max:.8g})")
    deltas = deltas.astype(DTYPE)
    _check_rule_args(alpha, min_layers)
    _check_floor(min_layers, deltas.shape[-1])
    return _void_rule(deltas, np.maximum.accumulate(deltas, axis=-1), np.minimum.accumulate(deltas, axis=-1),
                      np.arange(1, deltas.shape[-1] + 1), alpha, min_layers)

