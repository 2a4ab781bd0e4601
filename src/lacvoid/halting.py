"""Dynamic thresholds and per-unit void decisions over layer progress.

A unit (one example or one token, per the policy's granularity) makes
"progress" at each layer: the change in its activation L2 norm. The
running range of observed progress values sets a dynamic threshold,
lambda = alpha * (max(deltas) - min(deltas)); a layer whose progress
falls below the threshold is a void for that unit.

The rule itself lives in _void_rule alone, called by the executor
layer by layer with running extrema and by the offline replay of
recorded deltas with accumulated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensors import DTYPE, NormGranularity

__all__ = [
    "SkipMode",
    "HaltPolicy",
    "offline_void_mask",
    "detect_voids_offline",
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
    threshold and more voids. min_layers is the usage floor: layers
    1..min_layers are never flagged void, and layer 1 is always kept
    regardless (with a single observation the threshold is zero, so a
    negative first delta would otherwise void layer 1).
    """

    granularity: NormGranularity = NormGranularity.TOKEN
    alpha: float = 0.8
    skip_mode: SkipMode = SkipMode.DETECT
    min_layers: int = 1

    def __post_init__(self) -> None:
        if self.granularity not in (NormGranularity.EXAMPLE, NormGranularity.TOKEN):
            raise ValueError(f"halting granularity must be EXAMPLE or TOKEN, got {self.granularity}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.min_layers < 1:
            raise ValueError(f"min_layers must be >= 1, got {self.min_layers}")


def _void_rule(delta, dmax, dmin, step, alpha: float, min_layers: int) -> np.ndarray:
    """Void flags of delta, given its running extrema so far and its 1-based step.

    lambda = alpha * (dmax - dmin); void is strictly below lambda, and
    layer 1 and layers 1..min_layers are never void. step is an int,
    or an array broadcasting to delta.
    """
    eligible = (step >= 2) & (step > min_layers)
    return (delta < np.float32(alpha) * (dmax - dmin)) & eligible


def offline_void_mask(delta_sequence, alpha: float, min_layers: int = 1) -> np.ndarray:
    """Boolean void mask over recorded progress: a (T,) sequence or an (N, T) matrix.

    Running extrema along the layer axis feed the same rule, in the
    same float32 arithmetic, as the live path's layer-by-layer
    decisions, so traces recorded without skipping can be
    re-thresholded at any alpha after the fact.
    """
    deltas = np.asarray(delta_sequence, dtype=DTYPE)
    if deltas.ndim not in (1, 2) or deltas.shape[-1] == 0:
        raise ValueError(f"expected a non-empty (T,) or (N, T) delta array, got shape {deltas.shape}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return _void_rule(deltas, np.maximum.accumulate(deltas, axis=-1), np.minimum.accumulate(deltas, axis=-1),
                      np.arange(1, deltas.shape[-1] + 1), alpha, min_layers)


def detect_voids_offline(delta_sequence, alpha: float, min_layers: int = 1) -> set[int]:
    """Set of void layer indices (1-based, matching step numbering) of a (T,) sequence."""
    mask = offline_void_mask(delta_sequence, alpha, min_layers)
    if mask.ndim != 1:
        raise ValueError(f"expected a 1-d delta sequence, got shape {mask.shape}")
    return {int(i) + 1 for i in np.flatnonzero(mask)}
