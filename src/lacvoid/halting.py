"""Progress measurement, dynamic thresholds, and per-unit void decisions.

A unit (whole batch, one example, or one token, per the norm
granularity) makes "progress" at each layer: the change in its
activation L2 norm. The running range of observed progress values sets
a dynamic threshold; a layer whose progress falls below the threshold
is a void for that unit.

Two threshold variants are kept as explicit configuration:

    original: lambda = alpha * |max(deltas) - min(deltas)|
    modified: lambda = alpha *  (max(deltas) - min(deltas))

max(deltas) >= min(deltas) always, so the two are numerically identical
as written; both are retained so configurations can name either form.

The rule itself lives in _void_rule alone, fed by the live decide and
by the offline replay of recorded deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeError
from .tensors import DTYPE, NormGranularity

__all__ = [
    "ThresholdFormula",
    "SkipMode",
    "HaltPolicy",
    "ProgressHistory",
    "HaltDecision",
    "progress",
    "threshold",
    "decide",
    "offline_void_mask",
    "detect_voids_offline",
]


class ThresholdFormula(Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


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
    formula: ThresholdFormula = ThresholdFormula.MODIFIED
    skip_mode: SkipMode = SkipMode.DETECT
    min_layers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.min_layers < 1:
            raise ValueError(f"min_layers must be >= 1, got {self.min_layers}")


class ProgressHistory:
    """Running per-unit progress extrema, the step count and the latch.

    One instance tracks one forward pass of one unit grid (all units of
    a granularity at once, e.g. shape (batch, length) for per-token).
    Only what the void rule reads is kept. Mutable, single-threaded by
    design; independent passes use independent histories.
    """

    def __init__(self) -> None:
        self.step_count = 0
        self.running_max: np.ndarray | None = None
        self.running_min: np.ndarray | None = None
        self.latched: np.ndarray | None = None

    def append(self, delta) -> None:
        d = np.asarray(delta, dtype=DTYPE)
        if self.running_max is None:
            self.running_max = d.copy()
            self.running_min = d.copy()
            self.latched = np.zeros(d.shape, dtype=bool)
        elif d.shape != self.running_max.shape:
            raise ShapeError(f"delta shape {d.shape} does not match history unit shape {self.running_max.shape}")
        else:
            self.running_max = np.maximum(self.running_max, d)
            self.running_min = np.minimum(self.running_min, d)
        self.step_count += 1


@dataclass
class HaltDecision:
    """Per-unit outcome of one layer's halting check."""

    void: np.ndarray
    threshold_value: np.ndarray


def progress(norm_prev, norm_curr) -> np.ndarray:
    """Per-unit progress: current norm minus previous norm. May be negative."""
    a = np.asarray(norm_prev, dtype=DTYPE)
    b = np.asarray(norm_curr, dtype=DTYPE)
    if a.shape != b.shape:
        raise ShapeError(f"norm shapes disagree: {a.shape} vs {b.shape}")
    return b - a


def _lambda_from_extrema(dmax: np.ndarray, dmin: np.ndarray, alpha: float, formula: ThresholdFormula) -> np.ndarray:
    rng = dmax - dmin
    if formula is ThresholdFormula.ORIGINAL:
        rng = np.abs(rng)
    return np.float32(alpha) * rng


def threshold(history: ProgressHistory, alpha: float, formula: ThresholdFormula) -> np.ndarray:
    """Dynamic per-unit threshold from the observed progress range."""
    if history.step_count == 0:
        raise ValueError("cannot compute a threshold from an empty history")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return _lambda_from_extrema(history.running_max, history.running_min, alpha, formula)


def _void_rule(delta, dmax, dmin, step, alpha: float, formula: ThresholdFormula,
               min_layers: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, void) for delta, its running extrema so far and its 1-based step.

    Void is strictly below lambda; layer 1 and layers up to min_layers
    are never void. step is an int, or an array broadcasting to delta.
    """
    lam = _lambda_from_extrema(dmax, dmin, alpha, formula)
    eligible = (step >= 2) & (step >= min_layers)
    return lam, (delta < lam) & eligible


def decide(history: ProgressHistory, delta, policy: HaltPolicy) -> HaltDecision:
    """Void decision for the layer whose delta was just appended.

    The history must already contain delta (the threshold range includes
    the current measurement). Under HALT_FROZEN, a unit's first void
    sets its latch on the history and every later decision reports it
    void regardless of progress.
    """
    d = np.asarray(delta, dtype=DTYPE)
    if history.step_count == 0:
        raise ValueError("decide requires the current delta to be appended to the history first")
    if d.shape != history.running_max.shape:
        raise ShapeError(f"delta shape {d.shape} does not match history unit shape {history.running_max.shape}")
    lam, void = _void_rule(d, history.running_max, history.running_min, history.step_count,
                           policy.alpha, policy.formula, policy.min_layers)
    if policy.skip_mode is SkipMode.HALT_FROZEN:
        void = void | history.latched
        history.latched = void.copy()
    return HaltDecision(void=void, threshold_value=lam)


def offline_void_mask(delta_sequence, alpha: float, formula: ThresholdFormula = ThresholdFormula.MODIFIED,
                      min_layers: int = 1) -> np.ndarray:
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
    _, void = _void_rule(deltas, np.maximum.accumulate(deltas, axis=-1), np.minimum.accumulate(deltas, axis=-1),
                         np.arange(1, deltas.shape[-1] + 1), alpha, formula, min_layers)
    return void


def detect_voids_offline(delta_sequence, alpha: float, formula: ThresholdFormula = ThresholdFormula.MODIFIED,
                         min_layers: int = 1) -> set[int]:
    """Set of void layer indices (1-based, matching step numbering) of a (T,) sequence."""
    mask = offline_void_mask(delta_sequence, alpha, formula, min_layers)
    if mask.ndim != 1:
        raise ValueError(f"expected a 1-d delta sequence, got shape {mask.shape}")
    return {i + 1 for i in np.flatnonzero(mask)}
