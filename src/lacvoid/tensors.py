"""Dense float32 numeric substrate and the per-example and per-token L2 norms.

Hidden states are rank-3 float32 arrays shaped (batch, length, depth),
stored row-major. Norm reductions accumulate in float64 and return
float32, so results are stable regardless of tensor size. A norm checks
its float64 roots, not the state: one range check refuses a NaN or
infinite state and a finite one whose norm would round to float32 inf.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import NonFiniteError, ShapeError

DTYPE = np.float32
LAYER_NORM_EPS = 1e-5


class NormGranularity(Enum):
    """Unit of an activation norm and of halting (HaltPolicy): EXAMPLE
    reduces each batch row, TOKEN each (example, position) vector."""

    EXAMPLE = "example"
    TOKEN = "token"


def as_f32(x) -> np.ndarray:
    """Coerce input to a contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=DTYPE)


def require_hidden_state(h) -> np.ndarray:
    """Validate and coerce h to a rank-3 (batch, length, depth) float32 array."""
    arr = as_f32(h)
    if arr.ndim != 3:
        raise ShapeError(f"hidden state must have rank 3 (batch, length, depth), got shape {arr.shape}")
    return arr


def l2_norm(h, granularity: NormGranularity) -> np.ndarray:
    """L2 norm of a hidden state at the requested granularity.

    Args:
        h: rank-3 array (batch, length, depth); all values finite.
        granularity: EXAMPLE -> shape (batch, 1); TOKEN -> (batch, length, 1).

    Each output element is sqrt of the sum of squares over the axes the
    granularity reduces. Sums accumulate in float64.
    """
    sq = np.square(require_hidden_state(h), dtype=np.float64)
    if granularity is NormGranularity.EXAMPLE:
        return _finite_root(sq.sum(axis=(1, 2))[:, None])
    if granularity is NormGranularity.TOKEN:
        return _finite_root(sq.sum(axis=2)[:, :, None])
    raise TypeError(f"unknown granularity: {granularity!r}")


def _finite_root(sums: np.ndarray) -> np.ndarray:
    """float32 square roots of float64 sums of squares. A finite float32
    squared cannot overflow float64, so a root is NaN or infinite exactly
    when an element of the state is."""
    roots = np.sqrt(sums)
    if not _rounds_finite_f32(roots):
        raise NonFiniteError("hidden state contains NaN or Inf, or its norm exceeds float32's range")
    return roots.astype(DTYPE)


def _rounds_finite_f32(magnitudes: np.ndarray) -> bool:
    """Whether every element of a non-negative float64 array rounds to a finite float32 (a NaN
    does not): 2**128 - 2**103, halfway from float32's largest value to 2**128, rounds to inf."""
    return bool((magnitudes < 2.0**128 - 2.0**103).all())


def layer_norm_pre(h, gain) -> np.ndarray:
    """RMS-style normalization over the last axis, then elementwise gain.

    out = h / sqrt(mean(h^2) + LAYER_NORM_EPS) * gain. The mean accumulates
    in float64; the epsilon keeps an all-zero vector at zero instead of
    blowing up. The steps run in place on two buffers: the mean is the float64 sum
    of the contiguous squares divided by the depth, as np.mean computes it.
    """
    arr = as_f32(h)
    g = as_f32(gain)
    if g.ndim != 1 or g.shape[0] != arr.shape[-1]:
        raise ShapeError(f"gain length {g.shape} does not match depth {arr.shape[-1]}")
    sq = np.square(arr, dtype=np.float64)
    inv = sq.sum(axis=-1, keepdims=True)
    inv /= arr.shape[-1]
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    out = np.multiply(arr, inv, out=sq).astype(DTYPE)
    out *= g
    return out
