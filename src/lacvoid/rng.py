"""Deterministic, portable random number generation.

Weight initialization and synthetic data must be bit-reproducible from
a 64-bit seed, with no dependence on any host library's generator. The
scheme, in full, so other implementations can match it byte for byte:

  * splitmix64 expands a 64-bit seed into the four 64-bit words of
    xoshiro256** state (standard constants; all-zero state is remapped
    to state word s0 = 1).
  * xoshiro256** produces the u64 stream.
  * A uniform float in [0, 1) is (u64 >> 40) / 2^24, i.e. the top 24
    bits, computed in double precision.
  * uniform(lo, hi) = lo + (hi - lo) * u, computed in double precision
    and rounded to float32 at the end.
  * Named streams: stream_for(seed, name) seeds a fresh generator with
    seed XOR fnv1a64(name), so every tensor or case draws from its own
    well-defined stream regardless of generation order elsewhere.

uniform computes the same stream as next_u64, only faster. The state
update T of xoshiro256** is linear over GF(2), so the n draws are split
into lanes of a power-of-two length m: lane j starts from T^(j*m)
applied to the current state, and all lanes step together as numpy
uint64 vectors. Every jump T^(j*m) is composed from the squaring chain
T, T^2, T^4, ..., built once per process and kept as bit-packed
256x256 bit matrices.
"""

from __future__ import annotations

import threading

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31), state


def fnv1a64(name: str) -> int:
    """FNV-1a hash of a UTF-8 string, 64-bit."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding."""

    def __init__(self, seed: int):
        state = seed & _MASK
        words = []
        for _ in range(4):
            word, state = splitmix64(state)
            words.append(word)
        if not any(words):
            words[0] = 1
        self._s = words

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n float32 values uniform in [lo, hi): the next n outputs of the stream."""
        if n <= 0:
            return np.empty(n, dtype=np.float32)
        lo, hi = float(lo), float(hi)
        k = _lane_log2(n)
        m = 1 << k
        lanes = -(-n // m)
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._s
        filled = 1
        while filled < lanes:
            # lanes [filled, 2 * filled) are lanes [0, filled) jumped by filled * m = 2^k steps
            count = min(filled, lanes - filled)
            starts[filled:filled + count] = _gf2_apply(_jump(k), starts[:count])
            filled += count
            k += 1
        s0, s1, s2, s3 = (np.ascontiguousarray(starts[:, w]) for w in range(4))
        out = np.empty((lanes, m), dtype=np.float64)
        r = np.empty(lanes, dtype=np.uint64)
        t = np.empty(lanes, dtype=np.uint64)
        last = n - (lanes - 1) * m  # steps the final lane takes to reach step n
        for step in range(m):
            np.multiply(s1, _U5, out=r)
            np.left_shift(r, _U7, out=t)
            np.right_shift(r, _U57, out=r)
            np.bitwise_or(r, t, out=r)
            np.multiply(r, _U9, out=r)
            np.right_shift(r, _U40, out=r)
            out[:, step] = r
            np.left_shift(s1, _U17, out=t)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            np.left_shift(s3, _U45, out=t)
            np.right_shift(s3, _U19, out=s3)
            s3 |= t
            if step == last - 1:
                self._s = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]
        values = out.reshape(-1)[:n]
        values *= (hi - lo) / float(1 << 24)
        values += lo
        return values.astype(np.float32)

    def integers(self, n: int, lo: int, hi: int) -> list[int]:
        """n ints uniform in [lo, hi), by rejection-free modulo of the top bits."""
        span = hi - lo
        if span <= 0:
            raise ValueError(f"empty integer range [{lo}, {hi})")
        return [lo + (self.next_u64() >> 40) % span for _ in range(n)]


# uint64 scalars, so the lockstep ufuncs skip converting a Python int each call
_U5, _U7, _U9, _U17, _U19, _U40, _U45, _U57 = (np.uint64(c) for c in (5, 7, 9, 17, 19, 40, 45, 57))


def _lane_log2(n: int) -> int:
    """log2 of the lane length m for n draws: m is about sqrt(n) / 4,
    which measured fastest, trading the m lockstep steps against the
    jumps that start n / m lanes."""
    return max(0, (int(n).bit_length() - 4) // 2)


# _JUMPS[p] is T^(2^p), T being one state update, as 256 rows of 4 words
# (8 KB): row b is the image of the state whose only set bit is b, where
# state bit b is bit b % 64 of word b // 64.
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()
_POSITIONS = np.arange(64, dtype=np.intp)[:, None]
_CHUNK = 64  # states per lookup, so the (64, chunk, 4) transient stays at 128 KB


def _jump(p: int) -> np.ndarray:
    """T^(2^p); extends the squaring chain to p if needed."""
    with _JUMPS_LOCK:
        if not _JUMPS:
            gen = Xoshiro256StarStar(0)
            rows = []
            for b in range(256):
                gen._s = [0, 0, 0, 0]
                gen._s[b >> 6] = 1 << (b & 63)
                gen.next_u64()
                rows.append(gen._s)
            _JUMPS.append(np.array(rows, dtype=np.uint64))
        while len(_JUMPS) <= p:
            _JUMPS.append(_gf2_apply(_JUMPS[-1], _JUMPS[-1]))
        return _JUMPS[p]


def _gf2_apply(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map `matrix` (256 rows as in _JUMPS) applied to each row
    of `states` (k x 4 uint64). Works by 4-bit lookup: tables[v, c] is the
    XOR of the rows picked by the set bits of v at bits 4c..4c+3."""
    tables = np.empty((16, 64, 4), dtype=np.uint64)
    tables[0] = 0
    by_nibble = matrix.reshape(64, 4, 4)
    for i in range(4):
        np.bitwise_xor(tables[:1 << i], by_nibble[:, i], out=tables[1 << i:2 << i])
    flat = tables.reshape(1024, 4)
    out = np.empty_like(states)
    for lo in range(0, len(states), _CHUNK):
        raw = np.ascontiguousarray(states[lo:lo + _CHUNK], dtype="<u8").view(np.uint8).T
        index = np.empty((64, raw.shape[1]), dtype=np.intp)
        np.bitwise_and(raw, 15, out=index[0::2])
        np.right_shift(raw, 4, out=index[1::2])
        index <<= 6
        index += _POSITIONS
        out[lo:lo + _CHUNK] = np.bitwise_xor.reduce(np.take(flat, index, axis=0), axis=0)
    return out


def stream_for(seed: int, name: str) -> Xoshiro256StarStar:
    """Independent named generator derived from a base seed."""
    return Xoshiro256StarStar((seed & _MASK) ^ fnv1a64(name))
