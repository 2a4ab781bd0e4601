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
  * A float in [lo, hi) is lo + (hi - lo) * u, computed in double
    precision and rounded to float32 at the end.
  * An integer in [lo, hi) is lo + (u64 >> 40) % (hi - lo), exactly.
  * Named streams: stream_for(seed, name) seeds a fresh generator with
    seed XOR fnv1a64(name), so every tensor or case draws from its own
    well-defined stream regardless of generation order elsewhere.

_draw_streams draws the first counts[i] outputs of each generator's
stream from its current state, and leaves every generator as it was.
It is how build_model draws every weight tensor (mapped by _to_uniform)
and build_suite every case's bytes (mapped by _to_integers). It computes
what counts[i] calls of next_u64 would return, only faster. The state
update T of xoshiro256** is linear over GF(2), so each stream is split
into lanes of one power-of-two length m: lane j starts from T^(j*m)
applied to the stream's state, the lanes of all streams are started by
the same jump calls, and all of them step together as numpy uint64
vectors in one lockstep loop. Every jump T^(j*m) is composed from the
squaring chain T, T^2, T^4, ..., built once per process and kept as
bit-packed 256x256 bit matrices. The draws are kept as their top 24
bits in one uint32 buffer, and _to_uniform writes each stream's float32
values over its own draws, so the working set beyond the output is the
lane states plus one stream's float64 transient.
"""

from __future__ import annotations

import threading
from itertools import accumulate

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


def _draw_streams(gens: list[Xoshiro256StarStar], counts: list[int]) -> list[np.ndarray]:
    """The first counts[i] outputs of each gens[i]'s stream from its
    current state, as their top 24 bits (u64 >> 40) in uint32. No
    generator is changed, so one passed twice gives equal draws. The
    arrays are views of one shared buffer.

    Every stream is split into lanes of one power-of-two length m, sized
    by the batch's total draw count. Lane j of a stream starts from
    T^(j*m) applied to its generator's state; the start states of all
    lanes of all streams come from one _gf2_apply per doubling of the
    lane count, and all lanes step together in one lockstep loop.
    """
    counts = [int(n) for n in counts]
    if any(n < 0 for n in counts):
        raise ValueError(f"_draw_streams: negative draw count in {counts}")
    k = _lane_log2(sum(counts))
    m = 1 << k
    lanes = [-(-n // m) for n in counts]
    first = list(accumulate(lanes, initial=0))  # stream i holds lanes first[i]..first[i + 1] - 1
    state = np.empty((4, first[-1]), dtype=np.uint64)  # word w of every lane's state is row w
    for gen, f, count in zip(gens, first, lanes):
        if count:
            state[:, f] = gen._s
    filled = 1
    while filled < max(lanes, default=0):
        # each stream's lanes [filled, 2 * filled) are its lanes [0, filled) jumped by filled * m = 2^k steps
        src = np.concatenate([np.arange(f, f + min(filled, count - filled))
                              for f, count in zip(first, lanes) if count > filled])
        state[:, src + filled] = _gf2_apply(_jump(k), state[:, src].T).T
        filled *= 2
        k += 1
    s0, s1, s2, s3 = state
    out = np.empty((first[-1], m), dtype=np.uint32)
    r = np.empty(first[-1], dtype=np.uint64)
    t = np.empty(first[-1], dtype=np.uint64)
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
    flat = out.reshape(-1)
    return [flat[f * m:f * m + n] for f, n in zip(first, counts)]


def _to_uniform(draws: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The 24-bit draws mapped to float32 in [lo, hi) as lo + (hi - lo) * u,
    in double precision, written over the draws' own memory."""
    values = draws * ((float(hi) - float(lo)) / float(1 << 24))
    values += float(lo)
    out = draws.view(np.float32)
    out[...] = values
    return out


def _to_integers(draws: np.ndarray, lo: int, hi: int) -> list[int]:
    """The 24-bit draws mapped to ints in [lo, hi), hi > lo, as
    lo + u % (hi - lo) in Python ints, so any range is exact."""
    span = hi - lo
    return [lo + u % span for u in draws.tolist()]


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
