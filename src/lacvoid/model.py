"""Minimal deterministic decoder-only pre-LN transformer.

Byte-level vocabulary (256 ids, utf-8 bytes), greedy decoding of many
sequences as one batch, and a KV cache preallocated per layer. Each
transformer block (attention + FFN together) is one
step function of the measured layer stack; embedding and the final
projection sit outside it. Each forward step hands run_stack's
per-token flags, norms and progress to the trace as one TraceColumns
block, so no per-token record object is built. Weights come from
named xoshiro256** streams (see rng), so a seed fully determines the
model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .container import load_container, save_container
from .errors import ContainerError, ShapeError
from .executor import StepFn, run_stack
from .halting import HaltPolicy
from .rng import _draw_streams, _to_uniform, stream_for
from .tensors import DTYPE, layer_norm_pre
from .trace import PHASE_PP, PHASE_RG, TraceColumns

__all__ = [
    "EOT",
    "ModelConfig",
    "ToyTransformer",
    "KVCache",
    "GenerationState",
    "build_model",
    "save_weights",
    "load_weights",
    "run_prompt",
    "generate",
    "encode_text",
    "decode_tokens",
]

EOT = 0  # end-of-text byte; greedy decoding stops when it wins the argmax


@dataclass(frozen=True)
class ModelConfig:
    layer_count: int
    depth: int
    head_count: int
    ffn_dim: int
    vocab_size: int = 256
    max_seq: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("layer_count", "depth", "head_count", "ffn_dim", "vocab_size", "max_seq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.depth % self.head_count != 0:
            raise ValueError(f"depth {self.depth} not divisible by head_count {self.head_count}")
        if self.depth % 2 != 0:
            raise ValueError("depth must be even (interleaved sin/cos positions)")


def encode_text(text: str) -> list[int]:
    return list(text.encode("utf-8"))


def decode_tokens(ids) -> str:
    return bytes(int(i) for i in ids).decode("utf-8", errors="replace")


def sinusoidal_positions(positions, depth: int) -> np.ndarray:
    """Encodings of an array of positions, one depth-vector each:
    pe[..., 2i] = sin(p / 10000^(2i/depth)), pe[..., 2i+1] = cos."""
    pos = np.asarray(positions, dtype=np.float64)[..., None]
    i = np.arange(depth // 2, dtype=np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / depth)
    pe = np.zeros(angles.shape[:-1] + (depth,), dtype=np.float64)
    pe[..., 0::2] = np.sin(angles)
    pe[..., 1::2] = np.cos(angles)
    return pe.astype(DTYPE)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh approximation, float32 throughout:
    0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))), with the same
    operations in the same order. Overwrites a float32 x with the result
    and returns it (its one caller passes a fresh product); any other
    input is converted to a new float32 array first. One temporary."""
    x = np.asarray(x, dtype=DTYPE)
    t = x * np.float32(0.044715)
    t *= x
    t *= x
    t += x
    t *= np.float32(0.7978845608028654)
    np.tanh(t, out=t)
    t += np.float32(1.0)
    x *= np.float32(0.5)
    x *= t
    return x


class KVCache:
    """Per-layer key and value buffers: keys stored transposed, each
    (rows, heads, head_dim, capacity), values (rows, heads, capacity, head_dim).

    Every buffer is allocated once; a cache too large to allocate
    raises ValueError naming its capacity and byte count. A forward
    chunk writes its keys and values in place at its positions and gets
    back views of the buffer, so the cache is never reallocated.
    The transposed keys make the key view the right operand of q @ K^T
    as it stands, so attention multiplies both views in place; it
    copies a key view only while it holds 3 keys or fewer.
    """

    def __init__(self, layer_count: int, rows: int, head_count: int, capacity: int, head_dim: int):
        k_shape, v_shape = (rows, head_count, head_dim, capacity), (rows, head_count, capacity, head_dim)
        self.rows, self.capacity = rows, capacity
        try:
            self.k = [np.zeros(k_shape, dtype=DTYPE) for _ in range(layer_count)]
            self.v = [np.zeros(v_shape, dtype=DTYPE) for _ in range(layer_count)]
        except MemoryError as exc:
            nbytes = 2 * layer_count * math.prod(v_shape) * np.dtype(DTYPE).itemsize
            raise ValueError(f"cannot allocate a KV cache of capacity {capacity} positions: {nbytes} bytes "
                             f"for {layer_count} layers of {rows} rows") from exc

    def append(self, layer: int, rows: slice, pos: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write k and v, each (rows, heads, n, head_dim), at positions pos..pos+n-1
        of the given cache rows. Returns views of those rows' transposed
        keys, (rows, heads, head_dim, pos+n), and values, (rows, heads, pos+n, head_dim),
        over positions 0..pos+n-1."""
        end = pos + k.shape[2]
        if end > self.capacity:
            raise ValueError(f"position {end - 1} overflows the KV cache's capacity {self.capacity}")
        self.k[layer][rows, :, :, pos:end] = k.transpose(0, 1, 3, 2)
        self.v[layer][rows, :, pos:end] = v
        return self.k[layer][rows, :, :, :end], self.v[layer][rows, :, :end]


# Each block tensor's container name (after "block<i>.") -> its TransformerBlock attribute, in container order.
_BLOCK_TENSORS = {"ln1.gain": "ln1_gain", "attn.wq": "wq", "attn.wk": "wk", "attn.wv": "wv", "attn.wo": "wo",
                  "ln2.gain": "ln2_gain", "ffn.w1": "w1", "ffn.w2": "w2"}


class TransformerBlock:
    """One pre-LN block: h += attn(norm(h)); h += ffn(norm(h))."""

    def __init__(self, ln1_gain, wq, wk, wv, wo, ln2_gain, w1, w2, head_count: int):
        self.ln1_gain = ln1_gain
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo
        self.ln2_gain = ln2_gain
        self.w1, self.w2 = w1, w2
        self.head_count = head_count

    def named_tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": getattr(self, attr) for name, attr in _BLOCK_TENSORS.items()}

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, n, d = x.shape
        hd = d // self.head_count
        return x.reshape(b, n, self.head_count, hd).transpose(0, 2, 1, 3)

    def forward(self, h: np.ndarray, cache: KVCache, layer: int, runs) -> np.ndarray:
        """One block over h (B, n, D). runs are stack_for's (batch slice, cache-row
        slice, first position) triples, each a run of cache rows whose n tokens
        start at one position; attention runs once per run.

        The block runs as an attention half and an FFN half, and each
        half's temporaries are freed when it returns, so attention's
        buffers are gone before the FFN allocates. The weight products
        call np.matmul directly: their operands are contiguous float32,
        and the model's builders have checked their shapes."""
        return self._ffn(self._attention(h, cache, layer, runs))

    def _qkv(self, h: np.ndarray, cache: KVCache, layer: int, runs) -> tuple[np.ndarray, list]:
        """Norm and Q/K/V products of h. Writes every run's keys and values
        into the cache, and returns q, contiguous (B, heads, n, hd), and each
        run's cache views, so the normed input, k and v are freed here."""
        a_in = layer_norm_pre(h, self.ln1_gain)
        q = np.ascontiguousarray(self._split_heads(np.matmul(a_in, self.wq)))
        k = self._split_heads(np.matmul(a_in, self.wk))
        v = self._split_heads(np.matmul(a_in, self.wv))
        return q, [cache.append(layer, rows, pos, k[batch], v[batch]) for batch, rows, pos in runs]

    def _attention(self, h: np.ndarray, cache: KVCache, layer: int, runs) -> np.ndarray:
        """h + attn(norm(h)), a fresh array: run_stack may keep h as the prior state."""
        b, n, d = h.shape
        q, views = self._qkv(h, cache, layer, runs)
        ctx = np.empty_like(q)
        for (batch, _, pos), (k_t, v_all) in zip(runs, views):
            _attend(q[batch], k_t, v_all, pos, ctx[batch])
        attn = np.matmul(ctx.transpose(0, 2, 1, 3).reshape(b, n, d), self.wo)
        attn += h
        return attn

    def _ffn(self, h: np.ndarray) -> np.ndarray:
        """h + ffn(norm(h)), a fresh array."""
        out = np.matmul(gelu(np.matmul(layer_norm_pre(h, self.ln2_gain), self.w1)), self.w2)
        out += h
        return out


def _attend(q: np.ndarray, k_t: np.ndarray, v_all: np.ndarray, pos_start: int, out: np.ndarray) -> None:
    """Causal softmax attention of one run's queries (rows, heads, n, hd)
    over its cache views, written into out; the scores buffer is freed on return."""
    n, hd = q.shape[-2:]
    if k_t.shape[-1] <= 3:  # over so few keys the strided product is not the copy's, bit for bit
        k_t = np.ascontiguousarray(k_t)
    # causal softmax in place on the scores buffer
    scores = np.matmul(q, k_t)
    scores /= np.float32(np.sqrt(hd))
    if n > 1:  # a single query is the newest position, so no key lies in its future
        future = np.arange(pos_start + n) > np.arange(pos_start, pos_start + n)[:, None]
        np.copyto(scores, np.float32(-np.inf), where=future)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    np.matmul(scores, v_all, out=out)


class ToyTransformer:
    """Embedding + a measured block stack + final norm and projection."""

    def __init__(self, config: ModelConfig, embed: np.ndarray, blocks: list[TransformerBlock], ln_f_gain: np.ndarray):
        self.config = config
        self.embed = embed
        self.blocks = blocks
        self.ln_f_gain = ln_f_gain
        self._unembed = np.ascontiguousarray(embed.T)

    @property
    def layer_count(self) -> int:
        return len(self.blocks)

    def new_cache(self, rows: int = 1, capacity: int | None = None) -> KVCache:
        """Cache for `rows` sequences of up to `capacity` positions (default max_seq)."""
        cfg = self.config
        return KVCache(len(self.blocks), rows, cfg.head_count,
                       cfg.max_seq if capacity is None else capacity, cfg.depth // cfg.head_count)

    def stack_for(self, cache: KVCache, rows, starts) -> list[StepFn]:
        """Stack of step functions bound to one cache: batch row i of the
        hidden state is cache row rows[i], its tokens starting at position
        starts[i]. Adjacent rows at one position form a run, resolved here once
        per step as (batch slice, cache-row slice, first position)."""
        rows, starts = [int(r) for r in rows], [int(p) for p in starts]
        cuts = [b for b in range(1, len(rows)) if rows[b] != rows[b - 1] + 1 or starts[b] != starts[b - 1]]
        bounds = [0, *cuts, len(rows)]
        runs = [(slice(i, j), slice(rows[i], rows[i] + j - i), starts[i]) for i, j in zip(bounds, bounds[1:])]

        def bind(i, block):
            return lambda h: block.forward(h, cache, i, runs)
        return [bind(i, blk) for i, blk in enumerate(self.blocks)]

    def logits_from_hidden(self, h: np.ndarray) -> np.ndarray:
        return np.matmul(layer_norm_pre(h, self.ln_f_gain), self._unembed)

    def without_layer(self, index: int) -> "ToyTransformer":
        """Copy of the model with one block removed (weights shared)."""
        if not 0 <= index < len(self.blocks):
            raise IndexError(f"layer index {index} out of range for {len(self.blocks)} layers")
        cfg = dataclasses.replace(self.config, layer_count=len(self.blocks) - 1)
        blocks = self.blocks[:index] + self.blocks[index + 1:]
        return ToyTransformer(cfg, self.embed, blocks, self.ln_f_gain)

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {"embed": self.embed, "ln_f.gain": self.ln_f_gain}
        for i, blk in enumerate(self.blocks):
            out.update(blk.named_tensors(f"block{i}"))
        return out


def _tensor_shapes(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], int | None]]:
    """Every model tensor: name -> (shape, fan_in). fan_in None marks a
    norm gain, initialised to ones; the rest are drawn from their named
    stream, uniform in (-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    d, f = config.depth, config.ffn_dim
    block = {"ln1_gain": ((d,), None), "wq": ((d, d), d), "wk": ((d, d), d), "wv": ((d, d), d),
             "wo": ((d, d), d), "ln2_gain": ((d,), None), "w1": ((d, f), d), "w2": ((f, d), f)}
    shapes = {"embed": ((config.vocab_size, d), d), "ln_f.gain": ((d,), None)}
    for i in range(config.layer_count):
        shapes.update({f"block{i}.{name}": block[attr] for name, attr in _BLOCK_TENSORS.items()})
    return shapes


def _from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray]) -> ToyTransformer:
    blocks = [TransformerBlock(**{attr: tensors[f"block{i}.{name}"] for name, attr in _BLOCK_TENSORS.items()},
                               head_count=config.head_count)
              for i in range(config.layer_count)]
    return ToyTransformer(config, tensors["embed"], blocks, tensors["ln_f.gain"])


def build_model(config: ModelConfig) -> ToyTransformer:
    """Deterministic model from the config seed. Same config, same bits.

    Every drawn tensor's stream is drawn from its start in one _draw_streams batch, and
    each tensor's floats are written over its own draws."""
    shapes = _tensor_shapes(config)
    drawn = [name for name, (_, fan_in) in shapes.items() if fan_in is not None]
    draws = _draw_streams([stream_for(config.seed, name) for name in drawn],
                          [math.prod(shapes[name][0]) for name in drawn])
    tensors = {name: np.ones(shape, dtype=DTYPE) for name, (shape, fan_in) in shapes.items() if fan_in is None}
    for name, u in zip(drawn, draws):
        shape, fan_in = shapes[name]
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = _to_uniform(u, -bound, bound).reshape(shape)
    return _from_tensors(config, tensors)


_CONFIG_FIELDS = ("layer_count", "depth", "head_count", "ffn_dim", "vocab_size", "max_seq")


def save_weights(model: ToyTransformer, path) -> int:
    """Write the model to a tensor container. Returns bytes written.

    The structural config rides along as a reserved "config" tensor of
    six values (layer_count, depth, head_count, ffn_dim, vocab_size,
    max_seq); the build seed is not persisted. float32 holds every integer
    up to 2**24 exactly, so a larger field raises ValueError naming it,
    before the file is opened.
    """
    values = [getattr(model.config, f) for f in _CONFIG_FIELDS]
    for name, value in zip(_CONFIG_FIELDS, values):
        if value > 2 ** 24:
            raise ValueError(f"config field {name} = {value} is over 2**24, "
                             "so the container's float32 'config' tensor cannot hold it exactly")
    tensors = model.named_tensors()
    tensors["config"] = np.array(values, dtype=DTYPE)
    return save_container(tensors, path)


def load_weights(path) -> ToyTransformer:
    """Load a model from a tensor container written by save_weights."""
    tensors = load_container(path)
    if "config" not in tensors:
        raise ContainerError(f"{path}: missing 'config' tensor")
    raw = tensors["config"]
    if raw.shape != (len(_CONFIG_FIELDS),) or not np.all(np.isfinite(raw) & (raw == np.round(raw))):
        raise ContainerError(f"{path}: malformed 'config' tensor")
    config = ModelConfig(**{f: int(x) for f, x in zip(_CONFIG_FIELDS, raw)}, seed=0)
    # embed, ln_f.gain and each block's, checked before _tensor_shapes grows with the claim;
    # once it holds, a file without unknown names has every expected one
    needed, held = 2 + len(_BLOCK_TENSORS) * config.layer_count, len(tensors) - 1
    if needed > held:
        raise ContainerError(f"{path}: missing tensor(s): config claims {config.layer_count} layers, "
                             f"which need {needed} tensors, but the file holds {held}")
    expected = _tensor_shapes(config)
    unknown = sorted(set(tensors) - set(expected) - {"config"})
    if unknown:
        raise ContainerError(f"{path}: unknown tensor name(s): {', '.join(unknown)}")
    for name, (shape, _) in expected.items():
        if tensors[name].shape != shape:
            raise ContainerError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
    return _from_tensors(config, tensors)


@dataclass
class GenerationState:
    """Mutable per-sequence decoding state: one row of a KVCache. Single-threaded.

    position is the number of tokens forwarded so far (prompt and
    response). error holds the ValueError that stopped the row's last
    generate call (a token past max_seq or the cache's capacity);
    None otherwise.
    """

    sequence_id: str
    cache: KVCache
    position: int
    last_logits: np.ndarray
    row: int = 0
    error: ValueError | None = None


def _prompt_ids(tokens, config: ModelConfig) -> list[int]:
    """A prompt's token ids; ValueError for an empty prompt, one longer
    than max_seq, or a token outside the vocabulary."""
    if isinstance(tokens, str):
        ids = encode_text(tokens)
    else:
        ids = [int(t) for t in tokens]
    for t in ids:
        if not 0 <= t < config.vocab_size:
            raise ValueError(f"token id {t} outside vocabulary [0, {config.vocab_size})")
    if not ids:
        raise ValueError("prompt must be non-empty")
    if len(ids) > config.max_seq:
        raise ValueError(f"prompt length {len(ids)} exceeds max_seq {config.max_seq}")
    return ids


def _check_rows(rows, held: int) -> None:
    """ValueError naming the first of rows outside a cache's `held` rows or repeated."""
    seen = set()
    for r in rows:
        if not 0 <= r < held:
            raise ValueError(f"cache row {r} is outside the cache's {held} rows [0, {held})")
        if r in seen:
            raise ValueError(f"cache row {r} is given twice: a batch needs distinct cache rows")
        seen.add(r)


def _forward(model: ToyTransformer, cache: KVCache, rows, starts, ids, phase: str, sequence_ids,
             policy: HaltPolicy, forced_voids) -> tuple[TraceColumns, np.ndarray]:
    """One run_stack over B rows of n tokens: row b is tokens ids[b] at
    positions starts[b].. in cache row rows[b]. Returns the trace of the
    B * n tokens, row by row, and each row's last token's logits, (B, vocab)."""
    ids = np.asarray(ids, dtype=np.int64)
    b, n = ids.shape
    positions = np.add.outer(np.asarray(starts, dtype=np.int64), np.arange(n))
    h0 = model.embed[ids] + sinusoidal_positions(positions, model.config.depth)
    outcome = run_stack(model.stack_for(cache, rows, starts), h0, policy, forced_voids)
    logits = model.logits_from_hidden(outcome.final_hidden[:, -1:])[:, 0]

    def per_token(layers_first: np.ndarray, dtype) -> np.ndarray:  # (T, B, n) -> (B * n, T)
        return layers_first.transpose(1, 2, 0).reshape(b * n, -1).astype(dtype, copy=False)

    def repeated(value) -> np.ndarray:  # np.full(dtype=object) would store a copy of a str per record
        return np.repeat(np.array([value], dtype=object), b * n)

    trace = TraceColumns(
        sequence_id=np.repeat(np.array(sequence_ids, dtype=object), n),
        token_index=positions.reshape(-1),
        phase=repeated(phase),
        token_id=ids.reshape(-1),
        layer_flags=per_token(~outcome.void_flags, bool),
        layer_norms=per_token(outcome.token_norms, np.float64),
        layer_deltas=per_token(outcome.token_deltas, np.float64),
        alpha=np.full(b * n, float(policy.alpha)),
        formula=repeated("modified"),
        skip_mode=repeated(policy.skip_mode.value),
    )
    return trace, logits


def run_prompt(model: ToyTransformer, prompts, policy: HaltPolicy, sequence_ids, forced_voids=None,
               cache: KVCache | None = None, rows=None) -> tuple[list[GenerationState], TraceColumns]:
    """Forward equal-length prompts as one batch (prompt-processing phase).

    prompts, sequence_ids and rows are equal-length lists: prompt b is
    written into cache row rows[b] (default b). The batch is one
    run_stack, and every op in it works row by row, so each prompt's
    state, KV row and records equal those of running it alone. Returns
    the decoding states (next-token logits pending) and one trace block,
    the prompts' records in list order.

    The default cache has max(rows) + 1 rows of max_seq positions, so it
    costs 2 * layers * rows * max_seq * depth * 4 bytes: 128 MiB for one
    row of d16/h2/l1 at max_seq 2^20. The CLI sizes its own caches to
    each group's prompts plus --max-new.

    forced_voids is one flag per layer, or per layer and unit of the
    batch's token grid. A str for prompts or sequence_ids raises
    TypeError before anything runs: it would be taken as one prompt per character.
    """
    for name, value in (("prompts", prompts), ("sequence_ids", sequence_ids)):
        if isinstance(value, str):
            raise TypeError(f"{name} must be a list, one entry per prompt, not the str {value!r}: pass [{value!r}]")
    rows = list(range(len(prompts))) if rows is None else list(rows)
    if not 0 < len(prompts) == len(sequence_ids) == len(rows):
        raise ValueError(f"a batch needs as many prompts, sequence ids and rows, at least one: "
                         f"got {len(prompts)}, {len(sequence_ids)} and {len(rows)}")
    ids = [_prompt_ids(p, model.config) for p in prompts]
    if len({len(x) for x in ids}) > 1:
        raise ValueError(f"batched prompts must share one length, got lengths {sorted({len(x) for x in ids})}")
    held = max(0, *rows) + 1 if cache is None else cache.rows  # checked before a default cache is made
    _check_rows(rows, held)
    if cache is None:
        cache = model.new_cache(held)
    trace, logits = _forward(model, cache, rows, [0] * len(rows), ids, PHASE_PP, sequence_ids, policy, forced_voids)
    states = [GenerationState(s, cache, len(ids[0]), logits[b], r) for b, (s, r) in enumerate(zip(sequence_ids, rows))]
    return states, trace


def generate(states: list[GenerationState], model: ToyTransformer, policy: HaltPolicy, max_new: int,
             forced_voids=None) -> tuple[list[list[int]], list[TraceColumns]]:
    """Greedy decoding (response-generation phase) of states that share one KVCache, a row each.

    Each emitted token is forwarded through the stack (so it gets one
    trace record) to produce the logits for the next token. A row stops
    after max_new tokens or when the end-of-text byte wins the argmax;
    the end-of-text byte itself is not emitted. A row whose next token
    would pass max_seq or the cache's capacity stops with the ValueError
    in its state.error, and the other rows go on.

    The rows decode as one batch: each position is one (B, 1, D)
    run_stack over the rows still decoding, and every op in it works
    row by row, so a row's tokens, records and logits equal those of
    decoding it alone. forced_voids is per sequence: one flag per layer.

    Returns (ids per state, trace per state), in the order of states;
    a state's trace holds one record per emitted token.
    """
    if len({id(s.cache) for s in states}) > 1:
        raise ValueError("states decoded together must share one KVCache")
    if states:
        _check_rows([s.row for s in states], states[0].cache.rows)
    t_total = model.layer_count
    if forced_voids is not None:
        forced_voids = np.asarray(forced_voids, dtype=bool)
        if forced_voids.shape[:1] != (t_total,) or forced_voids.size != t_total:
            raise ShapeError(f"forced_voids shape {forced_voids.shape} is not one flag per layer ({t_total})")
        forced_voids = forced_voids.reshape(t_total)
    limit, bound = model.config.max_seq, "max_seq"  # the smaller of max_seq and the cache's capacity
    if states and states[0].cache.capacity < limit:
        limit, bound = states[0].cache.capacity, "the KV cache's capacity"
    for s in states:
        s.error = None

    out_ids: list[list[int]] = [[] for _ in states]
    steps: list[TraceColumns] = []  # one block per position, its rows' states in `owners`
    owners: list[int] = []
    # in cache-row order, so rows decoding at one position form runs
    live = sorted(range(len(states)), key=lambda i: states[i].row)
    while True:
        step, tokens = [], []
        for i in live:
            s = states[i]
            if len(out_ids[i]) >= max_new:
                continue
            nxt = int(np.argmax(s.last_logits))
            if nxt == EOT:
                continue
            if s.position >= limit:
                s.error = ValueError(f"position {s.position} overflows {bound} {limit}")
                continue
            step.append(i)
            tokens.append(nxt)
        if not step:
            break
        live = step
        trace, logits = _forward(model, states[step[0]].cache, [states[i].row for i in step],
                                 [states[i].position for i in step], [[t] for t in tokens], PHASE_RG,
                                 [states[i].sequence_id for i in step], policy, forced_voids)
        steps.append(trace)
        owners += step
        for b, i in enumerate(step):
            s = states[i]
            out_ids[i].append(tokens[b])
            s.position += 1
            s.last_logits = logits[b]
    trace = TraceColumns.concat(steps) if steps else TraceColumns.empty(t_total)
    owner = np.array(owners, dtype=np.int64)
    return out_ids, [trace[owner == i] for i in range(len(states))]
