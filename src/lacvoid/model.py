"""Minimal deterministic decoder-only pre-LN transformer.

Byte-level vocabulary (256 ids, utf-8 bytes), greedy decoding of many
sequences as one batch, and a KV cache preallocated per layer. Each
transformer block (attention + FFN together) is one
step function of the measured layer stack; embedding and the final
projection sit outside it. Weights come from named xoshiro256**
streams (see rng), so a seed fully determines the model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .container import load_container, save_container
from .errors import ContainerError, ShapeError
from .executor import StepFn, run_stack
from .halting import HaltPolicy
from .rng import stream_for
from .tensors import DTYPE, NormGranularity, layer_norm_pre, matmul
from .trace import PHASE_PP, PHASE_RG, TraceRecord

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
    # tanh approximation, float32 throughout
    x = np.asarray(x, dtype=DTYPE)
    c = np.float32(0.7978845608028654)
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


class KVCache:
    """Per-layer key/value buffers, each (rows, heads, capacity, head_dim).

    Every buffer is allocated once. A forward chunk writes its keys and
    values in place at its positions and gets back views of the buffer,
    so the cache is never reallocated. Attention's matmul still copies
    the views it reads into contiguous operands.
    """

    def __init__(self, layer_count: int, rows: int, head_count: int, capacity: int, head_dim: int):
        shape = (rows, head_count, capacity, head_dim)
        self.capacity = capacity
        self.k = [np.zeros(shape, dtype=DTYPE) for _ in range(layer_count)]
        self.v = [np.zeros(shape, dtype=DTYPE) for _ in range(layer_count)]

    def append(self, layer: int, rows: slice, pos: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write k and v, each (rows, heads, n, head_dim), at positions pos..pos+n-1
        of the given cache rows. Returns views of those rows' keys and
        values over positions 0..pos+n-1."""
        end = pos + k.shape[2]
        if end > self.capacity:
            raise ValueError(f"position {end - 1} overflows max_seq {self.capacity}")
        self.k[layer][rows, :, pos:end] = k
        self.v[layer][rows, :, pos:end] = v
        return self.k[layer][rows, :, :end], self.v[layer][rows, :, :end]


class TransformerBlock:
    """One pre-LN block: h += attn(norm(h)); h += ffn(norm(h))."""

    def __init__(self, ln1_gain, wq, wk, wv, wo, ln2_gain, w1, w2, head_count: int):
        self.ln1_gain = ln1_gain
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo
        self.ln2_gain = ln2_gain
        self.w1, self.w2 = w1, w2
        self.head_count = head_count

    def named_tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.ln1.gain": self.ln1_gain,
            f"{prefix}.attn.wq": self.wq,
            f"{prefix}.attn.wk": self.wk,
            f"{prefix}.attn.wv": self.wv,
            f"{prefix}.attn.wo": self.wo,
            f"{prefix}.ln2.gain": self.ln2_gain,
            f"{prefix}.ffn.w1": self.w1,
            f"{prefix}.ffn.w2": self.w2,
        }

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, n, d = x.shape
        hd = d // self.head_count
        return x.reshape(b, n, self.head_count, hd).transpose(0, 2, 1, 3)

    def forward(self, h: np.ndarray, cache: KVCache, layer: int, segments) -> np.ndarray:
        """One block over h (B, n, D). segments are (row_start, row_stop, pos_start)
        triples that map h's batch rows, in order, to runs of cache rows
        whose n tokens start at one position; attention runs once per run."""
        b, n, d = h.shape
        hd = d // self.head_count

        a_in = layer_norm_pre(h, self.ln1_gain)
        q = self._split_heads(matmul(a_in, self.wq))
        k = self._split_heads(matmul(a_in, self.wk))
        v = self._split_heads(matmul(a_in, self.wv))
        ctx = np.empty((b, self.head_count, n, hd), dtype=DTYPE)
        i = 0
        for row_start, row_stop, pos_start in segments:
            j = i + row_stop - row_start
            k_all, v_all = cache.append(layer, slice(row_start, row_stop), pos_start, k[i:j], v[i:j])
            scores = matmul(q[i:j], k_all.transpose(0, 1, 3, 2)) / np.float32(np.sqrt(hd))
            qpos = pos_start + np.arange(n)
            kpos = np.arange(pos_start + n)
            future = kpos[None, :] > qpos[:, None]
            scores = np.where(future, np.float32(-np.inf), scores)
            scores = scores - scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            ctx[i:j] = matmul(weights, v_all)
            i = j
        h = h + matmul(ctx.transpose(0, 2, 1, 3).reshape(b, n, d), self.wo)

        f_in = layer_norm_pre(h, self.ln2_gain)
        h = h + matmul(gelu(matmul(f_in, self.w1)), self.w2)
        return h


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
        starts[i]. Adjacent rows at one position share an attention call."""
        segments: list[list[int]] = []
        for row, pos in zip(rows, starts):
            if segments and segments[-1][1] == row and segments[-1][2] == pos:
                segments[-1][1] += 1
            else:
                segments.append([int(row), int(row) + 1, int(pos)])

        def bind(i, block):
            return lambda h: block.forward(h, cache, i, segments)
        return [bind(i, blk) for i, blk in enumerate(self.blocks)]

    def logits_from_hidden(self, h: np.ndarray) -> np.ndarray:
        return matmul(layer_norm_pre(h, self.ln_f_gain), self._unembed)

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
    shapes = {"embed": ((config.vocab_size, d), d), "ln_f.gain": ((d,), None)}
    for i in range(config.layer_count):
        p = f"block{i}"
        shapes.update({
            f"{p}.ln1.gain": ((d,), None),
            f"{p}.attn.wq": ((d, d), d),
            f"{p}.attn.wk": ((d, d), d),
            f"{p}.attn.wv": ((d, d), d),
            f"{p}.attn.wo": ((d, d), d),
            f"{p}.ln2.gain": ((d,), None),
            f"{p}.ffn.w1": ((d, f), d),
            f"{p}.ffn.w2": ((f, d), f),
        })
    return shapes


def _from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray]) -> ToyTransformer:
    blocks = []
    for i in range(config.layer_count):
        p = f"block{i}"
        blocks.append(TransformerBlock(
            ln1_gain=tensors[f"{p}.ln1.gain"], wq=tensors[f"{p}.attn.wq"], wk=tensors[f"{p}.attn.wk"],
            wv=tensors[f"{p}.attn.wv"], wo=tensors[f"{p}.attn.wo"], ln2_gain=tensors[f"{p}.ln2.gain"],
            w1=tensors[f"{p}.ffn.w1"], w2=tensors[f"{p}.ffn.w2"], head_count=config.head_count,
        ))
    return ToyTransformer(config, tensors["embed"], blocks, tensors["ln_f.gain"])


def build_model(config: ModelConfig) -> ToyTransformer:
    """Deterministic model from the config seed. Same config, same bits."""
    tensors = {}
    for name, (shape, fan_in) in _tensor_shapes(config).items():
        if fan_in is None:
            tensors[name] = np.ones(shape, dtype=DTYPE)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            n = int(np.prod(shape))
            tensors[name] = stream_for(config.seed, name).uniform(n, -bound, bound).reshape(shape)
    return _from_tensors(config, tensors)


_CONFIG_FIELDS = ("layer_count", "depth", "head_count", "ffn_dim", "vocab_size", "max_seq")


def save_weights(model: ToyTransformer, path) -> int:
    """Write the model to a tensor container. Returns bytes written.

    The structural config rides along as a reserved "config" tensor of
    six values (layer_count, depth, head_count, ffn_dim, vocab_size,
    max_seq); the build seed is not persisted.
    """
    tensors = model.named_tensors()
    tensors["config"] = np.array([getattr(model.config, f) for f in _CONFIG_FIELDS], dtype=DTYPE)
    return save_container(tensors, path)


def load_weights(path) -> ToyTransformer:
    """Load a model from a tensor container written by save_weights."""
    tensors = load_container(path)
    if "config" not in tensors:
        raise ContainerError(f"{path}: missing 'config' tensor")
    raw = tensors["config"]
    if raw.shape != (len(_CONFIG_FIELDS),) or not np.all(raw == np.round(raw)):
        raise ContainerError(f"{path}: malformed 'config' tensor")
    config = ModelConfig(**{f: int(x) for f, x in zip(_CONFIG_FIELDS, raw)}, seed=0)
    # embed, ln_f.gain and eight per block, checked before _tensor_shapes grows with the claim;
    # once it holds, a file without unknown names has every expected one
    needed, held = 2 + 8 * config.layer_count, len(tensors) - 1
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


def _coerce_tokens(tokens, vocab_size: int) -> list[int]:
    if isinstance(tokens, str):
        ids = encode_text(tokens)
    elif isinstance(tokens, (bytes, bytearray)):
        ids = list(tokens)
    else:
        ids = [int(t) for t in tokens]
    for t in ids:
        if not 0 <= t < vocab_size:
            raise ValueError(f"token id {t} outside vocabulary [0, {vocab_size})")
    return ids


def _forward(model: ToyTransformer, cache: KVCache, rows, starts, ids, phase: str, sequence_ids,
             policy: HaltPolicy, forced_voids) -> tuple[list[list[TraceRecord]], np.ndarray]:
    """One run_stack over B rows of n tokens: row b is tokens ids[b] at
    positions starts[b].. in cache row rows[b]. Returns each row's trace
    records and its last token's logits, (B, vocab)."""
    ids = np.asarray(ids)
    positions = np.add.outer(starts, np.arange(ids.shape[1]))
    h0 = model.embed[ids] + sinusoidal_positions(positions, model.config.depth)
    outcome = run_stack(model.stack_for(cache, rows, starts), h0, policy, forced_voids)
    logits = model.logits_from_hidden(outcome.final_hidden[:, -1:])[:, 0]
    kept = ~outcome.void_flags
    records = []
    for b, (row_ids, start, sequence_id) in enumerate(zip(ids, starts, sequence_ids)):
        records.append([TraceRecord(
            sequence_id=sequence_id,
            token_index=start + j,
            phase=phase,
            token_id=int(tok),
            layer_flags=kept[:, b, j].tolist(),
            layer_norms=outcome.token_norms[:, b, j].tolist(),
            layer_deltas=outcome.token_deltas[:, b, j].tolist(),
            alpha=float(policy.alpha),
            formula="modified",
            skip_mode=policy.skip_mode.value,
        ) for j, tok in enumerate(row_ids)])
    return records, logits


def run_prompt(model: ToyTransformer, prompt_tokens, policy: HaltPolicy, sequence_id: str = "seq0",
               forced_voids=None, cache: KVCache | None = None, row: int = 0
               ) -> tuple[GenerationState, list[TraceRecord]]:
    """Forward the whole prompt grid at once (prompt-processing phase).

    Writes the prompt's keys and values into one row of `cache` (a new
    one-row cache of max_seq positions by default). Returns the decoding
    state (next-token logits pending) and one trace record per prompt
    token.
    """
    ids = _coerce_tokens(prompt_tokens, model.config.vocab_size)
    if not ids:
        raise ValueError("prompt must be non-empty")
    if len(ids) > model.config.max_seq:
        raise ValueError(f"prompt length {len(ids)} exceeds max_seq {model.config.max_seq}")
    if cache is None:
        cache = model.new_cache()
    (records,), (logits,) = _forward(model, cache, [row], [0], [ids], PHASE_PP, [sequence_id], policy, forced_voids)
    return GenerationState(sequence_id, cache, len(ids), logits, row), records


def generate(states: list[GenerationState], model: ToyTransformer, policy: HaltPolicy, max_new: int,
             forced_voids=None) -> tuple[list[list[int]], list[list[TraceRecord]]]:
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
    decoding it alone. BATCH granularity is applied per row (the EXAMPLE
    reduction), as for one sequence. forced_voids is per sequence: one
    flag per layer.

    Returns (ids per state, records per state), in the order of states.
    """
    if len({id(s.cache) for s in states}) > 1:
        raise ValueError("states decoded together must share one KVCache")
    if len({s.row for s in states}) != len(states):
        raise ValueError("states decoded together need distinct cache rows")
    t_total = model.layer_count
    if forced_voids is not None:
        forced_voids = np.asarray(forced_voids, dtype=bool)
        if forced_voids.shape[:1] != (t_total,) or forced_voids.size != t_total:
            raise ShapeError(f"forced_voids shape {forced_voids.shape} is not one flag per layer ({t_total})")
        forced_voids = forced_voids.reshape(t_total)
    if policy.granularity is NormGranularity.BATCH:
        policy = dataclasses.replace(policy, granularity=NormGranularity.EXAMPLE)
    limit = min(model.config.max_seq, states[0].cache.capacity) if states else 0
    for s in states:
        s.error = None

    out_ids: list[list[int]] = [[] for _ in states]
    out_records: list[list[TraceRecord]] = [[] for _ in states]
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
                s.error = ValueError(f"position {s.position} overflows max_seq {limit}")
                continue
            step.append(i)
            tokens.append(nxt)
        if not step:
            break
        live = step
        records, logits = _forward(model, states[step[0]].cache, [states[i].row for i in step],
                                   [states[i].position for i in step], [[t] for t in tokens], PHASE_RG,
                                   [states[i].sequence_id for i in step], policy, forced_voids)
        for b, i in enumerate(step):
            s = states[i]
            out_ids[i].append(tokens[b])
            out_records[i] += records[b]
            s.position += 1
            s.last_logits = logits[b]
    return out_ids, out_records
