"""Minimal deterministic decoder-only pre-LN transformer.

Byte-level vocabulary (256 ids, utf-8 bytes), greedy decoding, explicit
KV cache. Each transformer block (attention + FFN together) is one
step function of the measured layer stack; embedding and the final
projection sit outside it. Weights come from named xoshiro256**
streams (see rng), so a seed fully determines the model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .container import load_container, save_container
from .errors import ContainerError
from .executor import LayerStack, expand_unit_to_tokens, run_stack
from .halting import HaltPolicy
from .rng import stream_for
from .tensors import DTYPE, layer_norm_pre, matmul
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


def sinusoidal_positions(max_seq: int, depth: int) -> np.ndarray:
    """Fixed position table: pe[p, 2i] = sin(p / 10000^(2i/depth)), pe[p, 2i+1] = cos."""
    pos = np.arange(max_seq, dtype=np.float64)[:, None]
    i = np.arange(depth // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / depth)
    pe = np.zeros((max_seq, depth), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe.astype(DTYPE)


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, float32 throughout
    x = np.asarray(x, dtype=DTYPE)
    c = np.float32(0.7978845608028654)
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


class KVCache:
    """Per-layer key/value arrays, appended once per forward chunk."""

    def __init__(self, layer_count: int):
        self._k: list[np.ndarray | None] = [None] * layer_count
        self._v: list[np.ndarray | None] = [None] * layer_count

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._k[layer] is None:
            self._k[layer] = k
            self._v[layer] = v
        else:
            self._k[layer] = np.concatenate([self._k[layer], k], axis=2)
            self._v[layer] = np.concatenate([self._v[layer], v], axis=2)
        return self._k[layer], self._v[layer]


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

    def forward(self, h: np.ndarray, cache: KVCache, layer: int, pos_start: int) -> np.ndarray:
        b, n, d = h.shape
        hd = d // self.head_count

        a_in = layer_norm_pre(h, self.ln1_gain)
        q = self._split_heads(matmul(a_in, self.wq))
        k = self._split_heads(matmul(a_in, self.wk))
        v = self._split_heads(matmul(a_in, self.wv))
        k_all, v_all = cache.append(layer, k, v)
        past = k_all.shape[2] - n

        scores = matmul(q, k_all.transpose(0, 1, 3, 2)) / np.float32(np.sqrt(hd))
        qpos = pos_start + np.arange(n)
        kpos = np.arange(past + n)
        future = kpos[None, :] > qpos[:, None]
        scores = np.where(future, np.float32(-np.inf), scores)
        scores = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights = weights / weights.sum(axis=-1, keepdims=True)
        ctx = matmul(weights, v_all).transpose(0, 2, 1, 3).reshape(b, n, d)
        h = h + matmul(ctx, self.wo)

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
        self.positions = sinusoidal_positions(config.max_seq, config.depth)
        self._unembed = np.ascontiguousarray(embed.T)

    @property
    def layer_count(self) -> int:
        return len(self.blocks)

    def new_cache(self) -> KVCache:
        return KVCache(len(self.blocks))

    def stack_for(self, cache: KVCache, pos_start: int) -> LayerStack:
        """Stack of step functions bound to one cache and chunk position."""
        def bind(i, block):
            return lambda h: block.forward(h, cache, i, pos_start)
        return LayerStack([bind(i, blk) for i, blk in enumerate(self.blocks)])

    def embed_chunk(self, ids: list[int], pos_start: int) -> np.ndarray:
        return (self.embed[ids] + self.positions[pos_start:pos_start + len(ids)])[None, :, :]

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

    expected = _tensor_shapes(config)
    unknown = sorted(set(tensors) - set(expected) - {"config"})
    missing = sorted(set(expected) - set(tensors))
    if unknown:
        raise ContainerError(f"{path}: unknown tensor name(s): {', '.join(unknown)}")
    if missing:
        raise ContainerError(f"{path}: missing tensor name(s): {', '.join(missing)}")
    for name, (shape, _) in expected.items():
        if tensors[name].shape != shape:
            raise ContainerError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
    return _from_tensors(config, tensors)


@dataclass
class GenerationState:
    """Mutable per-sequence decoding state. Single-threaded."""

    sequence_id: str
    token_ids: list[int]
    phases: list[str]
    cache: KVCache
    position: int
    last_logits: np.ndarray


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


def _records_from_outcome(outcome, ids: list[int], start_index: int, phase: str,
                          sequence_id: str, policy: HaltPolicy) -> list[TraceRecord]:
    t_total = outcome.layer_count
    b, l = outcome.token_norms.shape[1:]
    token_void = np.stack([
        expand_unit_to_tokens(outcome.void_flags[t], (b, l), outcome.granularity) for t in range(t_total)
    ])
    records = []
    for j, tok in enumerate(ids):
        records.append(TraceRecord(
            sequence_id=sequence_id,
            token_index=start_index + j,
            phase=phase,
            token_id=int(tok),
            layer_flags=[not v for v in token_void[:, 0, j]],
            layer_norms=[float(x) for x in outcome.token_norms[:, 0, j]],
            layer_deltas=[float(x) for x in outcome.token_deltas[:, 0, j]],
            alpha=float(policy.alpha),
            formula=policy.formula.value,
            skip_mode=policy.skip_mode.value,
        ))
    return records


def run_prompt(model: ToyTransformer, prompt_tokens, policy: HaltPolicy, sequence_id: str = "seq0",
               forced_voids=None) -> tuple[GenerationState, list[TraceRecord]]:
    """Forward the whole prompt grid at once (prompt-processing phase).

    Returns the decoding state (KV cache populated, next-token logits
    pending) and one trace record per prompt token.
    """
    ids = _coerce_tokens(prompt_tokens, model.config.vocab_size)
    if not ids:
        raise ValueError("prompt must be non-empty")
    if len(ids) > model.config.max_seq:
        raise ValueError(f"prompt length {len(ids)} exceeds max_seq {model.config.max_seq}")
    cache = model.new_cache()
    h0 = model.embed_chunk(ids, 0)
    outcome = run_stack(model.stack_for(cache, 0), h0, policy, forced_voids)
    records = _records_from_outcome(outcome, ids, 0, PHASE_PP, sequence_id, policy)
    logits = model.logits_from_hidden(outcome.final_hidden[:, -1:, :])[0, 0]
    state = GenerationState(sequence_id, list(ids), [PHASE_PP] * len(ids), cache, len(ids), logits)
    return state, records


def generate(state: GenerationState, model: ToyTransformer, policy: HaltPolicy, max_new: int,
             forced_voids=None) -> tuple[list[int], list[TraceRecord]]:
    """Greedy decoding (response-generation phase).

    Each emitted token is forwarded through the stack (so it gets one
    trace record) to produce the logits for the next token. Stops after
    max_new tokens or when the end-of-text byte wins the argmax; the
    end-of-text byte itself is not emitted.
    """
    out_ids: list[int] = []
    records: list[TraceRecord] = []
    logits = state.last_logits
    for _ in range(max_new):
        nxt = int(np.argmax(logits))
        if nxt == EOT:
            break
        if state.position >= model.config.max_seq:
            raise ValueError(f"position {state.position} overflows max_seq {model.config.max_seq}")
        h0 = model.embed_chunk([nxt], state.position)
        outcome = run_stack(model.stack_for(state.cache, state.position), h0, policy, forced_voids)
        records.extend(_records_from_outcome(outcome, [nxt], state.position, PHASE_RG, state.sequence_id, policy))
        out_ids.append(nxt)
        state.token_ids.append(nxt)
        state.phases.append(PHASE_RG)
        state.position += 1
        logits = model.logits_from_hidden(outcome.final_hidden)[0, -1]
        state.last_logits = logits
    return out_ids, records
