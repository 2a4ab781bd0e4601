"""The three benchmark workloads: seeded inputs and the CLI commands they run.

Every workload runs one forward command (`trace` or `sweep`); `replay`
then runs `report` on the trace it wrote. The workload seed generates
the prompt file (printable ASCII, one prompt per line) and, for
`prefill`, the weight container. The program sees only those files;
the seeded models use the CLI's default model seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Printable ASCII without the space, so no prompt line is blank or trimmed.
_PROMPT_ALPHABET = [chr(c) for c in range(33, 127)]

# Shape of the prefill weight container: l4, d128, h4, f512, vocab 256, max_seq 256.
PREFILL_CONFIG = (4, 128, 4, 512, 256, 256)


@dataclass(frozen=True)
class Workload:
    name: str
    prompt_count: int
    prompt_bytes: int
    max_new: int
    forward: tuple[str, ...]  # forward-command argv without the sized and path flags
    alphas: tuple[float, ...] = ()  # only for sweep
    report: bool = False  # run `report` on the trace after the forward command


WORKLOADS = {
    # Every RG token is one run_stack call with n=1, so per-call costs dominate:
    # controller l2_norms and decide, KVCache.append copies, wrapper matmuls and
    # the GIL-bound thread pool. Batched decode and real skipping act here.
    "decode": Workload(
        "decode", prompt_count=8, prompt_bytes=16, max_new=48,
        forward=("trace", "--seed-model", "d64,h4,l8", "--mode", "halt-frozen", "--granularity", "token")),
    # Each prompt is one (1, 240, 128) grid, so BLAS matmuls and L x L attention
    # do the work; --weights goes through the container and load_weights, whose
    # RNG skeleton makes this the largest set-up. Example granularity takes the
    # executor's non-token masking path.
    "prefill": Workload(
        "prefill", prompt_count=96, prompt_bytes=240, max_new=1,
        forward=("trace", "--weights", "{weights}", "--mode", "skip-identity", "--granularity", "example")),
    # A tiny model keeps the forward pass small, so offline replay
    # (offline_void_mask per record and alpha), trace write and read, the
    # aggregators and the PGM bitmaps dominate.
    "replay": Workload(
        "replay", prompt_count=16, prompt_bytes=224, max_new=16,
        forward=("sweep", "--seed-model", "d16,h2,l4"), alphas=(0.2, 0.4, 0.6, 0.8, 1.0), report=True),
}


def make_inputs(workload: Workload, seed: int, inputs_dir: Path) -> dict[str, Path]:
    """Write the workload's input files for one seed; same seed, same bytes."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rnd = random.Random(f"{workload.name}:{seed}")
    prompts = ["".join(rnd.choice(_PROMPT_ALPHABET) for _ in range(workload.prompt_bytes))
               for _ in range(workload.prompt_count)]
    files = {"prompts": inputs_dir / "prompts.txt"}
    files["prompts"].write_text("\n".join(prompts) + "\n", encoding="ascii")
    if "{weights}" in workload.forward:
        files["weights"] = inputs_dir / "weights.lactnsr"
        _write_weights(rnd, files["weights"])
    return files


def _write_weights(rnd: random.Random, path: Path) -> None:
    """A container in the layout save_weights writes, with seeded uniform weights."""
    from lacvoid.container import save_container

    layers, d, heads, f, vocab, max_seq = PREFILL_CONFIG

    def uniform(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        n = math.prod(shape)
        return np.array([rnd.uniform(-bound, bound) for _ in range(n)], dtype=np.float32).reshape(shape)

    ones = np.ones(d, dtype=np.float32)
    tensors = {"embed": uniform((vocab, d), d), "ln_f.gain": ones,
               "config": np.array(PREFILL_CONFIG, dtype=np.float32)}
    for i in range(layers):
        p = f"block{i}"
        tensors.update({
            f"{p}.ln1.gain": ones, f"{p}.ln2.gain": ones,
            f"{p}.attn.wq": uniform((d, d), d), f"{p}.attn.wk": uniform((d, d), d),
            f"{p}.attn.wv": uniform((d, d), d), f"{p}.attn.wo": uniform((d, d), d),
            f"{p}.ffn.w1": uniform((d, f), d), f"{p}.ffn.w2": uniform((f, d), f),
        })
    save_container(tensors, path)


def commands(workload: Workload, inputs: dict[str, Path], out_dir: Path) -> list[list[str]]:
    """CLI argv lists for one iteration: the forward command, then report if the workload has it."""
    forward = [a.replace("{weights}", str(inputs.get("weights", ""))) for a in workload.forward]
    forward += ["--prompt-file", str(inputs["prompts"]), "--max-new", str(workload.max_new), "--out", str(out_dir)]
    if workload.alphas:
        forward += ["--alphas", ",".join(str(a) for a in workload.alphas)]
    report = ["report", "--trace", str(out_dir / "trace.jsonl"), "--out", str(out_dir)]
    return [forward, report] if workload.report else [forward]
