"""Shared builders for scripted and random layer stacks and records."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from lacvoid import TraceRecord, write_trace


def add_constant_stack(increments) -> list:
    """Stack whose layer t adds a constant to every element.

    With depth-1 hidden states starting positive and staying positive,
    each layer's progress equals its increment exactly.
    """
    return [lambda h, c=np.float32(c): h + c for c in increments]


def random_affine_stack(seed: int, layer_count: int, depth: int) -> list:
    """Shape-preserving nonlinear layers with seeded weights."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(layer_count):
        w = rng.uniform(-0.5, 0.5, size=(depth, depth)).astype(np.float32)
        b = rng.uniform(-0.1, 0.1, size=depth).astype(np.float32)
        layers.append(lambda h, w=w, b=b: h + np.tanh(h @ w + b))
    return layers


def compose_stack(stack, h0: np.ndarray) -> np.ndarray:
    """Independent oracle: fold the layers directly, no controller."""
    h = h0
    for layer in stack:
        h = layer(h)
    return h


def make_record(seq="s0", token_index=0, phase="PP", token_id=65,
                flags=(True, True), norms=(1.0, 2.0), deltas=(1.0, 1.0),
                alpha=0.8, formula="modified", skip_mode="detect") -> TraceRecord:
    return TraceRecord(
        sequence_id=seq, token_index=token_index, phase=phase, token_id=token_id,
        layer_flags=list(flags), layer_norms=[float(x) for x in norms],
        layer_deltas=[float(x) for x in deltas], alpha=alpha, formula=formula, skip_mode=skip_mode,
    )


def reference_line(r) -> str:
    """The record-at-a-time encoding that the template writer replaced, as an independent oracle."""
    def fmt(x):  # a NaN or infinity as Python's json spells it, so a refused value still decodes
        return "%.9g" % float(x) if math.isfinite(x) else json.dumps(float(x))
    return ("{"
            f'"sequence_id":{json.dumps(r.sequence_id)},"token_index":{int(r.token_index)},'
            f'"phase":"{r.phase}","token_id":{int(r.token_id)},'
            f'"layer_flags":[{",".join("1" if f else "0" for f in r.layer_flags)}],'
            f'"layer_norms":[{",".join(fmt(x) for x in r.layer_norms)}],'
            f'"layer_deltas":[{",".join(fmt(x) for x in r.layer_deltas)}],'
            f'"alpha":{fmt(r.alpha)},"formula":{json.dumps(r.formula)},"skip_mode":{json.dumps(r.skip_mode)}'
            "}")


def write_trace_file(block, path) -> int:
    """Write a block as the whole of the file at path, replacing what it held. Returns bytes written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        return write_trace(block, fh)


def reference_lines(block) -> list[str]:
    """reference_line of each record of a block, in order."""
    return [reference_line(r) for r in block]


def white_pixel_count(pgm_text: str) -> int:
    """Number of 255 pixels in a P2 image."""
    body = pgm_text.split("\n", 3)[3]
    return sum(1 for v in body.split() if v == "255")


@pytest.fixture
def rng42():
    return np.random.default_rng(42)
