import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacvoid import ContainerError, load_container, save_container

# Trailing and leading unit extents, so "," -> "." inside a shape keeps the element count.
TENSORS = {
    "a": np.arange(2, dtype=np.float32).reshape(2, 1, 1),
    "b": np.linspace(-1, 1, 3, dtype=np.float32).reshape(1, 1, 3),
}


def saved_bytes(tensors) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.lactnsr"
        save_container(tensors, path)
        return path.read_bytes()


def load_bytes(blob: bytes) -> dict[str, np.ndarray]:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.lactnsr"
        path.write_bytes(blob)
        return load_container(path)


VALID = saved_bytes(TENSORS)


def container_with(entries: str, payload: bytes) -> bytes:
    header = ("{" + entries + "}").encode("utf-8")
    return b"LACTNSR1" + len(header).to_bytes(4, "little") + header + payload


class TestStrictHeader:
    def test_valid_round_trips(self):
        loaded = load_bytes(VALID)
        assert saved_bytes(loaded) == VALID

    @pytest.mark.parametrize("shape", ["null", "4", '"4"', '["4"]', "[4.7]", "[4.0]", "[true,4]", "[false]",
                                       "[-1]", "[null]", "[[4]]", "{}"])
    def test_shape_must_be_list_of_non_negative_integers(self, shape):
        blob = container_with(f'"a":{{"dtype":"f32","offset":0,"shape":{shape}}}', bytes(16))
        with pytest.raises(ContainerError, match="'a' shape must be a list of non-negative integers"):
            load_bytes(blob)

    @pytest.mark.parametrize("offset", ["null", "0.9", "0.0", '"0"', "false", "[0]"])
    def test_offset_must_be_integer(self, offset):
        blob = container_with(f'"a":{{"dtype":"f32","offset":{offset},"shape":[4]}}', bytes(16))
        with pytest.raises(ContainerError, match="'a' offset must be an integer"):
            load_bytes(blob)

    @pytest.mark.parametrize("shape", [f"[{10**30}]", f"[{2**62},{2**62}]"])
    def test_oversized_shape_is_out_of_range(self, shape):
        blob = container_with(f'"a":{{"dtype":"f32","offset":0,"shape":{shape}}}', bytes(16))
        with pytest.raises(ContainerError, match="'a' payload .* out of range"):
            load_bytes(blob)

    @pytest.mark.parametrize("shape", ["[" + ",".join(["1"] * 65) + "]", f"[0,{10**30}]", f"[0,{2**62}]"])
    def test_shape_numpy_cannot_hold(self, shape):
        blob = container_with(f'"a":{{"dtype":"f32","offset":0,"shape":{shape}}}', bytes(4))
        with pytest.raises(ContainerError, match="'a' has unsupported shape"):
            load_bytes(blob)

    def test_zero_extent_is_accepted(self):
        loaded = load_bytes(saved_bytes({"a": np.zeros((0, 3), np.float32)}))
        assert loaded["a"].shape == (0, 3)

    @given(pos=st.integers(0, len(VALID) - 1),
           byte=st.one_of(st.sampled_from(b'.,-0123456789"[]{}:eft'), st.integers(0, 255)))
    @example(pos=VALID.index(b"[2,1,1]") + 2, byte=ord("."))
    @example(pos=VALID.index(b"[1,1,3]") + 2, byte=ord("."))
    @settings(max_examples=400, deadline=None)
    def test_one_byte_replacement_raises_or_round_trips(self, pos, byte):
        mutated = VALID[:pos] + bytes([byte]) + VALID[pos + 1:]
        try:
            loaded = load_bytes(mutated)
        except ContainerError:
            return
        assert saved_bytes(loaded) == mutated
