import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacvoid import ContainerError, ModelConfig, build_model, container, load_container, save_container, save_weights

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

    @pytest.mark.parametrize("header", [
        '{"a": {"dtype":"f32","offset":0,"shape":[1]}}',  # whitespace
        '{"a":{"shape":[1],"offset":0,"dtype":"f32"}}',  # entry keys unsorted
        '{"a":{"dtype":"f32","offset":0,"shape":[1]},"a":{"dtype":"f32","offset":0,"shape":[1]}}',  # repeated name
        r'{"\u0061":{"dtype":"f32","offset":0,"shape":[1]}}',  # needless escape of "a"
        '{"é":{"dtype":"f32","offset":0,"shape":[1]}}',  # raw non-ASCII name, written escaped
    ])
    def test_non_canonical_header_is_rejected(self, header):
        raw = header.encode("utf-8")
        blob = b"LACTNSR1" + len(raw).to_bytes(4, "little") + raw + bytes(4)
        with pytest.raises(ContainerError, match="not in the canonical form"):
            load_bytes(blob)

    def test_non_object_header_refused(self):
        blob = b"LACTNSR1" + (2).to_bytes(4, "little") + b"[]"
        with pytest.raises(ContainerError, match="header must be a JSON object"):
            load_bytes(blob)

    def test_trailing_payload_bytes_refused(self):
        with pytest.raises(ContainerError, match=f"payload length mismatch, header describes {2 * 4 + 3 * 4} "
                                                 f"bytes but file has {2 * 4 + 3 * 4 + 4}"):
            load_bytes(VALID + bytes(4))

    def test_zero_extent_is_accepted(self):
        loaded = load_bytes(saved_bytes({"a": np.zeros((0, 3), np.float32)}))
        assert loaded["a"].shape == (0, 3)

    @given(pos=st.integers(0, len(VALID) - 1),
           byte=st.one_of(st.sampled_from(b'.,-0123456789"[]{}:eft'), st.integers(0, 255)))
    @example(pos=VALID.index(b"[2,1,1]") + 2, byte=ord("."))
    @example(pos=VALID.index(b"[1,1,3]") + 2, byte=ord("."))
    @example(pos=VALID.index(b'"b"') + 1, byte=0x7F)  # loads as DEL, which json.dumps writes as \u007f
    @settings(max_examples=400, deadline=None)
    def test_one_byte_replacement_raises_or_round_trips(self, pos, byte):
        mutated = VALID[:pos] + bytes([byte]) + VALID[pos + 1:]
        try:
            loaded = load_bytes(mutated)
        except ContainerError:
            return
        assert saved_bytes(loaded) == mutated


class TestOneBuffer:
    def test_tensors_are_writable_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "m.lactnsr"
        save_weights(build_model(ModelConfig(layer_count=3, depth=10, head_count=2, ffn_dim=40, seed=1)), path)
        loaded = load_container(path)
        assert all(t.dtype == np.float32 and t.flags.c_contiguous and t.flags.writeable for t in loaded.values())
        base = loaded["embed"].base
        assert base is not None and all(t.base is base for t in loaded.values())
        before = {name: t.copy() for name, t in loaded.items()}
        loaded["block1.attn.wk"][...] = 7.0
        for name, t in loaded.items():
            if name != "block1.attn.wk":
                assert np.array_equal(t, before[name]), name

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        # twelve 256x256 tensors: a payload of about 3 MB
        tensors = {f"t{i:02d}": np.full((256, 256), i, np.float32) for i in range(12)}
        path = tmp_path / "big.lactnsr"
        save_container(tensors, path)
        payload = sum(t.nbytes for t in tensors.values())
        tracemalloc.start()
        try:
            loaded = load_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(loaded[name], t) for name, t in tensors.items())
        assert peak <= 1.2 * payload, f"peak {peak} bytes for a payload of {payload}"

    def test_file_that_shrinks_after_it_is_sized_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "c.lactnsr"
        path.write_bytes(VALID)
        real_fstat = container.os.fstat

        def fstat_then_shrink(fd):
            info = real_fstat(fd)
            os.truncate(path, len(VALID) - 4)
            return info

        monkeypatch.setattr(container.os, "fstat", fstat_then_shrink)
        with pytest.raises(ContainerError, match=f"short read, {len(VALID) - 16} of the {len(VALID) - 12} bytes"):
            load_container(path)

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd to name a pipe")
    def test_pipe_is_refused(self):
        r, w = os.pipe()
        try:
            os.write(w, VALID)
            os.close(w)
            with pytest.raises(ContainerError, match="not a regular file"):
                load_container(f"/proc/self/fd/{r}")
        finally:
            os.close(r)

    def test_refused_tensor_leaves_an_earlier_file_as_it_was(self, tmp_path):
        path = tmp_path / "c.lactnsr"
        path.write_bytes(VALID)
        with pytest.raises(ValueError, match="could not convert"):
            save_container({"a": TENSORS["a"], "b": np.array(["x"])}, path)
        assert path.read_bytes() == VALID
