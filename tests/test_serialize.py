import re
import struct

import numpy as np
import pytest

from trustrec.serialize import CheckpointError, load_checkpoint, save_checkpoint


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "half.ckpt"
        # "a" is written first; "b" cannot be converted to float64 and raises
        arrays = {"a": np.arange(1000.0), "b": ["not a number"]}
        with pytest.raises(ValueError):
            save_checkpoint(path, "demo", arrays)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_old_checkpoint(self, tmp_path):
        path = tmp_path / "keep.ckpt"
        save_checkpoint(path, "demo", {"a": np.ones(3)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(path, "demo", {"a": np.zeros(3), "b": ["not a number"]})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = tmp_path / "a.ckpt"
        arrays = {
            "weights": np.arange(12.0).reshape(3, 4),
            "bias": np.array([-1.5, 2.0]),
            "scalar": np.array(7.25),
        }
        save_checkpoint(path, "demo", arrays, meta={"k": 3, "n": -12})
        kind, back, meta = load_checkpoint(path)
        assert kind == "demo"
        assert meta == {"k": 3, "n": -12}
        assert set(back) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(back[name], arrays[name])
            assert back[name].dtype == np.float64

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, "nothing", {})
        kind, arrays, meta = load_checkpoint(path)
        assert kind == "nothing"
        assert arrays == {}
        assert meta == {}

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, "demo", {"x": np.zeros(3)})
        _, arrays, _ = load_checkpoint(path)
        arrays["x"][0] = 5.0  # must not blow up on a read-only buffer
        assert arrays["x"][0] == 5.0


class TestByteStability:
    def test_same_payload_same_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"p": rng.normal(size=(4, 5)), "q": rng.normal(size=(2,))}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, "demo", arrays, meta={"m": 4})
        save_checkpoint(b, "demo", dict(reversed(list(arrays.items()))), meta={"m": 4})
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, "demo", {"x": np.ones((10, 10))})
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, "model", {"x": np.ones(2)})
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_kind="embeddings")
        kind, _, _ = load_checkpoint(path, expect_kind="model")
        assert kind == "model"

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(path, "demo", {})
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field sits right after the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    # a checkpoint of kind "demo" holding one 2 x 3 array "x": the offsets of
    # the kind's length, the array's ndim and its first dimension
    KIND_LEN, NDIM, DIM0 = 12, 33, 37

    def corrupt(self, tmp_path, offset, fmt, value):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, "demo", {"x": np.ones((2, 3))})
        raw = bytearray(path.read_bytes())
        assert struct.unpack_from("<I", raw, self.NDIM) == (2,)
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize(
        "offset, fmt, value",
        [(DIM0, "<q", 2**40), (DIM0, "<q", 2**62), (NDIM, "<I", 2**31), (KIND_LEN, "<I", 2**32 - 1)],
        ids=["huge-dimension", "overflowing-dimension", "huge-ndim", "huge-string-length"],
    )
    def test_length_past_the_end_of_the_file(self, tmp_path, offset, fmt, value):
        # raises before it asks for the declared bytes
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(self.corrupt(tmp_path, offset, fmt, value))

    def test_negative_dimension(self, tmp_path):
        with pytest.raises(CheckpointError, match="negative dimension"):
            load_checkpoint(self.corrupt(tmp_path, self.DIM0, "<q", -1))

    def test_empty_array_with_an_overflowing_shape(self, tmp_path):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, "demo", {"x": np.ones((0, 3))})
        raw = bytearray(path.read_bytes())
        struct.pack_into("<q", raw, self.DIM0 + 8, 2**62)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="impossible shape"):
            load_checkpoint(path)

    def test_kind_that_is_not_utf8(self, tmp_path):
        path = self.corrupt(tmp_path, self.KIND_LEN + 4, "<B", 0xFF)
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_checkpoint(path)

    def test_read_errors_name_the_file(self, tmp_path):
        path = self.corrupt(tmp_path, self.KIND_LEN + 4, "<B", 0xFF)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: checkpoint string is not UTF-8$"):
            load_checkpoint(path)
        path.write_bytes(path.read_bytes()[: self.KIND_LEN + 2])
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: truncated checkpoint file$"):
            load_checkpoint(path)
