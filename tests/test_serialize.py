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
