import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probcast.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint

CONFIG = {"kind": "resnet", "seed": 3, "config": {"n_bins": 4, "inputs": [["z", 500]]}}
ARRAYS = [("conv.w", np.arange(6, dtype=np.float32).reshape(2, 3)),
          ("conv.b", np.float32(0.5)),
          ("empty", np.zeros((0, 2), np.float32))]
CONFIG_OFFSET = 12  # magic, version, config length


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    path = tmp_path_factory.mktemp("pwnn") / "valid.pwnn"
    save_checkpoint(path, CONFIG, ARRAYS)
    return path, path.read_bytes()


def test_round_trip(valid):
    config, arrays = load_checkpoint(valid[0])
    assert config == CONFIG
    assert [n for n, _ in arrays] == [n for n, _ in ARRAYS]
    for (_, got), (_, want) in zip(arrays, ARRAYS):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("byte", [0xFF, ord("x")])
def test_corrupt_config_is_typed_error(valid, tmp_path, byte):
    blob = bytearray(valid[1])
    blob[CONFIG_OFFSET] = byte
    path = tmp_path / "bad.pwnn"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="config"):
        load_checkpoint(path)


def test_config_must_be_an_object(tmp_path):
    path = tmp_path / "list.pwnn"
    save_checkpoint(path, [1, 2], ARRAYS)
    with pytest.raises(CheckpointError, match="JSON object"):
        load_checkpoint(path)


def test_corrupt_array_name_is_typed_error(valid, tmp_path):
    blob = bytearray(valid[1])
    at = blob.index(b"conv.w")
    blob[at] = 0xFF
    path = tmp_path / "bad.pwnn"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="array name"):
        load_checkpoint(path)


def test_dims_whose_product_wraps_int64_are_truncation(tmp_path):
    # 65536**4 == 2**64 is 0 in int64 arithmetic; the file holds no data for it
    blob = MAGIC + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 1) + b"w"
    blob += struct.pack("<B4I", 4, *(65536,) * 4)
    path = tmp_path / "wrap.pwnn"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_every_truncation_is_typed_error(valid, tmp_path):
    blob = valid[1]
    path = tmp_path / "cut.pwnn"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_single_byte_flip_loads_or_is_typed_error(valid, data):
    path, blob = valid
    flipped = bytearray(blob)
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    flipped[pos] ^= data.draw(st.integers(1, 255), label="xor mask")
    path = path.with_name("flip.pwnn")
    path.write_bytes(bytes(flipped))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
