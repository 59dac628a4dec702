import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probcast.gfb import GFBDecodeError, load_dataset, save_dataset
from probcast.grid import CONSTANT, SURFACE, Dataset, GridSpec


def make_dataset(seed=0):
    rng = np.random.default_rng(seed)
    grid = GridSpec.regular(4, 6)
    variables = [("z", 500), ("t", 850), ("solar", SURFACE), ("orography", CONSTANT)]
    data = rng.normal(50.0, 10.0, size=(5, 4, 4, 6)).astype(np.float32)
    return Dataset(grid, variables, data, epoch_hours_start=1234, step_hours=6)


def test_round_trip_is_exact(tmp_path):
    ds = make_dataset()
    path = tmp_path / "toy.gfb"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.data, ds.data)
    np.testing.assert_array_equal(back.grid.latitudes_deg, ds.grid.latitudes_deg)
    np.testing.assert_array_equal(back.grid.longitudes_deg, ds.grid.longitudes_deg)
    assert back.variables == ds.variables
    assert back.epoch_hours_start == ds.epoch_hours_start
    assert back.step_hours == ds.step_hours


def test_save_emits_manifest(tmp_path):
    ds = make_dataset()
    path = tmp_path / "toy.gfb"
    save_dataset(ds, path)
    manifest = json.loads((tmp_path / "toy.gfb.json").read_text())
    assert manifest["n_time"] == 5
    assert manifest["variables"][2] == {"name": "solar", "level": "surface"}


def test_save_twice_identical_bytes(tmp_path):
    ds = make_dataset()
    p1, p2 = tmp_path / "a.gfb", tmp_path / "b.gfb"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_magic(tmp_path):
    ds = make_dataset()
    path = tmp_path / "toy.gfb"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(GFBDecodeError, match="magic"):
        load_dataset(path)


def test_truncated_payload(tmp_path):
    ds = make_dataset()
    path = tmp_path / "toy.gfb"
    save_dataset(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(GFBDecodeError, match="truncated"):
        load_dataset(path)


def test_trailing_garbage(tmp_path):
    ds = make_dataset()
    path = tmp_path / "toy.gfb"
    save_dataset(ds, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(GFBDecodeError, match="trailing"):
        load_dataset(path)


def test_nan_payload_names_index(tmp_path):
    ds = make_dataset()
    path = tmp_path / "toy.gfb"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    payload_len = ds.data.size * 4
    flat_index = np.ravel_multi_index((2, 1, 3, 4), ds.data.shape)
    offset = len(blob) - payload_len + 4 * flat_index
    blob[offset:offset + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(GFBDecodeError, match=r"time=2 var=1 lat=3 lon=4"):
        load_dataset(path)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """A valid GFB1 file of a few hundred bytes, so flips often hit the header."""
    grid = GridSpec.regular(2, 3)
    data = np.arange(2 * 2 * 2 * 3, dtype=np.float32).reshape(2, 2, 2, 3)
    ds = Dataset(grid, [("z", 500), ("solar", SURFACE)], data, epoch_hours_start=0,
                 step_hours=6)
    path = tmp_path_factory.mktemp("gfb") / "small.gfb"
    save_dataset(ds, path)
    return path, path.read_bytes()


def test_corrupt_variable_name_is_typed_error(small_file, tmp_path):
    path, blob = small_file
    blob = bytearray(blob)
    blob[blob.index(b"solar")] = 0xFF
    bad = tmp_path / "bad.gfb"
    bad.write_bytes(bytes(blob))
    with pytest.raises(GFBDecodeError, match="variable name"):
        load_dataset(bad)


def test_every_truncation_is_typed_error(small_file, tmp_path):
    _, blob = small_file
    path = tmp_path / "cut.gfb"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(GFBDecodeError):
            load_dataset(path)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_single_byte_flip_loads_or_is_typed_error(small_file, data):
    path, blob = small_file
    flipped = bytearray(blob)
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    flipped[pos] ^= data.draw(st.integers(1, 255), label="xor mask")
    path = path.with_name("flip.gfb")
    path.write_bytes(bytes(flipped))
    try:
        load_dataset(path)
    except GFBDecodeError:
        pass
