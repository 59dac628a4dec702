import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probcast.binning import BinSpec
from probcast.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from probcast.cli import main as cli_main
from probcast.resnet import ResNet, ResNetConfig
from probcast.stacking import StackConfig, StackModel

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


def test_zero_dim_beside_huge_dims_is_typed_error(tmp_path):
    # holds no data, yet numpy refuses the shape
    blob = MAGIC + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 1) + b"w"
    blob += struct.pack("<B4I", 4, 0, *(2 ** 32 - 1,) * 3)
    path = tmp_path / "zero.pwnn"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="shape"):
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


# --- model checkpoints: ResNet.load and StackModel.load --------------------------


def _resnet(kernel=5, n_bins=10):
    cfg = ResNetConfig(inputs=[("z", 500), ("t", 850)], target=("z", 500),
                       lead_hours=72, n_blocks=1, n_bins=n_bins, kernel=kernel)
    model = ResNet(cfg, seed=1)
    model.binspec = BinSpec(0.0, 1.0, n_bins)
    model.input_mean, model.input_std = np.zeros(2), np.ones(2)
    return model


def _stack():
    model = StackModel(StackConfig(n_bins=10), n_features=2, seed=1)
    model.binspec = BinSpec(0.0, 1.0, 10)
    return model


def _swap_first_dims(header, arrays):
    name, a = arrays[0]  # conv_in.w (10, 2, 5, 5) or dense0.w (2, 36)
    arrays[0] = (name, a.reshape(a.shape[1], a.shape[0], *a.shape[2:]))


def _mutate_config(field):
    def mutate(header, arrays):
        header["config"][field] = "x"
    return mutate


MUTATIONS = {
    "config field of wrong type": {"resnet": _mutate_config("n_blocks"),
                                   "stack": _mutate_config("hidden_layers")},
    "missing seed": lambda header, arrays: header.pop("seed"),
    "misspelt header field": lambda header, arrays: header.update(binspeC=header.pop("binspec")),
    "unknown config field": lambda header, arrays: header["config"].update(depth=3),
    "bin spec of other width": lambda header, arrays: header["binspec"].update(n_bins=5),
    "first two dims swapped": _swap_first_dims,
    "unknown extra array": lambda header, arrays: arrays.append(("extra", np.zeros(3))),
    "missing array": lambda header, arrays: arrays.pop(),
    "duplicate array": lambda header, arrays: arrays.append(arrays[0]),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("kind, build, cls", [("resnet", _resnet, ResNet),
                                             ("stack", _stack, StackModel)])
def test_bad_model_checkpoint_is_typed_error(tmp_path, kind, build, cls, mutation):
    path = tmp_path / "model.pwnn"
    build().save(path)
    cls.load(path)
    header, arrays = load_checkpoint(path)
    mutate = MUTATIONS[mutation]
    (mutate[kind] if isinstance(mutate, dict) else mutate)(header, arrays)
    save_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError):
        cls.load(path)


@pytest.mark.parametrize("field, value", [("norm", "batch"), ("mode", "categorical"),
                                          ("channels", 10)])
def test_removed_config_field_is_refused(tmp_path, field, value):
    path = tmp_path / "model.pwnn"
    _resnet().save(path)
    header, arrays = load_checkpoint(path)
    header["config"][field] = value
    save_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError, match=field):
        ResNet.load(path)


def test_unfit_resnet_round_trips(tmp_path):
    model = _resnet()
    model.input_mean = model.input_std = model.binspec = None
    model.save(tmp_path / "unfit.pwnn")
    back = ResNet.load(tmp_path / "unfit.pwnn")
    assert back.input_mean is None and back.binspec is None
    for (n1, a1), (n2, a2) in zip(model.state_arrays(), back.state_arrays()):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2)


def test_ensemble_command_reports_bad_model(tmp_path, capsys):
    data, model = tmp_path / "toy.gfb", tmp_path / "model.pwnn"
    assert cli_main(["synth", "--seed", "5", "--nlat", "8", "--nlon", "16",
                     "--steps", "60", "--out", str(data)]) == 0
    _resnet().save(model)
    header, arrays = load_checkpoint(model)
    header["config"]["n_blocks"] = "x"
    save_checkpoint(model, header, arrays)
    rc = cli_main(["ensemble", "--data", str(data), "--split", "0.6,0.1,0.15,0.15",
                   "--model", str(model), "--members", "2", "--seed", "9",
                   "--out", str(tmp_path / "ens")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: bad resnet header")
    assert not (tmp_path / "ens").exists()


@pytest.fixture(scope="module")
def small_resnet(tmp_path_factory):
    path = tmp_path_factory.mktemp("pwnn") / "resnet.pwnn"
    _resnet(kernel=1, n_bins=4).save(path)
    return path, path.read_bytes()


def test_every_resnet_truncation_is_typed_error(small_resnet, tmp_path):
    blob = small_resnet[1]
    path = tmp_path / "cut.pwnn"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(CheckpointError):
            ResNet.load(path)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_resnet_byte_flip_loads_or_is_typed_error(small_resnet, data):
    path, blob = small_resnet
    flipped = bytearray(blob)
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    flipped[pos] ^= data.draw(st.integers(1, 255), label="xor mask")
    path = path.with_name("flip.pwnn")
    path.write_bytes(bytes(flipped))
    try:
        ResNet.load(path)
    except CheckpointError:
        pass
