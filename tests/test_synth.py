import hashlib
import tracemalloc

import numpy as np
import pytest

from probcast.gfb import save_dataset
from probcast.synth import (SynthConfig, synth_generate, with_leaked_variable,
                            with_noise_variable)


# sha256 of the generated f32 data, recorded before synth wrote straight into
# its output array; any later refactor of the generator must keep them.
PINNED_DATA = {
    "cli_default": (SynthConfig(n_lat=16, n_lon=32, n_steps=2000), 1,
                    "268b40e0cfc15696a456be3234856e6df6b71bff71f4812312fb429a8b1c8f41"),
}
# The .gfb file `probcast synth --seed 1` writes with its default flags.
PINNED_CLI_DEFAULT_GFB = "02457403053d790e9df2129748a18b6b8c6b3b328dc80093ec5670b9e88128e4"


@pytest.mark.parametrize("name", sorted(PINNED_DATA))
def test_data_matches_pinned_digest(name):
    cfg, seed, digest = PINNED_DATA[name]
    ds = synth_generate(cfg, seed)
    assert ds.data.dtype == np.float32 and ds.data.flags.c_contiguous
    assert hashlib.sha256(ds.data.tobytes()).hexdigest() == digest


def test_cli_default_file_matches_pinned_digest(tmp_path):
    cfg, seed, _ = PINNED_DATA["cli_default"]
    path = tmp_path / "toy.gfb"
    save_dataset(synth_generate(cfg, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CLI_DEFAULT_GFB


def test_peak_memory_is_a_few_dataset_copies():
    # tracemalloc counts numpy's buffers exactly, so the bound is deterministic.
    cfg, seed, _ = PINNED_DATA["cli_default"]
    tracemalloc.start()
    try:
        ds = synth_generate(cfg, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ds.data.nbytes


def test_fixed_variable_layout():
    ds = synth_generate(SynthConfig(n_lat=4, n_lon=8, n_steps=3), 0)
    assert ds.variables == [("z", 200), ("z", 500), ("z", 850), ("t", 500), ("t", 850),
                            ("solar", "surface"), ("orography", "constant"),
                            ("land_sea", "constant"), ("latitude", "constant")]
    assert ds.epoch_hours_start == 0


def test_same_seed_bit_identical():
    cfg = SynthConfig(n_lat=8, n_lon=16, n_steps=40)
    a = synth_generate(cfg, 11)
    b = synth_generate(cfg, 11)
    assert np.array_equal(a.data, b.data)


def test_same_seed_identical_files(tmp_path):
    cfg = SynthConfig(n_lat=8, n_lon=16, n_steps=30)
    p1, p2 = tmp_path / "a.gfb", tmp_path / "b.gfb"
    save_dataset(synth_generate(cfg, 3), p1)
    save_dataset(synth_generate(cfg, 3), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ():
    cfg = SynthConfig(n_lat=8, n_lon=16, n_steps=40)
    a = synth_generate(cfg, 1)
    b = synth_generate(cfg, 2)
    assert not np.array_equal(a.data, b.data)


def test_zero_amplitude_freezes_time():
    cfg = SynthConfig(n_lat=6, n_lon=12, n_steps=9, amplitude=0.0)
    ds = synth_generate(cfg, 4)
    for t in range(1, ds.n_time):
        np.testing.assert_array_equal(ds.data[t], ds.data[0])


def test_zero_size_grid_errors():
    with pytest.raises(ValueError):
        synth_generate(SynthConfig(n_lat=0, n_lon=16, n_steps=10), 0)
    with pytest.raises(ValueError):
        synth_generate(SynthConfig(n_lat=8, n_lon=16, n_steps=0), 0)


def test_lag1_autocorrelation_above_0p9():
    # independent statistics routine: pooled anomaly autocovariance ratio
    ds = synth_generate(SynthConfig(n_steps=1000), 21)
    z = ds.values("z", 500).astype(np.float64)
    anom = z - z.mean(axis=0, keepdims=True)
    num = 0.0
    den = 0.0
    for j in range(z.shape[1]):
        for k in range(z.shape[2]):
            series = anom[:, j, k]
            num += float((series[:-1] * series[1:]).sum())
            den += float((series ** 2).sum())
    assert num / den > 0.9


def test_values_bounded_and_finite():
    ds = synth_generate(SynthConfig(n_lat=8, n_lon=16, n_steps=200), 13)
    assert np.all(np.isfinite(ds.data))
    z = ds.values("z", 500)
    assert 30000 < z.min() and z.max() < 80000
    t = ds.values("t", 850)
    assert 150 < t.min() and t.max() < 350


def test_levels_are_correlated():
    ds = synth_generate(SynthConfig(n_steps=300), 8)
    z500 = ds.values("z", 500).astype(np.float64).reshape(300, -1)
    z850 = ds.values("z", 850).astype(np.float64).reshape(300, -1)
    a = z500 - z500.mean(axis=0)
    b = z850 - z850.mean(axis=0)
    corr = (a * b).sum() / np.sqrt((a ** 2).sum() * (b ** 2).sum())
    assert corr > 0.5


def test_constant_fields_constant():
    ds = synth_generate(SynthConfig(n_lat=6, n_lon=8, n_steps=7), 2)
    for name in ("orography", "land_sea", "latitude"):
        vals = ds.values(name, "constant")
        for t in range(1, 7):
            np.testing.assert_array_equal(vals[t], vals[0])


def test_leaked_variable_shifts_target():
    ds = synth_generate(SynthConfig(n_lat=6, n_lon=8, n_steps=30), 5)
    leaked = with_leaked_variable(ds, "z", 500, lead_steps=4)
    assert leaked.n_time == 26
    np.testing.assert_array_equal(leaked.values("leak", "surface"),
                                  ds.values("z", 500)[4:])
    np.testing.assert_array_equal(leaked.values("z", 500), ds.values("z", 500)[:26])


def test_noise_variable_is_deterministic():
    ds = synth_generate(SynthConfig(n_lat=6, n_lon=8, n_steps=10), 5)
    a = with_noise_variable(ds, seed=99)
    b = with_noise_variable(ds, seed=99)
    np.testing.assert_array_equal(a.values("whitenoise", "surface"),
                                  b.values("whitenoise", "surface"))
