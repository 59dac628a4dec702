import numpy as np
import pytest

from probcast.grid import (CONSTANT, SURFACE, Dataset, GridSpec, SplitPlan,
                           climatology, latitude_weights, lead_steps,
                           persistence_forecast)


def small_dataset(n_time=8, n_lat=4, n_lon=6, seed=0):
    rng = np.random.default_rng(seed)
    grid = GridSpec.regular(n_lat, n_lon)
    data = rng.normal(10.0, 2.0, size=(n_time, 2, n_lat, n_lon)).astype(np.float32)
    return Dataset(grid, [("z", 500), ("t", 850)], data, 0, 6)


class TestGridSpec:
    def test_regular_grid_32x64_matches_reanalysis_layout(self):
        g = GridSpec.regular(32, 64)
        assert g.latitudes_deg[0] == pytest.approx(-87.1875)
        assert g.latitudes_deg[-1] == pytest.approx(87.1875)
        assert g.longitudes_deg[1] - g.longitudes_deg[0] == pytest.approx(5.625)

    def test_rejects_nonmonotonic_latitudes(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0, 10.0, 5.0]), np.array([0.0, 1.0]))

    def test_rejects_out_of_range_latitude(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0, 95.0]), np.array([0.0, 1.0]))

    def test_rejects_full_circle_longitudes(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0]), np.array([0.0, 180.0, 360.0]))


class TestLatitudeWeights:
    def test_single_equator_latitude(self):
        g = GridSpec(np.array([0.0]), np.array([0.0]))
        assert latitude_weights(g).tolist() == [1.0]

    def test_symmetric_pair_normalizes_to_one(self):
        g = GridSpec(np.array([-60.0, 60.0]), np.array([0.0]))
        np.testing.assert_allclose(latitude_weights(g), [1.0, 1.0], atol=1e-15)

    def test_32_point_grid_against_extended_precision_oracle(self):
        # frozen from a 50-digit mpmath evaluation of cos/mean-cos
        g = GridSpec.regular(32, 64)
        w = latitude_weights(g)
        assert w[15] == pytest.approx(1.5682742452729696, abs=1e-13)
        assert w[16] == pytest.approx(1.5682742452729696, abs=1e-13)

    def test_live_extended_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        g = GridSpec.regular(13, 4)
        cos = [mp.cos(mp.mpf(float(v)) * mp.pi / 180) for v in g.latitudes_deg]
        mean = sum(cos) / len(cos)
        expected = [float(c / mean) for c in cos]
        np.testing.assert_allclose(latitude_weights(g), expected, rtol=1e-13)

    def test_mean_is_one_for_random_grids(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            lats = np.sort(rng.uniform(-89, 89, size=n))
            if np.unique(lats).size != n:
                continue
            g = GridSpec(lats, np.array([0.0]))
            assert latitude_weights(g).mean() == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_latitude_reversal(self):
        g = GridSpec.regular(9, 4)
        rev = GridSpec(g.latitudes_deg[::-1].copy(), g.longitudes_deg)
        np.testing.assert_allclose(latitude_weights(g),
                                   latitude_weights(rev)[::-1], atol=1e-15)

    def test_polar_grid_is_degenerate(self):
        g = GridSpec(np.array([90.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="degenerate"):
            latitude_weights(g)


class TestClimatology:
    def test_constant_dataset(self):
        ds = small_dataset()
        ds.data[:] = 7.0
        clim = climatology(ds, "z", 500, (0, ds.n_time))
        np.testing.assert_allclose(clim.values, 7.0)

    def test_two_timestep_mean(self):
        ds = small_dataset(n_time=2)
        clim = climatology(ds, "t", 850, (0, 2))
        expect = (ds.data[0, 1].astype(np.float64) + ds.data[1, 1]) / 2
        np.testing.assert_allclose(clim.values, expect, rtol=1e-12)

    def test_matches_bruteforce_accumulation(self):
        ds = small_dataset(n_time=10, seed=5)
        clim = climatology(ds, "z", 500, (2, 9))
        acc = np.zeros(ds.grid.shape)
        for t in range(2, 9):
            acc += ds.data[t, 0]
        np.testing.assert_allclose(clim.values, acc / 7, rtol=1e-12)

    def test_empty_split_errors(self):
        with pytest.raises(ValueError):
            climatology(small_dataset(), "z", 500, (3, 3))


class TestPersistence:
    def test_constant_dataset_zero_error(self):
        ds = small_dataset()
        ds.data[:] = 4.25
        pred, truth = persistence_forecast(ds, "z", 500, 24)
        np.testing.assert_array_equal(pred, truth)

    def test_lead_zero_is_identity(self):
        ds = small_dataset()
        pred, truth = persistence_forecast(ds, "z", 500, 0)
        np.testing.assert_array_equal(pred, truth)
        assert pred.shape[0] == ds.n_time

    def test_shift_matches_bruteforce(self):
        ds = small_dataset(n_time=12, seed=9)
        pred, truth = persistence_forecast(ds, "t", 850, 18)  # 3 steps
        for i in range(pred.shape[0]):
            np.testing.assert_array_equal(pred[i], ds.data[i, 1])
            np.testing.assert_array_equal(truth[i], ds.data[i + 3, 1])

    def test_lead_not_multiple_of_step(self):
        with pytest.raises(ValueError):
            persistence_forecast(small_dataset(), "z", 500, 7)

    @pytest.mark.parametrize("lead_hours", [-6, -24])
    def test_negative_lead_refused(self, lead_hours):
        ds = small_dataset()
        with pytest.raises(ValueError, match="non-negative"):
            lead_steps(ds, lead_hours)
        with pytest.raises(ValueError, match="non-negative"):
            persistence_forecast(ds, "z", 500, lead_hours)

    def test_lead_exceeding_span(self):
        with pytest.raises(ValueError):
            persistence_forecast(small_dataset(n_time=4), "z", 500, 24 * 10)


class TestSplitPlan:
    def test_fractions_cover_timeline_in_order(self):
        plan = SplitPlan.from_fractions(100, 0.6, 0.1, 0.15, 0.15)
        assert plan.train == (0, 60)
        assert plan.neural_validation == (60, 70)
        assert plan.stacked_validation == (70, 85)
        assert plan.test == (85, 100)

    def test_rejects_overlapping_ranges(self):
        with pytest.raises(ValueError):
            SplitPlan((0, 10), (5, 15), (15, 20), (20, 25))

    def test_rejects_fraction_overflow(self):
        with pytest.raises(ValueError):
            SplitPlan.from_fractions(100, 0.8, 0.2, 0.2, 0.2)

    def test_named_range_lookup(self):
        plan = SplitPlan.from_fractions(40)
        assert plan.range("test") == plan.test
        with pytest.raises(KeyError):
            plan.range("nope")


class TestDatasetValidation:
    def test_rejects_nan(self):
        grid = GridSpec.regular(2, 3)
        data = np.zeros((2, 1, 2, 3), dtype=np.float32)
        data[1, 0, 1, 2] = np.nan
        with pytest.raises(ValueError, match=r"time=1 var=0 lat=1 lon=2"):
            Dataset(grid, [("z", 500)], data, 0, 6)

    def test_variable_lookup(self):
        ds = small_dataset()
        assert ds.var_index("t", 850) == 1
        with pytest.raises(KeyError):
            ds.var_index("q", 700)

    def test_level_markers_exist(self):
        assert SURFACE == "surface" and CONSTANT == "constant"
