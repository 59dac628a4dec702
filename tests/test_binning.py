import numpy as np
import pytest

from probcast.binning import (CHUNK_ELEMS, BinSpec, DensityGrid, density_stddev,
                              discretize, expectation, fit_bins, inbuilt_rmse,
                              row_chunks)
from probcast.grid import Dataset, GridSpec
from probcast.verification import (REFERENCE_BINNING, cdf_threshold, coverage_stats,
                                   crps, topk_match)


def random_density(rng, shape, n_bins):
    p = rng.random(shape + (n_bins,))
    return p / p.sum(axis=-1, keepdims=True)


class TestBinSpec:
    def test_width_from_round_extremes(self):
        spec = BinSpec(42500.0, 59300.0, 100)
        assert spec.width == pytest.approx(168.0)

    def test_published_reference_widths_are_fixtures_only(self):
        # published rounded widths from the full-scale study disagree with the
        # arithmetic of their own rounded extremes; we keep them as constants
        assert REFERENCE_BINNING["z500"]["published_width"] == 169.0
        assert REFERENCE_BINNING["t850"]["published_width"] == 1.02
        assert (REFERENCE_BINNING["z500"]["v_max"]
                - REFERENCE_BINNING["z500"]["v_min"]) / 100 == pytest.approx(168.0)

    def test_unit_width_lower_bounds(self):
        spec = BinSpec(0.0, 100.0, 100)
        assert spec.width == 1.0
        assert spec.lower_bound(7) == 7.0

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(1.0, 1.0, 10)


class TestFitBins:
    def test_fit_on_training_split_only(self):
        grid = GridSpec.regular(2, 3)
        data = np.zeros((4, 1, 2, 3), dtype=np.float32)
        data[0] = 1.0
        data[1] = 3.0
        data[2] = -50.0  # outside the training split
        data[3] = 50.0
        ds = Dataset(grid, [("z", 500)], data, 0, 6)
        spec = fit_bins(ds, "z", 500, (0, 2), n_bins=4)
        assert spec.v_min == 1.0 and spec.v_max == 3.0

    def test_constant_field_rejected(self):
        grid = GridSpec.regular(2, 3)
        data = np.full((3, 1, 2, 3), 5.0, dtype=np.float32)
        ds = Dataset(grid, [("z", 500)], data, 0, 6)
        with pytest.raises(ValueError, match="constant"):
            fit_bins(ds, "z", 500, (0, 3))


class TestDiscretize:
    def test_v_min_maps_to_bin_zero(self):
        spec = BinSpec(0.0, 100.0, 100)
        assert discretize(np.array([0.0]), spec).bins[0] == 0

    def test_one_and_a_half_widths(self):
        spec = BinSpec(0.0, 100.0, 100)
        assert discretize(np.array([1.5]), spec).bins[0] == 1

    def test_clamping_at_both_ends(self):
        spec = BinSpec(0.0, 10.0, 10)
        bins = discretize(np.array([-5.0, 10.0, 25.0]), spec).bins
        assert bins.tolist() == [0, 9, 9]

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(7)
        spec = BinSpec(-2.0, 3.0, 25)
        vals = rng.uniform(-3.0, 4.0, size=10_000)
        got = discretize(vals, spec).bins
        edges = [spec.v_min + i * spec.width for i in range(spec.n_bins + 1)]
        for v, g in zip(vals, got):
            expect = spec.n_bins - 1
            for i in range(spec.n_bins):
                if v < edges[i + 1]:
                    expect = i
                    break
            if v < spec.v_min:
                expect = 0
            assert g == expect

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            discretize(np.array([np.nan]), BinSpec(0, 1, 2))

    def test_rediscretizing_representatives_is_idempotent(self):
        rng = np.random.default_rng(11)
        spec = BinSpec(-7.0, 9.0, 40)
        vals = rng.uniform(-9, 11, size=2000)
        bins = discretize(vals, spec).bins
        again = discretize(spec.lower_bound(bins), spec).bins
        np.testing.assert_array_equal(bins, again)


def _nan_gridpoint():
    p = np.full((2, 3, 4), 0.25)
    p[1, 2] = np.nan
    return p


def _negative_mass():
    """0.5 of the mass moved from bin 0 to bin 1: rows still sum to 1."""
    p = np.full((2, 3, 4), 0.25)
    p[..., 0] -= 0.5
    p[..., 1] += 0.5
    return p


_SCORING_ENTRY_POINTS = {
    "validate": lambda d: d.validate(),
    "expectation": expectation,
    "crps": lambda d: crps(d, np.zeros(d.probs.shape[:-1])),
    "density_stddev": density_stddev,
    "coverage_stats": lambda d: coverage_stats(d, np.zeros(d.probs.shape[:-1])),
    "topk_match": lambda d: topk_match(d, np.zeros(d.probs.shape[:-1], int), 1),
    "cdf_threshold": lambda d: cdf_threshold(d, 2.5),
}


@pytest.mark.parametrize("check, make", [
    pytest.param(check, make, id=name + suffix)
    for make, suffix in ((_nan_gridpoint, ""), (_negative_mass, "-negative_mass"))
    for name, check in _SCORING_ENTRY_POINTS.items()])
def test_nan_gridpoint_is_rejected(check, make):
    """Every scoring entry point refuses a NaN gridpoint and negative mass."""
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        check(DensityGrid(make(), BinSpec(0.0, 4.0, 4)))


class TestExpectation:
    def test_one_hot_returns_representative(self):
        spec = BinSpec(0.0, 100.0, 100)
        p = np.zeros((1, 1, 100))
        p[0, 0, 37] = 1.0
        assert expectation(DensityGrid(p, spec))[0, 0] == pytest.approx(37.0)

    def test_even_split_bins_0_and_1(self):
        spec = BinSpec(0.0, 100.0, 100)
        p = np.zeros((1, 1, 100))
        p[0, 0, 0] = 0.5
        p[0, 0, 1] = 0.5
        assert expectation(DensityGrid(p, spec))[0, 0] == pytest.approx(0.5)

    def test_uniform_density(self):
        spec = BinSpec(0.0, 100.0, 100)
        p = np.full((2, 3, 100), 0.01)
        np.testing.assert_allclose(expectation(DensityGrid(p, spec)), 49.5,
                                   rtol=1e-12)

    def test_rejects_unnormalized(self):
        spec = BinSpec(0.0, 1.0, 4)
        p = np.full((1, 1, 4), 0.3)
        with pytest.raises(ValueError, match="normalized"):
            expectation(DensityGrid(p, spec))

    def test_expectation_within_value_range(self):
        rng = np.random.default_rng(0)
        spec = BinSpec(-5.0, 5.0, 20)
        p = random_density(rng, (50,), 20)
        mu = expectation(DensityGrid(p, spec))
        assert np.all(mu >= spec.v_min) and np.all(mu <= spec.v_max)


class TestDensityStddev:
    def test_one_hot_is_zero(self):
        spec = BinSpec(0.0, 100.0, 100)
        p = np.zeros((1, 1, 100))
        p[0, 0, 12] = 1.0
        assert density_stddev(DensityGrid(p, spec))[0, 0] == 0.0

    def test_even_split_bins_0_and_2(self):
        spec = BinSpec(0.0, 100.0, 100)
        p = np.zeros((1, 1, 100))
        p[0, 0, 0] = 0.5
        p[0, 0, 2] = 0.5
        assert density_stddev(DensityGrid(p, spec))[0, 0] == pytest.approx(1.0)

    def test_zero_sigma_iff_one_hot(self):
        spec = BinSpec(0.0, 10.0, 10)
        rng = np.random.default_rng(5)
        p = random_density(rng, (30,), 10)
        sigma = density_stddev(DensityGrid(p, spec))
        assert np.all(sigma > 1e-12)  # generic densities never collapse
        one_hot = np.zeros((1, 10))
        one_hot[0, 4] = 1.0
        assert density_stddev(DensityGrid(one_hot, spec))[0] <= 1e-12

    def test_moments_match_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        spec = BinSpec(40000.0, 60000.0, 100)  # large offsets stress cancellation
        p = random_density(rng, (1000,), 100)
        d = DensityGrid(p, spec)
        mu = expectation(d)
        sigma = density_stddev(d)
        x = [spec.v_min + i * spec.width for i in range(100)]
        for r in range(0, 1000, 37):
            mu_ref = sum(x[i] * p[r, i] for i in range(100))
            var_ref = sum((x[i] - mu_ref) ** 2 * p[r, i] for i in range(100))
            assert abs(mu[r] - mu_ref) <= 1e-10 * abs(mu_ref)
            assert abs(sigma[r] - np.sqrt(var_ref)) <= 1e-10 * max(np.sqrt(var_ref), 1e-30)

    def test_chunked_rows_match_per_slice_values(self):
        """A 100-bin density of 6912 rows spans three row chunks; each time
        slice fits in one, and the chunked result is their concatenation, bit
        for bit."""
        rng = np.random.default_rng(22)
        d = DensityGrid(random_density(rng, (6, 24, 48), 100),
                        BinSpec(40000.0, 60000.0, 100))
        assert len(list(row_chunks(6 * 24 * 48, 100))) == 3
        whole = density_stddev(d)
        parts = [density_stddev(DensityGrid(d.probs[t], d.spec)) for t in range(6)]
        assert np.array_equal(whole, np.stack(parts))


@pytest.mark.parametrize("n_rows, n_bins", [(0, 10), (1, 10), (26214, 10),
                                            (26215, 10), (6912, 100), (5, 2 ** 19)])
def test_row_chunks_cover_rows_in_bounded_order(n_rows, n_bins):
    chunks = list(row_chunks(n_rows, n_bins))
    covered = np.concatenate([np.arange(n_rows)[c] for c in chunks] + [np.arange(0)])
    assert np.array_equal(covered, np.arange(n_rows))
    rows = max(1, CHUNK_ELEMS // n_bins)
    assert all(c.stop - c.start == rows for c in chunks)


class TestInbuiltRmse:
    def test_constant_at_v_min_is_zero(self):
        grid = GridSpec.regular(3, 4)
        data = np.full((4, 1, 3, 4), 2.0, dtype=np.float32)
        ds = Dataset(grid, [("z", 500)], data, 0, 6)
        spec = BinSpec(2.0, 10.0, 8)
        assert inbuilt_rmse(ds, "z", 500, spec, (0, 4)) == 0.0

    def test_matches_bruteforce_weighted_rmse_of_flooring(self):
        rng = np.random.default_rng(23)
        grid = GridSpec.regular(4, 6)
        data = rng.uniform(0.0, 9.0, size=(5, 1, 4, 6)).astype(np.float32)
        ds = Dataset(grid, [("z", 500)], data, 0, 6)
        spec = BinSpec(0.0, 9.0, 12)
        got = inbuilt_rmse(ds, "z", 500, spec, (0, 5))

        w = np.cos(np.deg2rad(grid.latitudes_deg))
        w = w / w.mean()
        total = 0.0
        for t in range(5):
            acc = 0.0
            for j in range(4):
                for k in range(6):
                    v = float(data[t, 0, j, k])
                    b = min(int((v - spec.v_min) / spec.width), 11)
                    floored = spec.v_min + b * spec.width
                    acc += w[j] * (floored - v) ** 2
            total += acc / (4 * 6)
        assert got == pytest.approx(np.sqrt(total / 5), rel=1e-10)

    def test_one_hot_expectation_reduces_to_flooring(self):
        # densities that put all mass on the true bin give expectation equal
        # to the representative, so RMSE(expectation, truth) == inbuilt RMSE
        from probcast.verification import weighted_rmse
        rng = np.random.default_rng(29)
        grid = GridSpec.regular(3, 5)
        data = rng.uniform(1.0, 4.0, size=(2, 1, 3, 5)).astype(np.float32)
        ds = Dataset(grid, [("z", 500)], data, 0, 6)
        spec = BinSpec(1.0, 4.0, 6)
        truth = ds.values("z", 500).astype(np.float64)
        bins = discretize(truth, spec).bins
        p = np.zeros(truth.shape + (6,))
        np.put_along_axis(p, bins[..., None], 1.0, axis=-1)
        mu = expectation(DensityGrid(p, spec))
        lhs = weighted_rmse(mu, truth, grid)
        rhs = inbuilt_rmse(ds, "z", 500, spec, (0, 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)
