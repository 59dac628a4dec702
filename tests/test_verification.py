import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from probcast.binning import (BinSpec, DensityGrid, density_stddev, discretize,
                              expectation, row_chunks)
from probcast.grid import GridSpec
from probcast.verification import (REFERENCE_COVERAGE, REFERENCE_CRPS,
                                   REFERENCE_RMSE, ScoreReport,
                                   assemble_report, cdf_threshold, coverage_stats,
                                   crps, mean_crps, render_report_table,
                                   topk_match, weighted_mse_ci, weighted_rmse)


def random_density(rng, shape, n_bins, spec=None):
    spec = spec or BinSpec(0.0, 10.0, n_bins)
    p = rng.random(shape + (n_bins,))
    return DensityGrid(p / p.sum(axis=-1, keepdims=True), spec)


def riemann_crps(probs, spec, y, n_steps=1_000_000):
    """Numerical-integration oracle: midpoint Riemann sum over the defining
    integral. Every discontinuity of the integrand (each bin representative
    and the observation) is inserted as a cell edge, so the piecewise-constant
    integrand is summed without quadrature bias."""
    x = spec.v_min + np.arange(spec.n_bins) * spec.width
    lo = min(x[0], y) - spec.width
    hi = max(x[-1], y) + spec.width
    edges = np.linspace(lo, hi, n_steps + 1)
    edges = np.sort(np.concatenate([edges, x, [y]]))
    mids = (edges[:-1] + edges[1:]) / 2
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    F = cum[np.searchsorted(x, mids, side="right")]
    H = (mids >= y).astype(np.float64)
    return float(((F - H) ** 2 * np.diff(edges)).sum())


class TestWeightedRmse:
    def test_perfect_forecast(self):
        grid = GridSpec.regular(4, 6)
        f = np.random.default_rng(0).normal(size=(3, 4, 6))
        assert weighted_rmse(f, f, grid) == 0.0

    def test_single_equator_point(self):
        grid = GridSpec(np.array([0.0]), np.array([0.0]))
        assert weighted_rmse(np.array([[3.0]]), np.array([[0.0]]),
                             grid) == pytest.approx(3.0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        grid = GridSpec.regular(32, 64)
        pred = rng.normal(size=(3, 32, 64))
        truth = rng.normal(size=(3, 32, 64))
        got = weighted_rmse(pred, truth, grid)
        w = np.cos(np.deg2rad(grid.latitudes_deg))
        w = w / w.mean()
        total = 0.0
        for t in range(3):
            acc = 0.0
            for j in range(32):
                for k in range(64):
                    acc += w[j] * (pred[t, j, k] - truth[t, j, k]) ** 2
            total += acc / (32 * 64)
        expect = np.sqrt(total / 3)
        assert abs(got - expect) <= 1e-10 * expect

    def test_shape_mismatch(self):
        grid = GridSpec.regular(2, 3)
        with pytest.raises(ValueError):
            weighted_rmse(np.zeros((2, 3)), np.zeros((3, 2)), grid)

    def test_rmse_squared_equals_mse_single_timepoint(self):
        rng = np.random.default_rng(2)
        grid = GridSpec.regular(5, 8)
        pred = rng.normal(size=(5, 8))
        truth = rng.normal(size=(5, 8))
        rmse = weighted_rmse(pred, truth, grid)
        mse, _, _ = weighted_mse_ci(pred, truth, grid)
        assert rmse ** 2 == pytest.approx(mse, rel=1e-10)


class TestWeightedMseCi:
    def test_zero_error(self):
        grid = GridSpec.regular(3, 4)
        f = np.ones((2, 3, 4))
        assert weighted_mse_ci(f, f, grid) == (0.0, 0.0, 0.0)

    def test_equal_weighted_errors_zero_width(self):
        # equator-only grid: weights 1, equal squared errors, zero variance
        grid = GridSpec(np.array([0.0]), np.arange(4.0))
        pred = np.zeros((2, 1, 4))
        truth = np.full((2, 1, 4), 3.0)
        mse, lo, hi = weighted_mse_ci(pred, truth, grid)
        assert (mse, lo, hi) == (pytest.approx(9.0),) * 3

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        grid = GridSpec.regular(32, 64)
        pred = rng.normal(size=(2, 32, 64))
        truth = rng.normal(size=(2, 32, 64))
        mse, lo, hi = weighted_mse_ci(pred, truth, grid)
        w = np.cos(np.deg2rad(grid.latitudes_deg))
        w = w / w.mean()
        terms = []
        for t in range(2):
            for j in range(32):
                for k in range(64):
                    terms.append(w[j] * (pred[t, j, k] - truth[t, j, k]) ** 2)
        terms = np.array(terms)
        mean = terms.mean()
        half = 1.96 * np.sqrt(terms.var() / terms.size)
        assert abs(mse - mean) <= 1e-10 * mean
        assert lo == pytest.approx(mean - half, rel=1e-10)
        assert hi == pytest.approx(mean + half, rel=1e-10)
        assert lo <= mse <= hi

    def test_single_point_rejected(self):
        grid = GridSpec(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            weighted_mse_ci(np.zeros((1, 1)), np.ones((1, 1)), grid)


class TestCrps:
    def test_point_mass_at_observation_is_zero(self):
        spec = BinSpec(0.0, 10.0, 10)
        p = np.zeros((1, 10))
        p[0, 4] = 1.0
        y = np.array([spec.lower_bound(4)])
        assert crps(DensityGrid(p, spec), y)[0] == 0.0

    def test_point_forecast_equals_absolute_error(self):
        spec = BinSpec(0.0, 10.0, 10)
        rng = np.random.default_rng(4)
        for _ in range(50):
            b = rng.integers(0, 10)
            p = np.zeros((1, 10))
            p[0, b] = 1.0
            y = rng.uniform(-15.0, 25.0)  # also far outside the bin support
            got = crps(DensityGrid(p, spec), np.array([y]))[0]
            expect = abs(spec.lower_bound(b) - y)
            assert abs(got - expect) <= 1e-12 * max(1.0, expect)

    def test_closed_form_matches_riemann_oracle(self):
        rng = np.random.default_rng(5)
        spec = BinSpec(-3.0, 7.0, 20)
        for _ in range(20):
            p = rng.random(20)
            p /= p.sum()
            y = rng.uniform(-5.0, 9.0)
            got = crps(DensityGrid(p.reshape(1, 20), spec), np.array([y]))[0]
            oracle = riemann_crps(p, spec, y)
            assert abs(got - oracle) <= 1e-6 * abs(oracle)

    def test_chunked_rows_match_per_slice_values(self):
        """A 100-bin density of 6912 rows spans three chunks; each time slice
        fits in one, and the chunked result is their concatenation, bit for bit."""
        rng = np.random.default_rng(11)
        d = random_density(rng, (6, 24, 48), 100)
        y = rng.uniform(-2.0, 12.0, size=(6, 24, 48))
        whole = crps(d, y)
        parts = [crps(DensityGrid(d.probs[t], d.spec), y[t]) for t in range(6)]
        assert np.array_equal(whole, np.stack(parts))

    def test_crps_non_negative(self):
        rng = np.random.default_rng(6)
        d = random_density(rng, (50,), 15)
        y = rng.uniform(-2, 12, size=50)
        assert crps(d, y).min() >= 0.0

    def test_rejects_unnormalized(self):
        spec = BinSpec(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="normalized"):
            crps(DensityGrid(np.full((1, 4), 0.3), spec), np.array([0.5]))

    def test_rejects_non_finite_obs(self):
        spec = BinSpec(0.0, 1.0, 4)
        for score in (crps, coverage_stats):
            with pytest.raises(ValueError, match="finite"):
                score(DensityGrid(np.full((1, 4), 0.25), spec), np.array([np.nan]))


class TestMeanCrps:
    def test_all_perfect_point_forecasts(self):
        spec = BinSpec(0.0, 8.0, 8)
        p = np.zeros((2, 3, 8))
        p[..., 2] = 1.0
        y = np.full((2, 3), spec.lower_bound(2))
        assert mean_crps(DensityGrid(p, spec), y) == 0.0

    def test_average_of_two_points(self):
        spec = BinSpec(0.0, 8.0, 8)
        p = np.zeros((2, 8))
        p[:, 0] = 1.0
        y = np.array([1.0, 3.0])  # CRPS = |0-1| = 1 and |0-3| = 3
        assert mean_crps(DensityGrid(p, spec), y) == pytest.approx(2.0)


class TestCoverage:
    def test_one_hot_truth_at_representative_is_fully_covered(self):
        spec = BinSpec(0.0, 10.0, 10)
        p = np.zeros((4, 10))
        p[:, 6] = 1.0
        truth = np.full(4, spec.lower_bound(6))
        cov = coverage_stats(DensityGrid(p, spec), truth)
        assert all(v == 100.0 for v in cov.values())

    def test_sigma_zero_requires_exact_match(self):
        spec = BinSpec(0.0, 10.0, 10)
        p = np.zeros((2, 10))
        p[:, 3] = 1.0
        truth = np.array([spec.lower_bound(3), spec.lower_bound(3) + 1e-9])
        cov = coverage_stats(DensityGrid(p, spec), truth)
        assert cov["sigma2"] == 50.0

    def test_sampling_oracle(self):
        rng = np.random.default_rng(8)
        n = 20_000
        spec = BinSpec(0.0, 10.0, 10)
        d = random_density(rng, (n,), 10, spec)
        cum = np.cumsum(d.probs, axis=1)
        u = rng.random((n, 1))
        sampled_bins = (cum >= u).argmax(axis=1)
        truth = spec.lower_bound(sampled_bins)
        cov = coverage_stats(d, truth)

        mu = expectation(d)
        sigma = density_stddev(d)
        x = spec.representatives
        for name, width in (("ci95", 1.960 * sigma / np.sqrt(10)),
                            ("ci99", 2.576 * sigma / np.sqrt(10)),
                            ("sigma1", sigma), ("sigma2", 2 * sigma)):
            inside = np.abs(x[None, :] - mu[:, None]) <= width[:, None]
            expected_mass = float((d.probs * inside).sum(axis=1).mean()) * 100
            assert abs(cov[name] - expected_mass) < 1.0

    def test_percentages_in_range(self):
        rng = np.random.default_rng(9)
        d = random_density(rng, (100,), 12)
        truth = rng.uniform(0, 10, size=100)
        cov = coverage_stats(d, truth)
        assert all(0.0 <= v <= 100.0 for v in cov.values())


def _tie_heavy(rng, n_bins, shape, total=10):
    """Probabilities in steps of 1/total, so most rows hold exact ties."""
    counts = rng.multinomial(total, np.full(n_bins, 1.0 / n_bins), size=shape)
    return counts / float(total), rng.integers(0, n_bins, size=shape)


def _signed_zeros(rng, rows=400, n_bins=10):
    """Three bins hold the mass; the rest are +0.0 or -0.0, and the true bin
    is one of them."""
    p = np.where(rng.random((rows, n_bins)) < 0.5, -0.0, 0.0)
    order = rng.permuted(np.tile(np.arange(n_bins), (rows, 1)), axis=1)
    np.put_along_axis(p, order[:, :3], np.array([[0.2, 0.3, 0.5]]), axis=1)
    return p, order[np.arange(rows), rng.integers(3, n_bins, size=rows)]


def _slightly_negative(rng):
    """Tie-heavy rows whose empty bins may read -1e-5, which validate accepts."""
    p, bins = _tie_heavy(rng, 10, (400,))
    p[(p == 0.0) & (rng.random(p.shape) < 0.5)] = -1e-5
    return p, bins


def _top_ties(rng, rows=400, n_bins=10):
    """2 to 5 bins tie for the top, the rest tie below them; half the true bins
    are top bins."""
    m = rng.integers(2, 6, size=(rows, 1))
    order = rng.permuted(np.tile(np.arange(n_bins), (rows, 1)), axis=1)
    p = np.where(order < m, 2.0, 1.0)
    p /= p.sum(axis=1, keepdims=True)
    top = np.argmax(order == rng.integers(0, m), axis=1)
    return p, np.where(rng.random(rows) < 0.5, top, rng.integers(0, n_bins, size=rows))


class TestTopK:
    def test_one_hot_correct_everywhere(self):
        spec = BinSpec(0.0, 10.0, 10)
        p = np.zeros((5, 10))
        p[:, 7] = 1.0
        bins = np.full(5, 7)
        assert topk_match(DensityGrid(p, spec), bins, 1) == 100.0

    def test_uniform_density_gives_k_over_n(self):
        rng = np.random.default_rng(10)
        n = 20_000
        spec = BinSpec(0.0, 100.0, 100)
        p = np.full((n, 100), 0.01)
        bins = rng.integers(0, 100, size=n)
        d = DensityGrid(p, spec)
        for k in range(1, 6):
            got = topk_match(d, bins, k)
            assert abs(got - k) < 1.0  # k% expected

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        d = random_density(rng, (300,), 20)
        bins = rng.integers(0, 20, size=300)
        pcts = [topk_match(d, bins, k) for k in range(1, 6)]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))

    def test_ties_prefer_lower_bin_index(self):
        spec = BinSpec(0.0, 4.0, 4)
        p = np.full((1, 4), 0.25)
        d = DensityGrid(p, spec)
        assert topk_match(d, np.array([0]), 1) == 100.0
        assert topk_match(d, np.array([1]), 1) == 0.0

    def test_report_matches_per_k_on_tie_heavy_density(self):
        # probabilities in tenths, so most rows hold several exact ties
        rng = np.random.default_rng(18)
        spec = BinSpec(0.0, 10.0, 10)
        counts = rng.multinomial(10, np.full(10, 0.1), size=(3, 4, 6))
        d = DensityGrid(counts / 10.0, spec)
        truth = rng.uniform(0, 10, size=(3, 4, 6))
        report = assemble_report(d, truth, GridSpec.regular(4, 6), variable="z",
                                 level=500, lead_hours=72, split="test")
        bins = discretize(truth, spec).bins
        assert report.topk == {k: topk_match(d, bins, k) for k in range(1, 6)}
        assert len(set(report.topk.values())) > 1

    def test_k_out_of_range(self):
        spec = BinSpec(0.0, 4.0, 4)
        d = DensityGrid(np.full((1, 4), 0.25), spec)
        with pytest.raises(ValueError):
            topk_match(d, np.array([0]), 5)

    @pytest.mark.parametrize("bins, match", [
        (np.array([2]), "shape"),                    # would broadcast over every point
        (np.full((4, 3, 5), 2)[..., :4], "shape"),
        (np.full((4, 3, 5), 99), r"\[0, 6\)"),
        (np.full((4, 3, 5), -1), r"\[0, 6\)"),
        (np.full((4, 3, 5), 2.7), "integer"),
        (np.full((4, 3, 5), 2.0), "integer"),
    ], ids=["one-element", "short-axis", "99", "-1", "2.7", "float-2.0"])
    def test_bad_true_bins_rejected(self, bins, match):
        d = random_density(np.random.default_rng(19), (4, 3, 5), 6)
        with pytest.raises(ValueError, match=match):
            topk_match(d, bins, 1)

    @pytest.mark.parametrize("make, n_chunks", [
        (lambda rng: _tie_heavy(rng, 5, (4, 8, 16)), 1),
        (lambda rng: _tie_heavy(rng, 10, (4, 8, 16)), 1),
        (lambda rng: _tie_heavy(rng, 37, (4, 8, 16)), 1),
        (lambda rng: _tie_heavy(rng, 100, (6, 24, 48), total=20), 3),
        (_signed_zeros, 1),
        (_slightly_negative, 1),
        (_top_ties, 1),
    ], ids=["5-tie", "10-tie", "37-tie", "100-tie-3-chunks", "signed-zeros",
            "minus-1e-5", "top-ties"])
    def test_chunked_rows_match_one_sort(self, make, n_chunks):
        """topk_match equals the top k columns of one stable descending sort
        over all rows, bit for bit, for every k up to 5."""
        p, bins = make(np.random.default_rng(20))
        n_bins = p.shape[-1]
        assert len(list(row_chunks(bins.size, n_bins))) == n_chunks
        d = DensityGrid(p, BinSpec(0.0, 10.0, n_bins))
        top = np.argsort(-p.reshape(-1, n_bins), axis=1, kind="stable")
        hit = top[:, :5] == bins.reshape(-1, 1)
        for k in range(1, 6):
            assert topk_match(d, bins, k) == float(100.0 * hit[:, :k].any(axis=1).mean())


class TestCdfThreshold:
    def test_below_support_is_zero(self):
        rng = np.random.default_rng(12)
        d = random_density(rng, (3, 4), 8)
        tm = cdf_threshold(d, -1.0)
        np.testing.assert_array_equal(tm.probabilities, 0.0)

    def test_above_support_is_one(self):
        rng = np.random.default_rng(13)
        d = random_density(rng, (3, 4), 8)
        tm = cdf_threshold(d, 11.0)
        np.testing.assert_allclose(tm.probabilities, 1.0, rtol=1e-12)

    def test_midpoint_takes_half_of_straddled_bin(self):
        rng = np.random.default_rng(14)
        spec = BinSpec(0.0, 10.0, 10)
        d = random_density(rng, (6,), 10, spec)
        t = spec.lower_bound(4) + spec.width / 2
        got = cdf_threshold(d, t).probabilities
        expect = d.probs[:, :4].sum(axis=1) + 0.5 * d.probs[:, 4]
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(15)
        d = random_density(rng, (5, 5), 12)
        prev = None
        for t in np.linspace(-1.0, 11.0, 40):
            cur = cdf_threshold(d, t).probabilities
            if prev is not None:
                assert np.all(cur >= prev - 1e-12)
            prev = cur


class TestScoreReport:
    def make_report(self):
        rng = np.random.default_rng(16)
        grid = GridSpec.regular(4, 6)
        spec = BinSpec(0.0, 10.0, 10)
        d = random_density(rng, (3, 4, 6), 10, spec)
        truth = rng.uniform(0, 10, size=(3, 4, 6))
        return assemble_report(d, truth, grid, variable="z", level=500,
                               lead_hours=72, split="test", spread=1.25)

    @staticmethod
    def assert_json_holds_fields(report):
        """report.json carries every field: the MSE interval as one mse_ci
        pair and the top-k keys as strings."""
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(ScoreReport)}
        fields["mse_ci"] = [fields.pop("mse_ci_lo"), fields.pop("mse_ci_hi")]
        fields["topk"] = {str(k): v for k, v in fields["topk"].items()}
        assert json.loads(report.to_json()) == fields

    def test_json_round_trip_lossless(self):
        self.assert_json_holds_fields(self.make_report())

    def test_perfect_forecast_leaves_spread_skill_unset(self):
        spec = BinSpec(0.0, 10.0, 10)
        bins = np.random.default_rng(17).integers(0, 10, size=(3, 4, 6))
        d = DensityGrid(np.eye(10)[bins], spec)
        report = assemble_report(d, spec.lower_bound(bins), GridSpec.regular(4, 6),
                                 variable="z", level=500, lead_hours=72,
                                 split="test", spread=0.5)
        assert report.weighted_rmse == 0.0
        assert report.spread_skill is None
        self.assert_json_holds_fields(report)
        row = next(line for line in render_report_table(report).splitlines()
                   if line.startswith("spread/skill"))
        assert row.split()[-1] == "n/a"

    def test_interval_brackets_mse(self):
        report = self.make_report()
        assert report.mse_ci_lo <= report.weighted_mse <= report.mse_ci_hi

    def test_rendered_table_contains_all_reference_rows(self):
        table = render_report_table(self.make_report())
        for name, vals in REFERENCE_RMSE.items():
            assert name in table
            assert f"{vals['z500'][0]:g}/{vals['z500'][1]:g}" in table
            assert f"{vals['t850'][0]:g}/{vals['t850'][1]:g}" in table
        for vals in REFERENCE_CRPS.values():
            assert f"{vals['z500'][0]:g}/{vals['z500'][1]:g}" in table
        assert "reference (not reproduced)" in table

    def test_reference_constants_pinned(self):
        assert REFERENCE_RMSE["stacked network"]["z500"] == (375.0, 627.0)
        assert REFERENCE_RMSE["stacked network"]["t850"] == (2.11, 2.91)
        assert REFERENCE_RMSE["persistence"]["z500"] == (936.0, 1033.0)
        assert REFERENCE_RMSE["climatology"]["t850"] == (5.51, 5.51)
        assert REFERENCE_RMSE["IFS T42"]["z500"] == (489.0, 743.0)
        assert REFERENCE_CRPS["stacked network"]["t850"] == (1.22, 1.69)
        assert REFERENCE_COVERAGE["z500 3-day"] == (13.8, 16.3, 64.7, 93.6)
        assert REFERENCE_COVERAGE["t850 5-day"] == (17.3, 20.5, 71.2, 94.2)

    def test_metrics_only_table_without_reference(self):
        table = render_report_table(self.make_report(), include_reference=False)
        assert "reference" not in table

    def test_rejects_inconsistent_interval(self):
        with pytest.raises(ValueError, match="bracket"):
            ScoreReport(variable="z", level=500, lead_hours=72, n_samples=3,
                        split="test", weighted_rmse=1.0, weighted_mse=1.0,
                        mse_ci_lo=2.0, mse_ci_hi=3.0, mean_crps=0.5,
                        coverage={"ci95": 10.0}, topk={1: 10.0})

    def test_rejects_bad_percentages(self):
        with pytest.raises(ValueError, match="percentages"):
            ScoreReport(variable="z", level=500, lead_hours=72, n_samples=3,
                        split="test", weighted_rmse=1.0, weighted_mse=1.0,
                        mse_ci_lo=0.5, mse_ci_hi=1.5, mean_crps=0.5,
                        coverage={"ci95": 120.0}, topk={1: 10.0})

    def test_json_is_deterministic(self):
        a = self.make_report().to_json()
        b = self.make_report().to_json()
        assert a == b
        parsed = json.loads(a)
        assert parsed["topk"]["1"] >= 0.0

    def test_report_validates_its_density_once(self, monkeypatch):
        calls = []
        validate = DensityGrid.validate

        def counted(d):
            calls.append(d)
            return validate(d)

        monkeypatch.setattr(DensityGrid, "validate", counted)
        self.make_report()
        assert len(calls) == 1

    def test_report_holds_one_row_chunk(self):
        """Scoring a 64-sample, 100-bin density (26 MB) adds at most 16 MB to
        it: every density-sized temporary is made one row chunk at a time."""
        rng = np.random.default_rng(21)
        d = random_density(rng, (64, 16, 32), 100)
        truth = rng.uniform(-1.0, 11.0, size=(64, 16, 32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assemble_report(d, truth, GridSpec.regular(16, 32), variable="z",
                            level=500, lead_hours=72, split="test")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, f"transient {peak / 2 ** 20:.1f} MB"
