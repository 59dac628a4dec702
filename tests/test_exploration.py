import numpy as np
import pytest

from probcast.exploration import (ExperimentSpec, ImportanceRow, build_report,
                                  run_benchmark, select_optimum)
from probcast.grid import SplitPlan, climatology
from probcast.resnet import TrainingSchedule
from probcast.synth import SynthConfig, synth_generate
from probcast.verification import weighted_mse_ci


def row(name, n_levels, pct, half, selected=False):
    levels = [("z", 100 * (i + 1)) for i in range(n_levels)]
    return ImportanceRow(name=name, levels=levels, mse=pct, ci_lo=pct - half,
                         ci_hi=pct + half, relative_pct=pct,
                         relative_ci=(pct - half, pct + half), selected=selected)


class TestSelectOptimum:
    def test_single_row_selected(self):
        r = row("only", 3, 90.0, 1.0)
        assert select_optimum([r]) is r
        assert r.selected

    def test_disjoint_cis_lower_error_wins_regardless_of_cost(self):
        cheap = row("cheap", 1, 95.0, 0.5)
        accurate = row("accurate", 9, 80.0, 0.5)
        assert select_optimum([cheap, accurate]) is accurate

    def test_overlapping_cis_prefer_smaller_level_set(self):
        seven = row("seven", 7, 80.5, 1.0)
        eight = row("eight", 8, 80.0, 1.0)  # best error but CIs overlap
        assert select_optimum([eight, seven]) is seven

    def test_lexicographic_tie_break(self):
        a = ImportanceRow("a", [("z", 100)], 80.0, 79.0, 81.0, 80.0, (79.0, 81.0))
        b = ImportanceRow("b", [("z", 200)], 80.0, 79.0, 81.0, 80.0, (79.0, 81.0))
        chosen = select_optimum([b, a])
        assert chosen is a  # ('z',100) sorts before ('z',200)

    def test_permutation_invariant(self):
        rows = [row("r1", 4, 90.0, 2.0), row("r2", 2, 88.0, 2.0),
                row("r3", 6, 70.0, 0.1)]
        first = select_optimum(list(rows)).name
        for perm in ([2, 1, 0], [1, 2, 0], [2, 0, 1]):
            shuffled = [rows[i] for i in perm]
            assert select_optimum(shuffled).name == first

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            select_optimum([])


class TestRelativeTransform:
    def test_benchmark_row_is_100_percent(self):
        r = ImportanceRow.from_absolute("bench", [], 7.5, 7.0, 8.0, 7.5)
        assert r.relative_pct == pytest.approx(100.0)

    def test_scale_consistency(self):
        a = ImportanceRow.from_absolute("x", [("z", 100)], 3.0, 2.5, 3.5, 6.0)
        b = ImportanceRow.from_absolute("x", [("z", 100)], 6.0, 5.0, 7.0, 12.0)
        assert a.relative_pct == pytest.approx(b.relative_pct)
        assert a.relative_ci == pytest.approx(b.relative_ci)

    def test_report_serialization(self):
        rows = [row("a", 1, 90.0, 1.0), row("b", 2, 80.0, 1.0)]
        report = build_report(100.0, rows)
        assert report.rows[0].relative_pct <= report.rows[1].relative_pct
        csv = report.to_csv()
        assert csv.startswith("name,n_levels,mse,")
        import json
        parsed = json.loads(report.to_json())
        assert parsed["benchmark_mse"] == 100.0
        assert len(parsed["rows"]) == 2
        assert sum(r["selected"] for r in parsed["rows"]) == 1


@pytest.fixture(scope="module")
def tiny_setup():
    ds = synth_generate(SynthConfig(n_lat=8, n_lon=16, n_steps=600), 19)
    splits = SplitPlan.from_fractions(ds.n_time, 0.6, 0.1, 0.15, 0.15)
    sched = TrainingSchedule(initial_lr=2e-3, max_epochs=12, batch_size=32)
    spec = ExperimentSpec(name="bench", base_inputs=[("z", 500), ("t", 850)],
                          target=("z", 500), lead_hours=72, n_blocks=1,
                          n_bins=5, n_members=4, seed=0)
    return ds, splits, sched, spec


class TestHarness:
    def test_benchmark_deterministic_and_beats_climatology(self, tiny_setup):
        ds, splits, sched, spec = tiny_setup
        _, (mse1, lo1, hi1) = run_benchmark(spec, ds, splits, sched)
        _, (mse2, _, _) = run_benchmark(spec, ds, splits, sched)
        assert mse1 == mse2
        assert lo1 <= mse1 <= hi1

        a, b = splits.stacked_validation
        steps = spec.lead_hours // ds.step_hours
        truth = ds.values("z", 500)[a + steps:b]
        clim = climatology(ds, "z", 500, splits.train)
        clim_mse, _, _ = weighted_mse_ci(
            np.repeat(clim.values[None], truth.shape[0], axis=0), truth, ds.grid)
        assert mse1 < clim_mse
