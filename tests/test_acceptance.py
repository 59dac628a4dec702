"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line in the terminal summary. The toy-scale
runs use the pinned 16x32 grid / 2000 steps / 10 bins / 2-block / lead-12-step
configuration; smaller side experiments state their own scales.
"""

import hashlib
import itertools
import json
import time

import numpy as np
import pytest

from probcast import autodiff as ad
from probcast.autodiff import Tensor
from probcast.binning import BinSpec, DensityGrid, density_stddev, discretize, expectation
from probcast.cli import main as cli_main
from probcast.ensemble import ensemble_spread, generate_ensemble, linear_pool
from probcast.exploration import (ExperimentSpec, ImportanceRow, run_benchmark,
                                  run_candidate, select_optimum)
from probcast.grid import (Dataset, GridSpec, SplitPlan, climatology,
                           persistence_forecast)
from probcast.resnet import (PlateauSchedule, ResNet, ResNetConfig,
                             TrainingSchedule, build_samples, train)
from probcast.stacking import (LearnerOutput, average_combine, stack_predict,
                               train_stack)
from probcast.synth import SynthConfig, synth_generate, with_leaked_variable, with_noise_variable
from probcast.verification import (coverage_stats, crps, topk_match,
                                   weighted_mse_ci, weighted_rmse)
from probcast.contours import probability_contours
from probcast.verification import ThresholdMap

from conftest import acceptance
from gradcheck import check_gradients
from test_contours import reinterpolate, smooth_random_field
from test_verification import riemann_crps

LEAD_HOURS = 72  # 12 steps at the 6 h cadence


@pytest.fixture(scope="module")
def toy_run():
    """The pinned desk-scale run: data, trained 2-block learner, ensemble."""
    t0 = time.perf_counter()
    ds = synth_generate(SynthConfig(n_lat=16, n_lon=32, n_steps=2000), 2024)
    splits = SplitPlan.from_fractions(ds.n_time, 0.6, 0.1, 0.15, 0.15)
    cfg = ResNetConfig(inputs=[("z", 500), ("t", 850)], target=("z", 500),
                       lead_hours=LEAD_HOURS, n_blocks=2, n_bins=10,
                       dropout_rate=0.1)
    model = ResNet(cfg, seed=0)
    sched = TrainingSchedule(initial_lr=2e-3, max_epochs=8, batch_size=32)
    train(model, ds, splits.train, splits.neural_validation, sched, seed=0)
    X_test, truth_test, _ = build_samples(ds, cfg, splits.test)
    ens = generate_ensemble(model, X_test, n_members=32, master_seed=77)
    pooled = linear_pool(ens.members)
    _, spread = ensemble_spread(ens, ds.grid)
    member0_rmse = weighted_rmse(expectation(ens.members[0]), truth_test, ds.grid)
    del ens
    elapsed = time.perf_counter() - t0
    return {"ds": ds, "splits": splits, "cfg": cfg, "model": model,
            "X_test": X_test, "truth_test": truth_test, "pooled": pooled,
            "spread": spread, "member0_rmse": member0_rmse, "seconds": elapsed}


def test_criterion_1_gradient_audit():
    with acceptance(1, "gradient audit: ops + full 1-block net vs central "
                       "differences, rel err < 1e-4, 20 seeds, < 2 min"):
        t0 = time.perf_counter()
        worst = 0.0

        # every differentiable op, randomized, 20 seeds
        for seed in range(20):
            rng = np.random.default_rng(5000 + seed)
            x = Tensor(rng.normal(size=(2, 3, 3, 4))
                       + np.sign(rng.normal(size=(2, 3, 3, 4))) * 0.05,
                       requires_grad=True)
            w = Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.5, requires_grad=True)
            b = Tensor(rng.normal(size=2), requires_grad=True)
            gamma = Tensor(rng.normal(size=3) + 1.5, requires_grad=True)
            beta = Tensor(rng.normal(size=3), requires_grad=True)
            dw = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            db = Tensor(rng.normal(size=5), requires_grad=True)
            xd = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
            t = rng.normal(size=(2, 2, 3, 4))
            t3 = rng.normal(size=(2, 3, 3, 4))
            bins = rng.integers(0, 2, size=(2, 3, 4))
            rows = rng.integers(0, 5, size=6)

            checks = [
                (lambda: ad.mse_loss(ad.conv2d(x, w, b), t), [x, w, b]),
                (lambda: ad.mse_loss(ad.leaky_relu(x), t3), [x]),
                (lambda: ad.sparse_categorical_cross_entropy(
                    ad.softmax(ad.conv2d(x, w, b)), bins), [x, w, b]),
                (lambda: ad.sparse_categorical_cross_entropy(
                    ad.softmax(ad.dense(xd, dw, db), axis=1), rows),
                 [xd, dw, db]),
                (lambda: ad.tensor_sum(ad.square(
                    ad.dropout(x, 0.2, np.random.default_rng(seed)))), [x]),
                (lambda: ad.mse_loss(ad.layer_norm(x, gamma, beta), t3),
                 [x, gamma, beta]),
            ]

            def bn_loss():
                mean = x.data.mean(axis=(0, 2, 3))
                var = x.data.var(axis=(0, 2, 3))
                return ad.mse_loss(ad.batch_norm(x, gamma, beta, mean, var), t3)

            checks.append((bn_loss, [x, gamma, beta]))
            for make_loss, params in checks:
                worst = max(worst, check_gradients(make_loss, params))

        # the full 1-block categorical network, every parameter, 20 seeds
        cfg = ResNetConfig(inputs=[("a", 500), ("b", 500)], target=("a", 500),
                           lead_hours=6, n_blocks=1, n_bins=4, kernel=3,
                           dropout_rate=0.1)
        accepted = 0
        for seed in itertools.count():
            model = ResNet(cfg, seed=seed, dtype=np.float64)
            model.input_mean = np.zeros(2)
            model.input_std = np.ones(2)
            rng = np.random.default_rng(9000 + seed)
            x_in = rng.normal(size=(2, 2, 4, 6))
            bins = rng.integers(0, 4, size=(2, 4, 6))

            proj = model.conv_in(Tensor(model._standardize(x_in)))
            pre = model.blocks[0]["norm"](model.blocks[0]["conv"](proj),
                                          training=True).data
            if np.abs(pre).min() < 5e-3:   # FD is undefined across the kink
                continue

            def full_loss():
                out = model.forward(x_in, training=True, dropout_enabled=True,
                                    rng=np.random.default_rng(31 + seed))
                return ad.sparse_categorical_cross_entropy(ad.softmax(out), bins)

            worst = max(worst, check_gradients(full_loss,
                                               [t for _, t in model.parameters()]))
            accepted += 1
            if accepted >= 20:
                break

        elapsed = time.perf_counter() - t0
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
        assert elapsed < 120.0, f"audit took {elapsed:.1f}s"


def test_criterion_2_density_validity():
    with acceptance(2, "density validity: 1e4 random forward passes sum to 1 "
                       "within 1e-6, entries >= 0"):
        cfg = ResNetConfig(inputs=[("a", 500), ("b", 500)], target=("a", 500),
                           lead_hours=6, n_blocks=2, n_bins=10, dropout_rate=0.1)
        total = 0
        worst_sum = 0.0
        min_entry = np.inf
        for seed in range(4):
            model = ResNet(cfg, seed=seed)
            model.input_mean = np.zeros(2)
            model.input_std = np.ones(2)
            model.binspec = BinSpec(0.0, 10.0, 10)
            rng = np.random.default_rng(seed)
            n = 2500
            scale = 10.0 ** rng.integers(-2, 3)   # exercise extreme inputs too
            X = rng.normal(scale=scale, size=(n, 2, 8, 16)).astype(np.float32)
            d = model.predict_density(X, dropout_enabled=(seed % 2 == 1),
                                      rng=np.random.default_rng(seed))
            sums = d.probs.sum(axis=-1)
            worst_sum = max(worst_sum, float(np.abs(sums - 1.0).max()))
            min_entry = min(min_entry, float(d.probs.min()))
            total += n
        assert total == 10_000
        assert worst_sum <= 1e-6, f"mass deviates by {worst_sum:.2e}"
        assert min_entry >= 0.0


def test_criterion_3_crps_oracle():
    with acceptance(3, "CRPS: closed form vs 1e6-step Riemann oracle within "
                       "1e-6 rel (100 pairs); point forecast == |x-y| "
                       "within 1e-12"):
        rng = np.random.default_rng(33)
        spec = BinSpec(-4.0, 6.0, 25)
        for _ in range(100):
            p = rng.random(25) + 0.01
            p /= p.sum()
            y = rng.uniform(-6.0, 8.0)
            got = crps(DensityGrid(p.reshape(1, 25), spec), np.array([y]))[0]
            oracle = riemann_crps(p, spec, y)
            assert abs(got - oracle) <= 1e-6 * abs(oracle)

        for _ in range(200):
            b = rng.integers(0, 25)
            point = np.zeros((1, 25))
            point[0, b] = 1.0
            y = rng.uniform(-30.0, 30.0)
            got = crps(DensityGrid(point, spec), np.array([y]))[0]
            expect = abs(spec.lower_bound(b) - y)
            assert abs(got - expect) <= 1e-12 * max(1.0, expect)


def test_criterion_4_metric_oracles():
    with acceptance(4, "metric oracles: rmse/mse-ci/expectation/stddev/pool/"
                       "spread match brute force within 1e-10 on 32x64"):
        rng = np.random.default_rng(44)
        grid = GridSpec.regular(32, 64)
        w = np.cos(np.deg2rad(grid.latitudes_deg))
        w = w / w.mean()

        pred = rng.normal(50000, 2000, size=(2, 32, 64))
        truth = rng.normal(50000, 2000, size=(2, 32, 64))
        terms = []
        for t in range(2):
            for j in range(32):
                for k in range(64):
                    terms.append(w[j] * (pred[t, j, k] - truth[t, j, k]) ** 2)
        terms = np.array(terms)
        rmse_ref = np.sqrt(terms.mean())
        got_rmse = weighted_rmse(pred, truth, grid)
        assert abs(got_rmse - rmse_ref) <= 1e-10 * rmse_ref
        mse, lo, hi = weighted_mse_ci(pred, truth, grid)
        half_ref = 1.96 * np.sqrt(terms.var() / terms.size)
        assert abs(mse - terms.mean()) <= 1e-10 * terms.mean()
        assert abs(lo - (terms.mean() - half_ref)) <= 1e-10 * terms.mean()
        assert abs(hi - (terms.mean() + half_ref)) <= 1e-10 * terms.mean()

        spec = BinSpec(45000.0, 55000.0, 100)
        p = rng.random((32, 64, 100))
        p /= p.sum(axis=-1, keepdims=True)
        d = DensityGrid(p, spec)
        mu = expectation(d)
        sigma = density_stddev(d)
        xs = [spec.v_min + i * spec.width for i in range(100)]
        for j in range(0, 32, 7):
            for k in range(0, 64, 13):
                mu_ref = sum(xs[i] * p[j, k, i] for i in range(100))
                var_ref = sum((xs[i] - mu_ref) ** 2 * p[j, k, i]
                              for i in range(100))
                assert abs(mu[j, k] - mu_ref) <= 1e-10 * abs(mu_ref)
                assert abs(sigma[j, k] - np.sqrt(var_ref)) <= 1e-10 * np.sqrt(var_ref)

        members = []
        for _ in range(8):
            q = rng.random((4, 8, 10))
            members.append(DensityGrid(q / q.sum(axis=-1, keepdims=True),
                                       BinSpec(0.0, 10.0, 10)))
        weights = rng.random(8)
        weights /= weights.sum()
        pooled = linear_pool(members, weights)
        pooled_ref = np.zeros((4, 8, 10))
        for wk, m in zip(weights, members):
            pooled_ref += wk * m.probs
        assert np.abs(pooled.probs - pooled_ref).max() <= 1e-10

        from probcast.ensemble import EnsembleSet
        small_grid = GridSpec.regular(4, 8)
        sw = np.cos(np.deg2rad(small_grid.latitudes_deg))
        sw = sw / sw.mean()
        big = [DensityGrid(m.probs[None], m.spec) for m in members]
        ens = EnsembleSet(big, list(range(8)))
        field, scalar = ensemble_spread(ens, small_grid)
        exps = np.stack([expectation(m) for m in big])
        acc = 0.0
        for j in range(4):
            for k in range(8):
                col = exps[:, 0, j, k]
                var = ((col - col.mean()) ** 2).mean()
                assert abs(field[0, j, k] - np.sqrt(var)) <= 1e-10 * max(np.sqrt(var), 1e-12)
                acc += sw[j] * var
        scalar_ref = np.sqrt(acc / 32)
        assert abs(scalar - scalar_ref) <= 1e-10 * scalar_ref


def test_criterion_5_pooling_law():
    with acceptance(5, "pooling law: pooled expectation == weighted mean of "
                       "member expectations within 1e-9 (100 ensembles)"):
        rng = np.random.default_rng(55)
        spec = BinSpec(-10.0, 30.0, 40)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            members = []
            for _ in range(n):
                p = rng.random((3, 5, 40))
                members.append(DensityGrid(p / p.sum(axis=-1, keepdims=True), spec))
            weights = rng.random(n)
            weights /= weights.sum()
            pooled_mu = expectation(linear_pool(members, weights))
            mix_mu = sum(wi * expectation(m) for wi, m in zip(weights, members))
            assert np.abs(pooled_mu - mix_mu).max() < 1e-9


def test_criterion_6_schedule_semantics():
    with acceptance(6, "schedule: scripted losses trigger LR/5 after exactly "
                       "2 stagnant epochs and stop after exactly 5"):
        plateau = PlateauSchedule(TrainingSchedule(initial_lr=5e-5))
        reduced_at = []
        stopped_at = None
        for epoch, loss in enumerate([5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]):
            d = plateau.update(loss)
            if d["reduced"]:
                reduced_at.append(epoch)
            if d["stop"]:
                stopped_at = epoch
                break
        assert reduced_at[0] == 3      # exactly 2 stagnant epochs after epoch 1
        assert stopped_at == 6         # exactly 5 stagnant epochs
        assert plateau.lr == pytest.approx(5e-5 / 25)

        plateau = PlateauSchedule(TrainingSchedule(initial_lr=5e-5))
        for loss in [5.0, 4.5, 4.0, 3.5, 3.0]:
            d = plateau.update(loss)
            assert not d["reduced"] and not d["stop"]
        assert plateau.lr == 5e-5


def test_criterion_7_end_to_end_skill(toy_run):
    with acceptance(7, "end-to-end: pooled 32-member forecast beats "
                       "persistence and climatology on the 16x32 toy run"):
        ds = toy_run["ds"]
        splits = toy_run["splits"]
        truth = toy_run["truth_test"]
        pooled_rmse = weighted_rmse(expectation(toy_run["pooled"]), truth, ds.grid)

        pred_p, truth_p = persistence_forecast(ds, "z", 500, LEAD_HOURS,
                                               splits.test)
        persistence_rmse = weighted_rmse(pred_p, truth_p, ds.grid)
        clim = climatology(ds, "z", 500, splits.train)
        clim_rmse = weighted_rmse(np.repeat(clim.values[None], truth.shape[0], 0),
                                  truth, ds.grid)
        assert pooled_rmse < persistence_rmse, \
            f"pooled {pooled_rmse:.1f} vs persistence {persistence_rmse:.1f}"
        assert pooled_rmse < clim_rmse, \
            f"pooled {pooled_rmse:.1f} vs climatology {clim_rmse:.1f}"
        assert toy_run["seconds"] < 1800.0


def test_criterion_8_ensemble_benefit(toy_run):
    with acceptance(8, "ensemble benefit: mean over 5 seeds of pooled RMSE "
                       "minus single-member RMSE <= 0"):
        ds = toy_run["ds"]
        model = toy_run["model"]
        X = toy_run["X_test"]
        truth = toy_run["truth_test"]
        diffs = []
        for seed in (101, 202, 303, 404, 505):
            ens = generate_ensemble(model, X, n_members=32, master_seed=seed)
            pooled_rmse = weighted_rmse(expectation(linear_pool(ens.members)),
                                        truth, ds.grid)
            single_rmse = weighted_rmse(expectation(ens.members[0]), truth,
                                        ds.grid)
            diffs.append(pooled_rmse - single_rmse)
            del ens
        assert np.mean(diffs) <= 0.0, f"mean diff {np.mean(diffs):.3f}"


@pytest.fixture(scope="module")
def stack_run():
    """Two learners ensembled on the stacked-validation split, plus a stack.

    Finer bins than the headline toy run: at 10 bins the CE-optimal stack
    expectation sits on the conditional-representative ceiling, a few percent
    above the best learner; 20 bins shrink that quantization floor so the
    bound is meaningful.
    """
    ds = synth_generate(SynthConfig(n_lat=8, n_lon=16, n_steps=1200), 314)
    splits = SplitPlan.from_fractions(ds.n_time, 0.6, 0.1, 0.15, 0.15)
    sched = TrainingSchedule(initial_lr=2e-3, max_epochs=8, batch_size=32)
    models = []
    for seed, inputs in ((0, [("z", 500), ("t", 850)]),
                         (1, [("z", 500), ("t", 850), ("z", 850)])):
        cfg = ResNetConfig(inputs=inputs, target=("z", 500),
                           lead_hours=LEAD_HOURS, n_blocks=1, n_bins=20,
                           dropout_rate=0.1)
        model = ResNet(cfg, seed=seed)
        train(model, ds, splits.train, splits.neural_validation, sched,
              seed=seed)
        models.append(model)

    outputs = []
    truth = None
    for model in models:
        X, truth, _ = build_samples(ds, model.cfg, splits.stacked_validation)
        ens = generate_ensemble(model, X, n_members=32, master_seed=11)
        pooled = linear_pool(ens.members)
        outputs.append(LearnerOutput(f"{model.cfg.inputs}", expectation(pooled)))
        del ens
    spec = models[0].binspec
    bins = discretize(truth, spec).bins
    stack_sched = TrainingSchedule(initial_lr=1e-2, max_epochs=80,
                                   batch_size=8192, stop_patience_epochs=10)
    stack = train_stack(outputs, bins, spec, sched=stack_sched, seed=5)
    return {"ds": ds, "outputs": outputs, "truth": truth, "spec": spec,
            "bins": bins, "stack": stack, "sched": stack_sched}


def test_criterion_9_stacking_bound(stack_run):
    with acceptance(9, "stacking: train-rows RMSE <= min learner x 1.02; "
                       "junk learner shifts stack < 5% and average by more"):
        ds = stack_run["ds"]
        outputs = stack_run["outputs"]
        truth = stack_run["truth"]
        spec = stack_run["spec"]

        fused = stack_predict(stack_run["stack"], outputs)
        stack_rmse = weighted_rmse(expectation(fused), truth, ds.grid)
        learner_rmses = [weighted_rmse(o.expectations, truth, ds.grid)
                         for o in outputs]
        assert stack_rmse <= min(learner_rmses) * 1.02, \
            f"stack {stack_rmse:.1f} vs best learner {min(learner_rmses):.1f}"

        rng = np.random.default_rng(123)
        junk = LearnerOutput("junk", rng.uniform(spec.v_min, spec.v_max,
                                                 size=truth.shape))
        with_junk = outputs + [junk]
        stack3 = train_stack(with_junk, stack_run["bins"], spec,
                             sched=stack_run["sched"], seed=5)
        fused3 = stack_predict(stack3, with_junk)
        stack3_rmse = weighted_rmse(expectation(fused3), truth, ds.grid)
        stack_delta = abs(stack3_rmse - stack_rmse) / stack_rmse

        avg2_rmse = weighted_rmse(average_combine(outputs), truth, ds.grid)
        avg3_rmse = weighted_rmse(average_combine(with_junk), truth, ds.grid)
        avg_delta = abs(avg3_rmse - avg2_rmse) / avg2_rmse

        assert stack_delta < 0.05, f"stack moved {100 * stack_delta:.2f}%"
        assert avg_delta > stack_delta, \
            f"average moved {100 * avg_delta:.2f}% <= stack {100 * stack_delta:.2f}%"


def test_criterion_10_coverage_consistency():
    with acceptance(10, "coverage: sampled truths match per-density interval "
                        "mass within 1%; uniform top-k matches k/n_bins"):
        rng = np.random.default_rng(1010)
        n = 100_000
        spec = BinSpec(0.0, 10.0, 10)
        p = rng.random((n, 10))
        p /= p.sum(axis=-1, keepdims=True)
        d = DensityGrid(p, spec)
        cum = np.cumsum(p, axis=1)
        sampled_bins = (cum >= rng.random((n, 1))).argmax(axis=1)
        truth = spec.lower_bound(sampled_bins)
        cov = coverage_stats(d, truth)

        mu = expectation(d)
        sigma = density_stddev(d)
        xs = spec.representatives
        for name, width in (("ci95", 1.960 * sigma / np.sqrt(10)),
                            ("ci99", 2.576 * sigma / np.sqrt(10)),
                            ("sigma1", sigma), ("sigma2", 2 * sigma)):
            inside = np.abs(xs[None, :] - mu[:, None]) <= width[:, None]
            expected = float((p * inside).sum(axis=1).mean()) * 100
            assert abs(cov[name] - expected) <= 1.0, \
                f"{name}: observed {cov[name]:.2f}% vs mass {expected:.2f}%"

        spec100 = BinSpec(0.0, 100.0, 100)
        uniform = DensityGrid(np.full((n, 100), 0.01), spec100)
        bins100 = rng.integers(0, 100, size=n)
        for k in range(1, 6):
            got = topk_match(uniform, bins100, k)
            assert abs(got - k) <= 1.0, f"top-{k}: {got:.2f}% vs {k}%"


def test_criterion_11_exploration_discriminates():
    with acceptance(11, "exploration: leaked input < 50% of benchmark, pure "
                        "noise >= 95%, CIs disjoint, optimum prefers fewer "
                        "levels under overlap"):
        # data-rich, capacity-lean regime (k=3, 2000 steps, plateau-converged):
        # otherwise an extra input channel regularizes the toy net enough to
        # sit below the 95% floor regardless of its information content
        base = synth_generate(SynthConfig(n_lat=8, n_lon=16, n_steps=2000), 7)
        steps = LEAD_HOURS // base.step_hours
        leak_ds = with_leaked_variable(base, "z", 500, steps, name="leak")
        trimmed = Dataset(base.grid, base.variables,
                          base.data[:base.n_time - steps],
                          base.epoch_hours_start, base.step_hours)
        noise_ds = with_noise_variable(trimmed, seed=99, name="whitenoise")
        splits = SplitPlan.from_fractions(leak_ds.n_time, 0.6, 0.1, 0.15, 0.15)
        sched = TrainingSchedule(initial_lr=5e-3, max_epochs=60, batch_size=32)

        def make_spec(name, extras):
            return ExperimentSpec(name=name,
                                  base_inputs=[("z", 500), ("t", 850)],
                                  extra_inputs=extras, target=("z", 500),
                                  lead_hours=LEAD_HOURS, n_blocks=1, n_bins=20,
                                  kernel=3, n_members=8, seed=0)

        _, (bench_mse, _, _) = run_benchmark(make_spec("benchmark", []),
                                             trimmed, splits, sched)
        leak_row = run_candidate(make_spec("leak", [("leak", "surface")]),
                                 bench_mse, leak_ds, splits, sched)
        noise_row = run_candidate(
            make_spec("noise", [("whitenoise", "surface")]), bench_mse,
            noise_ds, splits, sched)

        assert leak_row.relative_pct < 50.0, \
            f"leak at {leak_row.relative_pct:.1f}%"
        assert noise_row.relative_pct >= 95.0, \
            f"noise at {noise_row.relative_pct:.1f}%"
        assert leak_row.ci_hi < noise_row.ci_lo, "intervals overlap"

        seven = ImportanceRow("seven", [("q", i) for i in range(7)],
                              80.5, 79.5, 81.5, 80.5, (79.5, 81.5))
        eight = ImportanceRow("eight", [("q", i) for i in range(8)],
                              80.0, 79.0, 81.0, 80.0, (79.0, 81.0))
        assert select_optimum([eight, seven]).name == "seven"


def test_criterion_12_contour_fidelity():
    with acceptance(12, "contours: every vertex re-interpolates to its level "
                        "within 1e-9; half-plane gives the analytic midline"):
        rng = np.random.default_rng(1212)
        grid = GridSpec.regular(12, 20)
        for _ in range(5):
            field = smooth_random_field(rng, grid)
            out = probability_contours(ThresholdMap(0.0, field), grid,
                                       levels=(0.1, 0.5, 0.9))
            checked = 0
            for level, lines in out.items():
                for line in lines:
                    for lat, lon in line.vertices:
                        assert abs(reinterpolate(field, grid, lat, lon)
                                   - level) < 1e-9
                        checked += 1
            assert checked > 0

        half = np.zeros(grid.shape)
        half[:6, :] = 1.0
        out = probability_contours(ThresholdMap(0.0, half), grid, levels=(0.5,))
        assert len(out[0.5]) == 1
        line = out[0.5][0]
        assert line.closed and len(line.vertices) == 20
        midline = (grid.latitudes_deg[5] + grid.latitudes_deg[6]) / 2
        np.testing.assert_allclose(line.vertices[:, 0], midline, atol=1e-12)


def test_criterion_13_pipeline_determinism(tmp_path):
    with acceptance(13, "determinism: pipeline rerun with identical seeds is "
                        "byte-identical (checkpoints and reports)"):
        def run_pipeline(root):
            root.mkdir()
            data = root / "toy.gfb"
            split = "0.6,0.1,0.15,0.15"
            args = [
                ["synth", "--seed", "5", "--nlat", "8", "--nlon", "16",
                 "--steps", "300", "--out", str(data)],
                ["train", "--data", str(data), "--split", split,
                 "--lead-hours", "72", "--bins", "5", "--blocks", "1",
                 "--lr", "2e-3", "--epochs", "4", "--seed", "1",
                 "--inputs", "z:500,t:850", "--target", "z:500",
                 "--out", str(root / "m1")],
                ["train", "--data", str(data), "--split", split,
                 "--lead-hours", "72", "--bins", "5", "--blocks", "1",
                 "--lr", "2e-3", "--epochs", "4", "--seed", "2",
                 "--inputs", "z:500,t:850,z:850", "--target", "z:500",
                 "--out", str(root / "m2")],
            ]
            for name in ("m1", "m2"):
                for split_name in ("stacked_validation", "test"):
                    args.append(["ensemble", "--data", str(data), "--split",
                                 split, "--model", str(root / name / "model.pwnn"),
                                 "--members", "6", "--seed", "9",
                                 "--split-name", split_name,
                                 "--out", str(root / f"{name}_{split_name}")])
            args.append(["stack", "--learners",
                         f"{root / 'm1_stacked_validation'},"
                         f"{root / 'm2_stacked_validation'}",
                         "--seed", "3", "--out", str(root / "stack")])
            args.append(["evaluate", "--ensemble", str(root / "m1_test"),
                         "--out", str(root / "eval")])
            args.append(["evaluate", "--stack", str(root / "stack" / "stack.pwnn"),
                         "--learners", f"{root / 'm1_test'},{root / 'm2_test'}",
                         "--out", str(root / "eval_stack")])
            for a in args:
                assert cli_main(a) == 0

        run_pipeline(tmp_path / "run1")
        run_pipeline(tmp_path / "run2")

        compare = ["toy.gfb", "m1/model.pwnn", "m2/model.pwnn",
                   "stack/stack.pwnn", "eval/report.json", "eval/report.txt",
                   "eval_stack/report.json", "m1_test/pooled_probs.npy"]
        for rel in compare:
            b1 = (tmp_path / "run1" / rel).read_bytes()
            b2 = (tmp_path / "run2" / rel).read_bytes()
            assert hashlib.sha256(b1).hexdigest() == hashlib.sha256(b2).hexdigest(), \
                f"{rel} differs between reruns"

        # manifests embed caller-supplied paths; everything else must match
        m1 = json.loads((tmp_path / "run1" / "m1_test/manifest.json").read_text())
        m2 = json.loads((tmp_path / "run2" / "m1_test/manifest.json").read_text())
        for key in ("member_seeds", "binspec", "spread", "n_members",
                    "master_seed", "variable", "lead_hours"):
            assert m1[key] == m2[key], f"manifest field {key} differs"
