import itertools

import numpy as np
import pytest

from probcast import autodiff as ad
from probcast.autodiff import Tensor
from probcast.binning import discretize
from probcast.grid import SplitPlan, climatology
from probcast.resnet import (CONTINUOUS, PlateauSchedule, ResNet, ResNetConfig,
                             TrainingSchedule, build_samples,
                             evaluate_loss, fit_statistics, train)
from probcast.synth import SynthConfig, synth_generate
from probcast.verification import weighted_rmse

from gradcheck import check_gradients


@pytest.fixture(scope="module")
def toy_data():
    ds = synth_generate(SynthConfig(n_lat=8, n_lon=16, n_steps=600), 42)
    splits = SplitPlan.from_fractions(ds.n_time, 0.6, 0.1, 0.15, 0.15)
    return ds, splits


def toy_config(**kw):
    base = dict(inputs=[("z", 500), ("t", 850)], target=("z", 500),
                lead_hours=72, n_blocks=1, n_bins=10)
    base.update(kw)
    return ResNetConfig(**base)


def identity_stats(model, n_channels):
    model.input_mean = np.zeros(n_channels)
    model.input_std = np.ones(n_channels)


class TestConfig:
    def test_categorical_channels_follow_bins(self):
        cfg = toy_config(n_bins=10)
        assert cfg.channels == 10
        with pytest.raises(ValueError, match="ties the channel count"):
            toy_config(n_bins=10, channels=12)

    def test_continuous_default_channels(self):
        cfg = toy_config(mode=CONTINUOUS, channels=None)
        assert cfg.channels == 64
        assert cfg.out_channels == 1

    def test_json_round_trip(self):
        cfg = toy_config(dropout_rate=None, norm="layer")
        assert ResNetConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            toy_config(n_blocks=0)
        with pytest.raises(ValueError):
            toy_config(mode="fuzzy")
        with pytest.raises(ValueError):
            toy_config(kernel=4)
        with pytest.raises(ValueError):
            toy_config(dropout_rate=1.0)


class TestBuildModel:
    def test_parameter_count_closed_form(self):
        cfg = toy_config(n_blocks=3, n_bins=7, kernel=5)
        model = ResNet(cfg, seed=0)
        ch, k, cin = cfg.channels, cfg.kernel, len(cfg.inputs)
        expected = (ch * cin * k * k + ch                       # projection
                    + cfg.n_blocks * (ch * ch * k * k + ch + 2 * ch)  # blocks
                    + cfg.n_bins * ch * k * k + cfg.n_bins)     # output head
        assert model.n_parameters() == expected

    def test_same_seed_identical_weights(self):
        a = ResNet(toy_config(), seed=5)
        b = ResNet(toy_config(), seed=5)
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = ResNet(toy_config(), seed=5)
        b = ResNet(toy_config(), seed=6)
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()))

    @pytest.mark.parametrize("norm", ["batch", "layer"])
    @pytest.mark.parametrize("training", [False, True])
    def test_zeroed_residual_branches_are_identity(self, norm, training):
        cfg = toy_config(n_blocks=2, norm=norm, dropout_rate=0.2)
        model = ResNet(cfg, seed=1)
        identity_stats(model, 2)
        for blk in model.blocks:
            blk["conv"].w.data[:] = 0.0
            blk["conv"].b.data[:] = 0.0
            blk["norm"].gamma.data[:] = 0.0
            blk["norm"].beta.data[:] = 0.0
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2, 8, 16)).astype(np.float32)
        full = model.forward(x, training=training, dropout_enabled=training,
                             rng=np.random.default_rng(1), update_stats=False)
        proj = model.conv_in(Tensor(model._standardize(x)))
        skip_only = model.conv_out(proj)
        np.testing.assert_array_equal(full.data, skip_only.data)


class TestPlateauSchedule:
    def test_scripted_stagnation_sequence(self):
        # losses [5,4,4,4,...]: LR drops after epoch 3 (2 stagnant epochs),
        # training stops after epoch 6 (5 stagnant epochs)
        sched = TrainingSchedule(initial_lr=1.0)
        plateau = PlateauSchedule(sched)
        events = []
        for epoch, loss in enumerate([5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]):
            d = plateau.update(loss)
            events.append((epoch, d["reduced"], d["stop"], plateau.lr))
            if d["stop"]:
                break
        reduced_at = [e for e, r, s, _ in events if r]
        stopped_at = [e for e, r, s, _ in events if s]
        assert reduced_at == [3, 5]
        assert stopped_at == [6]
        assert events[-1][3] == pytest.approx(1.0 / 25.0)

    def test_improving_sequence_never_reduces(self):
        plateau = PlateauSchedule(TrainingSchedule(initial_lr=1.0))
        for loss in [5.0, 4.0, 3.0, 2.0, 1.0, 0.5]:
            d = plateau.update(loss)
            assert not d["reduced"] and not d["stop"]
        assert plateau.lr == 1.0

    def test_sub_threshold_improvement_counts_as_stagnant(self):
        sched = TrainingSchedule(initial_lr=1.0, min_improvement=1e-6)
        plateau = PlateauSchedule(sched)
        plateau.update(1.0)
        d = plateau.update(1.0 - 1e-9)
        assert not d["improved"]


class TestTraining:
    def test_toy_training_beats_uniform(self, toy_data):
        ds, splits = toy_data
        cfg = toy_config()
        model = ResNet(cfg, seed=0)
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=6, batch_size=32)
        hist = train(model, ds, splits.train, splits.neural_validation, sched,
                     seed=0)
        assert hist.train_loss[-1] < np.log(cfg.n_bins)
        assert hist.val_loss[-1] < hist.val_loss[0]

    def test_training_is_reproducible(self, toy_data):
        ds, splits = toy_data
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=3, batch_size=32)
        runs = []
        for _ in range(2):
            model = ResNet(toy_config(), seed=3)
            hist = train(model, ds, splits.train, splits.neural_validation,
                         sched, seed=3)
            runs.append((hist, model.state_arrays()))
        assert runs[0][0].train_loss == runs[1][0].train_loss
        assert runs[0][0].val_loss == runs[1][0].val_loss
        for (n1, a1), (n2, a2) in zip(runs[0][1], runs[1][1]):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_lr_non_increasing_and_exact_factor(self, toy_data):
        ds, splits = toy_data
        model = ResNet(toy_config(), seed=1)
        # aggressive patience so reductions actually fire on the toy run
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=10, batch_size=64,
                                 lr_patience_epochs=1, stop_patience_epochs=3,
                                 min_improvement=10.0)  # everything stagnates
        hist = train(model, ds, splits.train, splits.neural_validation, sched,
                     seed=1)
        lrs = hist.learning_rate
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        distinct = sorted(set(lrs), reverse=True)
        for a, b in zip(distinct, distinct[1:]):
            assert a / b == pytest.approx(sched.lr_reduce_factor)

    def test_best_epoch_weights_restored(self, toy_data):
        ds, splits = toy_data
        cfg = toy_config()
        model = ResNet(cfg, seed=2)
        sched = TrainingSchedule(initial_lr=3e-3, max_epochs=6, batch_size=32)
        hist = train(model, ds, splits.train, splits.neural_validation, sched,
                     seed=2)
        X_va, truth_va, _ = build_samples(ds, cfg, splits.neural_validation)
        y_va = discretize(truth_va, model.binspec).bins
        val = evaluate_loss(model, X_va, y_va, batch_size=32)
        assert val == pytest.approx(min(hist.val_loss), abs=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_carries_context(self, toy_data):
        ds, splits = toy_data
        model = ResNet(toy_config(), seed=0)
        sched = TrainingSchedule(initial_lr=1e30, max_epochs=3, batch_size=32)
        with pytest.raises((RuntimeError, FloatingPointError)):
            train(model, ds, splits.train, splits.neural_validation, sched, seed=0)

    def test_history_csv_shape(self, toy_data):
        ds, splits = toy_data
        model = ResNet(toy_config(), seed=0)
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=2, batch_size=64)
        hist = train(model, ds, splits.train, splits.neural_validation, sched,
                     seed=0)
        lines = hist.to_csv().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,lr,seconds"
        assert len(lines) == 3


class TestPrediction:
    def test_density_deterministic_without_dropout(self, toy_data):
        ds, splits = toy_data
        cfg = toy_config()
        model = ResNet(cfg, seed=0)
        fit_statistics(model, ds, splits.train)
        X, _, _ = build_samples(ds, cfg, splits.test)
        a = model.predict_density(X[:4]).probs
        b = model.predict_density(X[:4]).probs
        np.testing.assert_array_equal(a, b)

    def test_densities_are_valid(self, toy_data):
        ds, splits = toy_data
        cfg = toy_config()
        model = ResNet(cfg, seed=0)
        fit_statistics(model, ds, splits.train)
        X, _, _ = build_samples(ds, cfg, splits.test)
        d = model.predict_density(X[:8])
        d.validate(tol=1e-6)
        assert d.probs.shape == (8, 8, 16, cfg.n_bins)

    def test_dropout_streams_differ(self, toy_data):
        ds, splits = toy_data
        cfg = toy_config(dropout_rate=0.3)
        model = ResNet(cfg, seed=0)
        fit_statistics(model, ds, splits.train)
        X, _, _ = build_samples(ds, cfg, splits.test)
        a = model.predict_density(X[:4], dropout_enabled=True,
                                  rng=np.random.default_rng(1)).probs
        b = model.predict_density(X[:4], dropout_enabled=True,
                                  rng=np.random.default_rng(2)).probs
        assert np.abs(a - b).max() > 0

    def test_mode_errors(self, toy_data):
        ds, splits = toy_data
        cat = ResNet(toy_config(), seed=0)
        cont = ResNet(toy_config(mode=CONTINUOUS, channels=8), seed=0)
        fit_statistics(cat, ds, splits.train)
        fit_statistics(cont, ds, splits.train)
        X, _, _ = build_samples(ds, cat.cfg, splits.test)
        with pytest.raises(ValueError, match="categorical"):
            cont.predict_density(X[:2])
        with pytest.raises(ValueError, match="continuous"):
            cat.predict_continuous(X[:2])

    def test_zeroed_output_layer_predicts_climatological_mean(self, toy_data):
        ds, splits = toy_data
        cfg = toy_config(mode=CONTINUOUS, channels=8)
        model = ResNet(cfg, seed=0)
        fit_statistics(model, ds, splits.train)
        model.conv_out.w.data[:] = 0.0
        model.conv_out.b.data[:] = 0.0
        X, _, _ = build_samples(ds, cfg, splits.test)
        pred = model.predict_continuous(X[:3])
        assert pred.shape == (3, 8, 16)
        np.testing.assert_allclose(pred, model.target_mean, rtol=1e-12)

    def test_continuous_toy_model_beats_climatology(self, toy_data):
        ds, splits = toy_data
        cfg = toy_config(mode=CONTINUOUS, channels=10, n_blocks=1)
        model = ResNet(cfg, seed=4)
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=8, batch_size=32)
        train(model, ds, splits.train, splits.neural_validation, sched, seed=4)
        X, truth, _ = build_samples(ds, cfg, splits.test)
        pred = model.predict_continuous(X)
        rmse = weighted_rmse(pred, truth, ds.grid)
        clim = climatology(ds, "z", 500, splits.train)
        clim_rmse = weighted_rmse(np.repeat(clim.values[None], truth.shape[0], 0),
                                  truth, ds.grid)
        assert rmse < clim_rmse


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, toy_data, tmp_path):
        ds, splits = toy_data
        cfg = toy_config()
        model = ResNet(cfg, seed=7)
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=2, batch_size=64)
        train(model, ds, splits.train, splits.neural_validation, sched, seed=7)
        path = tmp_path / "model.pwnn"
        model.save(path)
        back = ResNet.load(path)
        assert back.cfg == cfg
        assert back.binspec == model.binspec
        X, _, _ = build_samples(ds, cfg, splits.test)
        np.testing.assert_array_equal(back.predict_density(X[:4]).probs,
                                      model.predict_density(X[:4]).probs)

    def test_resave_is_byte_identical(self, toy_data, tmp_path):
        ds, splits = toy_data
        model = ResNet(toy_config(), seed=7)
        fit_statistics(model, ds, splits.train)
        p1, p2 = tmp_path / "a.pwnn", tmp_path / "b.pwnn"
        model.save(p1)
        ResNet.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFullModelGradientAudit:
    def test_one_block_categorical_network_matches_fd(self):
        """Analytic gradients of every parameter of the full network vs FD."""
        worst = self._audit_seeds(n_seeds=2)
        assert worst < 1e-4

    @staticmethod
    def _audit_seeds(n_seeds, margin=5e-3):
        cfg = ResNetConfig(inputs=[("a", 500), ("b", 500)], target=("a", 500),
                           lead_hours=6, n_blocks=1, n_bins=4, kernel=3,
                           dropout_rate=0.1)
        worst = 0.0
        accepted = 0
        for seed in itertools.count():
            model = ResNet(cfg, seed=seed, dtype=np.float64)
            model.input_mean = np.zeros(2)
            model.input_std = np.ones(2)
            rng = np.random.default_rng(2000 + seed)
            x = rng.normal(size=(2, 2, 4, 6))
            bins = rng.integers(0, 4, size=(2, 4, 6))

            def loss():
                out = model.forward(x, training=True, dropout_enabled=True,
                                    rng=np.random.default_rng(31 + seed),
                                    update_stats=False)
                return ad.sparse_categorical_cross_entropy(ad.softmax(out), bins)

            # finite differences are meaningless across the rectifier kink;
            # keep only seeds whose pre-activations clear it by a wide margin
            proj = model.conv_in(Tensor(model._standardize(x)))
            pre = model.blocks[0]["norm"](model.blocks[0]["conv"](proj),
                                          training=True, update_stats=False).data
            if np.abs(pre).min() < margin:
                continue
            params = [t for _, t in model.parameters()]
            worst = max(worst, check_gradients(loss, params))
            accepted += 1
            if accepted >= n_seeds:
                return worst
