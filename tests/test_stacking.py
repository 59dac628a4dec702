import numpy as np
import pytest

from probcast.binning import BinSpec, discretize, expectation
from probcast.grid import GridSpec
from probcast.resnet import TrainingSchedule
from probcast.stacking import (LearnerOutput, StackConfig, StackModel,
                               assemble_stack_inputs, average_combine,
                               stack_predict, train_stack)
from probcast.verification import weighted_rmse


@pytest.fixture(scope="module")
def toy_learners():
    """Synthetic learners of graded quality over a small grid."""
    rng = np.random.default_rng(31)
    n, H, W = 24, 6, 10
    spec = BinSpec(0.0, 10.0, 10)
    truth = rng.uniform(0.0, 10.0, size=(n, H, W))
    good = LearnerOutput("good", truth + rng.normal(0, 0.3, size=truth.shape))
    fair = LearnerOutput("fair", truth + rng.normal(0, 1.2, size=truth.shape))
    poor = LearnerOutput("poor", truth + rng.normal(0, 3.0, size=truth.shape))
    return spec, truth, [good, fair, poor]


class TestAssembleInputs:
    def test_feature_dimension_equals_learner_count(self, toy_learners):
        _, _, learners = toy_learners
        feats, _ = assemble_stack_inputs(learners)
        assert feats.shape == (24 * 6 * 10, 3)

    def test_identical_learners_identical_columns(self, toy_learners):
        _, _, learners = toy_learners
        feats, _ = assemble_stack_inputs([learners[0], learners[0]])
        np.testing.assert_array_equal(feats[:, 0], feats[:, 1])

    def test_training_standardization(self, toy_learners):
        _, _, learners = toy_learners
        feats, (mean, std) = assemble_stack_inputs(learners)
        assert np.abs(feats.mean(axis=0)).max() < 1e-9
        assert np.abs(feats.std(axis=0) - 1.0).max() < 1e-6

    def test_stats_reuse_transforms_consistently(self, toy_learners):
        _, _, learners = toy_learners
        _, stats = assemble_stack_inputs(learners)
        feats2, stats2 = assemble_stack_inputs(learners, stats=stats)
        assert stats2 is stats
        expect = (learners[0].expectations.reshape(-1) - stats[0][0]) / stats[1][0]
        np.testing.assert_allclose(feats2[:, 0], expect, rtol=1e-12)

    def test_mismatched_samples_rejected(self, toy_learners):
        _, _, learners = toy_learners
        short = LearnerOutput("short", learners[0].expectations[:-1])
        with pytest.raises(ValueError, match="covers"):
            assemble_stack_inputs([learners[0], short])


class TestTrainStack:
    def test_zero_epochs_returns_initialized_model(self, toy_learners):
        spec, truth, learners = toy_learners
        bins = discretize(truth, spec).bins
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=0, batch_size=4096)
        model = train_stack(learners, bins, spec, sched=sched, seed=4)
        fresh = StackModel(StackConfig(n_bins=spec.n_bins), 3, seed=4)
        for (n1, t1), (n2, t2) in zip(model.parameters(), fresh.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_same_seed_identical_models(self, toy_learners):
        spec, truth, learners = toy_learners
        bins = discretize(truth, spec).bins
        sched = TrainingSchedule(initial_lr=3e-3, max_epochs=3, batch_size=4096)
        a = train_stack(learners, bins, spec, sched=sched, seed=8)
        b = train_stack(learners, bins, spec, sched=sched, seed=8)
        for (_, t1), (_, t2) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_single_perfect_learner_reaches_low_ce(self):
        # expectations sitting exactly on bin centers are fully informative
        rng = np.random.default_rng(5)
        spec = BinSpec(0.0, 10.0, 10)
        truth = rng.uniform(0, 10, size=(40, 8, 8))
        bins = discretize(truth, spec).bins
        centers = spec.lower_bound(bins) + spec.width / 2
        learner = LearnerOutput("oracle", centers)
        sched = TrainingSchedule(initial_lr=1e-2, max_epochs=100, batch_size=2560,
                                 stop_patience_epochs=15)
        model = train_stack([learner], bins, spec, sched=sched, seed=0)
        probs = model.predict_probs(
            assemble_stack_inputs([learner],
                                  stats=(model.feature_mean, model.feature_std))[0])
        p_true = probs[np.arange(bins.size), bins.reshape(-1)]
        ce = float(-np.log(np.maximum(p_true, 1e-12)).mean())
        assert ce < np.log(spec.n_bins) / 2

    def test_degenerate_single_class_warns_but_trains(self, toy_learners, caplog):
        spec, truth, learners = toy_learners
        bins = np.zeros_like(discretize(truth, spec).bins)
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=1, batch_size=4096)
        import logging
        with caplog.at_level(logging.WARNING):
            train_stack(learners, bins, spec, sched=sched, seed=0)
        assert any("single bin" in r.message for r in caplog.records)

    def test_one_epoch_record_per_epoch(self, toy_learners, caplog):
        spec, truth, learners = toy_learners
        bins = discretize(truth, spec).bins
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=3, batch_size=4096,
                                 stop_patience_epochs=4)
        import logging
        with caplog.at_level(logging.INFO, logger="probcast.stacking"):
            train_stack(learners, bins, spec, sched=sched, seed=0)
        epochs = [r for r in caplog.records if r.name == "probcast.stacking"
                  and r.levelno == logging.INFO
                  and str(r.msg).startswith("stack epoch")]
        assert len(epochs) == 3

    def test_nan_abort(self, toy_learners):
        spec, truth, learners = toy_learners
        bins = discretize(truth, spec).bins
        sched = TrainingSchedule(initial_lr=1e30, max_epochs=3, batch_size=1024)
        with pytest.raises((RuntimeError, FloatingPointError)):
            train_stack(learners, bins, spec, sched=sched, seed=0)


@pytest.fixture(scope="module")
def trained(toy_learners):
    spec, truth, learners = toy_learners
    bins = discretize(truth, spec).bins
    sched = TrainingSchedule(initial_lr=5e-3, max_epochs=40, batch_size=2880,
                             stop_patience_epochs=8)
    model = train_stack(learners, bins, spec, sched=sched, seed=2)
    return spec, truth, learners, model


class TestStackPredict:
    def test_densities_are_valid(self, trained):
        spec, truth, learners, model = trained
        fused = stack_predict(model, learners)
        fused.validate(tol=1e-6)
        assert fused.probs.shape == truth.shape + (spec.n_bins,)

    def test_pointwise_application_commutes_with_permutation(self, trained):
        spec, truth, learners, model = trained
        fused = stack_predict(model, learners)
        perm = np.random.default_rng(0).permutation(truth.shape[0])
        permuted = [LearnerOutput(o.learner_id, o.expectations[perm])
                    for o in learners]
        fused_perm = stack_predict(model, permuted)
        np.testing.assert_allclose(fused_perm.probs, fused.probs[perm], atol=1e-12)

    def test_beats_worst_learner(self, trained):
        spec, truth, learners, model = trained
        grid = GridSpec.regular(6, 10)
        fused = stack_predict(model, learners)
        stack_rmse = weighted_rmse(expectation(fused), truth, grid)
        worst = max(weighted_rmse(o.expectations, truth, grid) for o in learners)
        assert stack_rmse < worst

    def test_feature_count_mismatch_rejected(self, trained):
        spec, truth, learners, model = trained
        with pytest.raises(ValueError, match="learners"):
            stack_predict(model, learners[:2])

    def test_checkpoint_round_trip(self, trained, tmp_path):
        spec, truth, learners, model = trained
        path = tmp_path / "stack.pwnn"
        model.save(path)
        back = StackModel.load(path)
        np.testing.assert_array_equal(stack_predict(back, learners).probs,
                                      stack_predict(model, learners).probs)
        p2 = tmp_path / "again.pwnn"
        back.save(p2)
        assert path.read_bytes() == p2.read_bytes()


class TestAverageCombine:
    def test_single_learner_identity(self, toy_learners):
        _, _, learners = toy_learners
        np.testing.assert_array_equal(average_combine([learners[0]]),
                                      learners[0].expectations)

    def test_two_value_mean(self):
        a = LearnerOutput("a", np.full((1, 1, 1), 10.0))
        b = LearnerOutput("b", np.full((1, 1, 1), 20.0))
        assert average_combine([a, b])[0, 0, 0] == 15.0

    def test_matches_bruteforce_mean(self, toy_learners):
        _, _, learners = toy_learners
        got = average_combine(learners)
        expect = np.zeros_like(got)
        for o in learners:
            expect += o.expectations
        np.testing.assert_allclose(got, expect / 3, rtol=1e-15)
