import numpy as np
import pytest

from probcast.binning import BinSpec, DensityGrid, expectation
from probcast.ensemble import (EnsembleSet, ensemble_spread, generate_ensemble,
                               linear_pool, spread_skill_ratio)
from probcast.grid import GridSpec, SplitPlan
from probcast.resnet import ResNet, ResNetConfig, TrainingSchedule, build_samples, train
from probcast.synth import SynthConfig, synth_generate


def random_members(rng, n_members, shape, n_bins, spec=None):
    spec = spec or BinSpec(0.0, 10.0, n_bins)
    members = []
    for _ in range(n_members):
        p = rng.random(shape + (n_bins,))
        members.append(DensityGrid(p / p.sum(axis=-1, keepdims=True), spec))
    return members


@pytest.fixture(scope="module")
def trained_toy():
    ds = synth_generate(SynthConfig(n_lat=8, n_lon=16, n_steps=500), 7)
    splits = SplitPlan.from_fractions(ds.n_time, 0.6, 0.1, 0.15, 0.15)
    cfg = ResNetConfig(inputs=[("z", 500), ("t", 850)], target=("z", 500),
                       lead_hours=72, n_blocks=1, n_bins=10, dropout_rate=0.1)
    model = ResNet(cfg, seed=1)
    sched = TrainingSchedule(initial_lr=1e-3, max_epochs=4, batch_size=32)
    train(model, ds, splits.train, splits.neural_validation, sched, seed=1)
    X, truth, _ = build_samples(ds, cfg, splits.test)
    return ds, model, X[:20], truth[:20]


class TestGenerateEnsemble:
    def test_single_member_allowed(self, trained_toy):
        ds, model, X, _ = trained_toy
        ens = generate_ensemble(model, X, n_members=1, master_seed=0)
        assert ens.n_members == 1

    def test_same_master_seed_identical(self, trained_toy):
        ds, model, X, _ = trained_toy
        a = generate_ensemble(model, X, n_members=4, master_seed=9)
        b = generate_ensemble(model, X, n_members=4, master_seed=9)
        assert a.member_seeds == b.member_seeds
        for ma, mb in zip(a.members, b.members):
            np.testing.assert_array_equal(ma.probs, mb.probs)

    def test_member_expectations_vary(self, trained_toy):
        ds, model, X, _ = trained_toy
        ens = generate_ensemble(model, X, n_members=4, master_seed=2)
        exps = ens.member_expectations()
        between = exps.var(axis=0)
        assert between.max() > 0

    def test_model_without_dropout_rejected(self, trained_toy):
        ds, model, X, _ = trained_toy
        cfg_nd = ResNetConfig(inputs=model.cfg.inputs, target=model.cfg.target,
                              lead_hours=model.cfg.lead_hours, n_blocks=1,
                              n_bins=10, dropout_rate=None)
        bare = ResNet(cfg_nd, seed=1)
        with pytest.raises(ValueError, match="no dropout layer"):
            generate_ensemble(bare, X, n_members=2, master_seed=0)


def _with_blocks(model, n_blocks):
    """The fixture's learner, or a fresh one with its statistics and n_blocks blocks."""
    if n_blocks == model.cfg.n_blocks:
        return model
    cfg = ResNetConfig(inputs=model.cfg.inputs, target=model.cfg.target,
                       lead_hours=model.cfg.lead_hours, n_blocks=n_blocks,
                       n_bins=model.cfg.n_bins, dropout_rate=model.cfg.dropout_rate)
    other = ResNet(cfg, seed=2)
    other.input_mean, other.input_std = model.input_mean, model.input_std
    other.binspec = model.binspec
    return other


def _forward_density(model, X, rng, batch_size=64):
    """Reference for the shared loop: softmax of forward, batch by batch."""
    outs = []
    for i in range(0, X.shape[0], batch_size):
        z = model.forward(X[i:i + batch_size], dropout_enabled=True,
                          rng=rng).data.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        outs.append(np.moveaxis(e / e.sum(axis=1, keepdims=True), 1, -1))
    return np.concatenate(outs)


class TestSharedTrunk:
    """Members share each batch's trunk yet equal their own lone passes."""

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_members_equal_lone_passes(self, trained_toy, n_blocks):
        ds, model, X, _ = trained_toy
        model = _with_blocks(model, n_blocks)
        X = np.concatenate([X] * 4)  # 80 samples: one batch of 64, a ragged one of 16
        ens = generate_ensemble(model, X, n_members=3, master_seed=5)
        for member, seed in zip(ens.members, ens.member_seeds):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            alone = model.predict_density(X, dropout_enabled=True, rng=rng)
            np.testing.assert_array_equal(member.probs, alone.probs)
        rng = np.random.default_rng(np.random.SeedSequence(ens.member_seeds[0]))
        reference = DensityGrid(_forward_density(model, X, rng), model.binspec)
        np.testing.assert_array_equal(ens.members[0].probs, reference.probs)
        np.testing.assert_array_equal(expectation(ens.members[0]), expectation(reference))
        assert not np.array_equal(ens.members[0].probs, ens.members[1].probs)

    def test_streams_equal_forward_passes_at_any_batch_size(self, trained_toy):
        ds, model, X, _ = trained_toy
        rngs = [np.random.default_rng(np.random.SeedSequence(s)) for s in (3, 4)]
        small = model.predict_densities(X, rngs, batch_size=7)
        for seed, got in zip((3, 4), small):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            np.testing.assert_array_equal(got.probs, _forward_density(model, X, rng, 7))

    def test_enabled_dropout_without_rng_rejected(self, trained_toy):
        ds, model, X, _ = trained_toy
        with pytest.raises(ValueError, match="enabled dropout needs an rng stream"):
            model.predict_density(X, dropout_enabled=True, rng=None)


class TestLinearPool:
    def test_identical_members_unchanged(self):
        rng = np.random.default_rng(0)
        m = random_members(rng, 1, (3, 4), 5)[0]
        pooled = linear_pool([m, m, m])
        np.testing.assert_allclose(pooled.probs, m.probs, rtol=1e-15)

    def test_two_one_hot_members(self):
        spec = BinSpec(0.0, 10.0, 10)
        a = np.zeros((1, 1, 10)); a[0, 0, 3] = 1.0
        b = np.zeros((1, 1, 10)); b[0, 0, 5] = 1.0
        pooled = linear_pool([DensityGrid(a, spec), DensityGrid(b, spec)])
        assert pooled.probs[0, 0, 3] == pytest.approx(0.5)
        assert pooled.probs[0, 0, 5] == pytest.approx(0.5)

    def test_weighted_pool_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        members = random_members(rng, 32, (2, 3), 7)
        w = rng.random(32)
        w /= w.sum()
        pooled = linear_pool(members, w)
        expect = np.zeros((2, 3, 7))
        for k in range(32):
            for i in range(2):
                for j in range(3):
                    for b in range(7):
                        expect[i, j, b] += w[k] * members[k].probs[i, j, b]
        np.testing.assert_allclose(pooled.probs, expect, rtol=1e-12)
        assert np.abs(pooled.probs.sum(axis=-1) - 1.0).max() < 1e-9

    def test_weight_one_on_member_k_returns_member_k(self):
        rng = np.random.default_rng(2)
        members = random_members(rng, 4, (2, 2), 6)
        w = np.array([0.0, 0.0, 1.0, 0.0])
        pooled = linear_pool(members, w)
        np.testing.assert_array_equal(pooled.probs, members[2].probs)

    def test_pool_preserves_convex_hull(self):
        rng = np.random.default_rng(3)
        members = random_members(rng, 5, (4,), 8)
        pooled = linear_pool(members)
        stack = np.stack([m.probs for m in members])
        assert np.all(pooled.probs <= stack.max(axis=0) + 1e-15)
        assert np.all(pooled.probs >= stack.min(axis=0) - 1e-15)

    def test_pooled_expectation_is_weighted_mean_of_member_expectations(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            members = random_members(rng, 6, (3, 2), 9)
            w = rng.random(6)
            w /= w.sum()
            pooled_mu = expectation(linear_pool(members, w))
            mix_mu = sum(wi * expectation(m) for wi, m in zip(w, members))
            assert np.abs(pooled_mu - mix_mu).max() < 1e-9

    def test_bad_weights_rejected(self):
        rng = np.random.default_rng(5)
        members = random_members(rng, 3, (2, 2), 4)
        with pytest.raises(ValueError, match="non-negative"):
            linear_pool(members, np.array([1.5, -0.5, 0.0]))
        with pytest.raises(ValueError, match="sum"):
            linear_pool(members, np.array([0.5, 0.2, 0.2]))

    def test_mismatched_specs_rejected(self):
        rng = np.random.default_rng(6)
        a = random_members(rng, 1, (2, 2), 4, BinSpec(0, 1, 4))[0]
        b = random_members(rng, 1, (2, 2), 4, BinSpec(0, 2, 4))[0]
        with pytest.raises(ValueError, match="disagree"):
            linear_pool([a, b])


class TestSpread:
    def test_identical_members_zero_spread(self):
        rng = np.random.default_rng(0)
        m = random_members(rng, 1, (2, 3, 4), 5)[0]
        ens = EnsembleSet([m, m, m], [0, 1, 2])
        grid = GridSpec.regular(3, 4)
        field, scalar = ensemble_spread(ens, grid)
        np.testing.assert_allclose(field, 0.0, atol=1e-12)
        assert scalar == pytest.approx(0.0, abs=1e-12)

    def test_two_members_population_sigma(self):
        spec = BinSpec(0.0, 40.0, 4)
        a = np.zeros((1, 1, 1, 4)); a[..., 1] = 1.0  # expectation 10
        b = np.zeros((1, 1, 1, 4)); b[..., 2] = 1.0  # expectation 20
        ens = EnsembleSet([DensityGrid(a, spec), DensityGrid(b, spec)], [0, 1])
        grid = GridSpec(np.array([0.0]), np.array([0.0]))
        field, scalar = ensemble_spread(ens, grid)
        assert field[0, 0, 0] == pytest.approx(5.0)
        assert scalar == pytest.approx(5.0)

    def test_matches_bruteforce_variance(self):
        rng = np.random.default_rng(7)
        members = random_members(rng, 8, (2, 3, 4), 6)
        ens = EnsembleSet(members, list(range(8)))
        grid = GridSpec.regular(3, 4)
        field, scalar = ensemble_spread(ens, grid)

        exps = np.stack([expectation(m) for m in members])
        w = np.cos(np.deg2rad(grid.latitudes_deg))
        w /= w.mean()
        total = 0.0
        for t in range(2):
            for j in range(3):
                for k in range(4):
                    mean = exps[:, t, j, k].mean()
                    var = ((exps[:, t, j, k] - mean) ** 2).mean()
                    assert abs(field[t, j, k] - np.sqrt(var)) < 1e-10
                    total += w[j] * var
        assert scalar == pytest.approx(np.sqrt(total / 24), rel=1e-10)

    def test_spread_invariant_under_member_reordering(self):
        rng = np.random.default_rng(8)
        members = random_members(rng, 5, (1, 2, 3), 4)
        grid = GridSpec.regular(2, 3)
        f1, s1 = ensemble_spread(EnsembleSet(members, list(range(5))), grid)
        shuffled = [members[i] for i in (3, 0, 4, 1, 2)]
        f2, s2 = ensemble_spread(EnsembleSet(shuffled, list(range(5))), grid)
        np.testing.assert_allclose(f1, f2, atol=1e-12)
        assert s1 == pytest.approx(s2, abs=1e-15)

    def test_single_member_rejected(self):
        rng = np.random.default_rng(9)
        ens = EnsembleSet(random_members(rng, 1, (1, 2, 2), 4), [0])
        with pytest.raises(ValueError, match="at least 2"):
            ensemble_spread(ens, GridSpec.regular(2, 2))


class TestSpreadSkill:
    def test_equal_spread_and_rmse(self):
        assert spread_skill_ratio(3.0, 3.0) == 1.0

    def test_half_ratio(self):
        assert spread_skill_ratio(2.0, 4.0) == 0.5

    def test_zero_rmse_rejected(self):
        with pytest.raises(ValueError):
            spread_skill_ratio(1.0, 0.0)

    def test_trained_toy_ratio_is_sane(self, trained_toy):
        from probcast.verification import weighted_rmse
        ds, model, X, truth = trained_toy
        ens = generate_ensemble(model, X, n_members=8, master_seed=3)
        pooled = linear_pool(ens.members)
        _, spread = ensemble_spread(ens, ds.grid)
        rmse = weighted_rmse(expectation(pooled), truth, ds.grid)
        ratio = spread_skill_ratio(spread, rmse)
        assert 0.0 < ratio < 2.0
