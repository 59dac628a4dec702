import hashlib
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from probcast import autodiff as ad
from probcast import resnet
from probcast.autodiff import Tensor
from probcast.binning import BinSpec, discretize
from probcast.ensemble import generate_ensemble
from probcast.grid import SplitPlan
from probcast.nn import Adam, BatchNorm2d
from probcast.resnet import (PlateauSchedule, ResNet, ResNetConfig,
                             TrainingSchedule, _batch_loss, build_samples,
                             evaluate_loss, fit_statistics, train)
from probcast.synth import SynthConfig, synth_generate

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
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            toy_config(n_blocks=0)
        with pytest.raises(ValueError):
            toy_config(kernel=4)
        with pytest.raises(ValueError):
            toy_config(dropout_rate=1.0)
        for field, value in [("inputs", []), ("n_bins", 1), ("kernel", -1),
                             ("kernel", 0)]:
            with pytest.raises(ValueError, match=field):
                toy_config(**{field: value})


class TestBuildModel:
    def test_parameter_count_closed_form(self):
        cfg = toy_config(n_blocks=3, n_bins=7, kernel=5)
        model = ResNet(cfg, seed=0)
        ch, k, cin = cfg.n_bins, cfg.kernel, len(cfg.inputs)
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

    @pytest.mark.parametrize("training", [False, True])
    def test_zeroed_residual_branches_are_identity(self, training):
        cfg = toy_config(n_blocks=2, dropout_rate=0.2)
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
                             rng=np.random.default_rng(1))
        proj = model.conv_in(Tensor(model._standardize(x)))
        skip_only = model.conv_out(proj)
        np.testing.assert_array_equal(full.data, skip_only.data)


class TestRunningStatistics:
    @staticmethod
    def _model_and_batch():
        model = ResNet(toy_config(n_blocks=3), seed=2)
        identity_stats(model, 2)
        rng = np.random.default_rng(4)
        for blk in model.blocks:  # start away from the (0, 1) defaults
            blk["norm"].set_buffers(rng.normal(size=10), rng.uniform(0.5, 2.0, size=10))
        return model, rng.normal(size=(4, 2, 8, 16)).astype(np.float32)

    def test_training_forward_takes_one_momentum_step(self):
        model, x = self._model_and_batch()
        norms = [blk["norm"] for blk in model.blocks]
        before = [(n.running_mean.copy(), n.running_var.copy()) for n in norms]
        seen = []
        for blk, norm in zip(model.blocks, norms):  # record each norm's input

            def record(h, training, bn=norm):
                seen.append(h.data.copy())
                return bn(h, training=training)
            blk["norm"] = record
        model.forward(x, training=True)
        assert len(seen) == len(norms)
        for (mean0, var0), h, norm in zip(before, seen, norms):
            m = norm.momentum
            mean = h.mean(axis=(0, 2, 3), dtype=np.float64)
            var = h.var(axis=(0, 2, 3), dtype=np.float64)
            np.testing.assert_array_equal(
                norm.running_mean, ((1 - m) * mean0 + m * mean).astype(np.float32))
            np.testing.assert_array_equal(
                norm.running_var, ((1 - m) * var0 + m * var).astype(np.float32))
            assert not np.array_equal(norm.running_mean, mean0)
            assert not np.array_equal(norm.running_var, var0)

    def test_eval_forward_leaves_buffers(self):
        model, x = self._model_and_batch()
        before = [(n, a.copy()) for n, a in model.state_arrays()]
        model.forward(x, training=False)
        for (n0, a0), (n1, a1) in zip(before, model.state_arrays()):
            assert n0 == n1
            np.testing.assert_array_equal(a0, a1)


@pytest.mark.parametrize("kw", [{"batch_size": 0}, {"batch_size": -1},
                                {"max_epochs": -1}, {"initial_lr": 0.0},
                                {"initial_lr": -2e-3}, {"initial_lr": float("nan")},
                                {"initial_lr": float("inf")},
                                {"stop_patience_epochs": 0}])
def test_schedule_rejects_impossible_sizes(kw):
    with pytest.raises(ValueError):
        TrainingSchedule(**kw)


def test_training_recipe_constants():
    # reduce on plateau by 5 after 2 stagnant epochs (min improvement 1e-6),
    # Adam (0.9, 0.999, 1e-8), batch norm momentum 0.1 with eps 1e-5
    assert (PlateauSchedule.lr_reduce_factor, PlateauSchedule.lr_patience_epochs,
            PlateauSchedule.min_improvement) == (5.0, 2, 1e-6)
    assert (Adam.beta1, Adam.beta2, Adam.eps) == (0.9, 0.999, 1e-8)
    assert (BatchNorm2d.momentum, BatchNorm2d.eps) == (0.1, 1e-5)


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
        plateau = PlateauSchedule(TrainingSchedule(initial_lr=1.0))
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
        # a rate this high makes the validation loss stall, so a reduction fires
        sched = TrainingSchedule(initial_lr=0.1, max_epochs=8, batch_size=64,
                                 stop_patience_epochs=3)
        hist = train(model, ds, splits.train, splits.neural_validation, sched,
                     seed=1)
        assert len(set(hist.learning_rate)) > 1
        # fit must record the rate a fresh schedule derives from its losses
        replay = PlateauSchedule(sched)
        replayed = []
        for loss in hist.val_loss:
            replay.update(loss)
            replayed.append(replay.lr)
        assert hist.learning_rate == replayed

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


class TestPaperShapeMemory:
    """tracemalloc peaks at the paper's width (100 bins and channels, k 5, 16x32
    grid) with 3 blocks and batch 8, in units of one f32 activation (1.64 MB)."""

    B, H, W = 8, 16, 32
    act = B * 100 * H * W * 4

    def _model(self):
        cfg = toy_config(n_blocks=3, n_bins=100, kernel=5)
        model = ResNet(cfg, seed=3)
        identity_stats(model, 2)
        model.binspec = BinSpec(0.0, 1.0, cfg.n_bins)
        x = np.random.default_rng(8).normal(size=(self.B, 2, self.H, self.W))
        return model, x.astype(np.float32)

    @staticmethod
    def _traced_peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_training_step_peak(self):
        """Forward plus backward peaks near 20 activations: each block's graph
        keeps the conv input, x-hat and two 1-byte masks (about 2.5). A graph
        that also holds every op output until backward reaches it peaks near 35."""
        model, x = self._model()
        y = np.random.default_rng(9).integers(0, 100, size=(self.B, self.H, self.W))

        def step():
            _batch_loss(model, x, y, training=True, rng=np.random.default_rng(1)).backward()

        _, peak = self._traced_peak(step)
        assert all(p.grad is not None for _, p in model.parameters())
        assert peak < 24 * self.act, f"training step peak {peak / self.act:.1f} activations"

    def test_predict_densities_peak(self):
        """Beyond its f64 outputs, inference holds the trunk's two activations and
        one conv's transients, about 11 activations. Recording a graph would
        hold every block's outputs too, near 29."""
        model, x = self._model()
        rngs = [np.random.default_rng(i) for i in range(2)]
        dens, peak = self._traced_peak(
            lambda: model.predict_densities(x, rngs, dropout_enabled=True, batch_size=8))
        out = sum(d.probs.nbytes for d in dens)
        assert peak - out < 15 * self.act, \
            f"inference peak {(peak - out) / self.act:.1f} activations beyond its outputs"


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
        d.validate()
        assert np.abs(d.probs.sum(axis=-1) - 1.0).max() <= 1e-6
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


def paper_width_model():
    """100 bins and channels, 5x5 kernels, one block, a 16x32 grid, 3 samples."""
    cfg = toy_config(n_bins=100, kernel=5, dropout_rate=0.1)
    model = ResNet(cfg, seed=4)
    identity_stats(model, 2)
    model.binspec = BinSpec(0.0, 1.0, cfg.n_bins)
    x = np.random.default_rng(5).normal(size=(3, 2, 16, 32)).astype(np.float32)
    return model, x


def _ensemble_digest() -> str:
    model, x = paper_width_model()
    ens = generate_ensemble(model, x, n_members=3, master_seed=6)
    return hashlib.sha256(b"".join(m.probs.tobytes() for m in ens.members)).hexdigest()


@pytest.fixture
def blas_threads():
    """get/set of numpy's OpenBLAS thread count; the count is restored afterwards."""
    calls = resnet._OneBlasThread._find()
    if not calls:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, put = calls
    before = get()
    try:
        yield get, put
    finally:
        put(before)


class _CountingRng:
    """An rng stream that records the OpenBLAS thread count and the thread at each draw."""

    def __init__(self, seed, get):
        self.rng, self.get, self.seen, self.threads = np.random.default_rng(seed), get, [], set()

    def random(self, out):
        self.seen.append(self.get())
        self.threads.add(threading.get_ident())
        return self.rng.random(out=out)


class TestMemberWorkers:
    """predict_densities runs members on OpenBLAS's threads, pinning BLAS to one."""

    def test_ensemble_bytes_do_not_depend_on_blas_threads(self):
        """At paper width a 2-thread GEMM rounds differently from a 1-thread one;
        pinned BLAS gives an ensemble the same bytes at either count."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        tests = str(Path(__file__).resolve().parent)
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "import test_resnet; print(test_resnet._ensemble_digest())")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", code, src, tests], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            digests.append(done.stdout.strip().splitlines()[-1])
        assert digests[0] == digests[1]

    def test_blas_pinned_inside_and_restored_after_return_and_raise(self, blas_threads):
        get, put = blas_threads
        model, x = paper_width_model()
        put(2)
        rngs = [_CountingRng(s, get) for s in (1, 2, 3)]
        model.predict_densities(x[:1], rngs)
        assert get() == 2
        assert all(r.seen == [1] for r in rngs)
        caller = {threading.get_ident()}
        assert rngs[0].threads == rngs[2].threads == caller  # shares jobs[k::2]
        assert rngs[1].threads and rngs[1].threads != caller
        with pytest.raises(ValueError, match="enabled dropout needs an rng stream"):
            model.predict_densities(x[:1], [np.random.default_rng(1), None])
        assert get() == 2

    def test_members_equal_lone_passes_at_paper_width(self, blas_threads):
        """Three members on two workers: member 2 shares a thread with member 0."""
        get, put = blas_threads
        model, x = paper_width_model()
        put(2)
        dens = model.predict_densities(x, [np.random.default_rng(s) for s in (1, 2, 3)],
                                       batch_size=2)
        for seed, got in zip((1, 2, 3), dens):
            alone = model.predict_density(x, dropout_enabled=True,
                                          rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(got.probs, alone.probs)

    def test_without_openblas_members_run_on_the_caller(self, monkeypatch):
        pin = resnet._OneBlasThread()
        monkeypatch.setattr(pin, "_find", lambda: ())
        monkeypatch.setattr(resnet, "_ONE_BLAS_THREAD", pin)
        model, x = paper_width_model()
        rngs = [_CountingRng(s, lambda: None) for s in (1, 2)]
        model.predict_densities(x[:1], rngs)
        assert all(r.threads == {threading.get_ident()} for r in rngs)
        with pin as threads:
            assert threads == 1

    def test_overlapping_pins_restore_once(self, blas_threads):
        """Eight threads enter and leave the pin with a 1 us switch interval: BLAS
        reads 1 inside every hold and the saved count once the last one leaves."""
        get, put = blas_threads
        put(2)
        inside = []

        def hold():
            for _ in range(200):
                with resnet._ONE_BLAS_THREAD as threads:
                    inside.append((threads, get()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hold) for _ in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert len(inside) == 8 * 200
        assert set(inside) == {(2, 1)}
        assert get() == 2


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
                                    rng=np.random.default_rng(31 + seed))
                return ad.sparse_categorical_cross_entropy(ad.softmax(out), bins)

            # finite differences are meaningless across the rectifier kink;
            # keep only seeds whose pre-activations clear it by a wide margin
            proj = model.conv_in(Tensor(model._standardize(x)))
            pre = model.blocks[0]["norm"](model.blocks[0]["conv"](proj),
                                          training=True).data
            if np.abs(pre).min() < margin:
                continue
            params = [t for _, t in model.parameters()]
            worst = max(worst, check_gradients(loss, params))
            accepted += 1
            if accepted >= n_seeds:
                return worst
