"""The benchmark's workloads: seeded set-up and one timed unit of work each.

Every call into probcast goes through a module attribute (``resnet.train``,
not a name imported from it), so the span shims of a traced run see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from probcast import autodiff, binning, contours, ensemble, gfb, grid, nn
from probcast import resnet, stacking, synth, verification

# The seed picks one of these synthetic atmospheres; reference.json stores the
# expected outputs of every workload on each of them.
ATMOSPHERES = 8
INPUTS = [("z", 500), ("t", 850)]
TARGET = ("z", 500)
LEAD_HOURS = 72
KERNEL = 5
DROPOUT = 0.1
CONTOUR_LEVELS = (0.1, 0.5, 0.9)
WARM_STEPS = 4    # Adam steps that give loaded models their weights
WARM_BATCH = 32
WARM_LR = 2e-3
# Second stack learner, as in the README pipeline: one more input, one block.
STACK_LEARNER_B = {"inputs": INPUTS + [("z", 850)], "n_blocks": 1}


@dataclasses.dataclass(frozen=True)
class Spec:
    """Sizes of one workload; every run of it does the same amount of work."""

    kind: str                      # train | ensemble | paper | stack
    n_lat: int = 16
    n_lon: int = 32
    n_steps: int = 2000
    n_bins: int = 10
    n_blocks: int = 2
    batch_size: int = 32
    lr: float = 2e-3
    epochs: int = 1                # fixed: early stopping is set past it
    members: int = 32
    train_samples: int | None = None   # cap on each split's samples; None = whole split
    val_samples: int | None = None
    test_samples: int | None = None
    probe_batch: int = 32          # batch of the direct conv2d probe

    def probe_shape(self) -> tuple:
        return (self.probe_batch, self.n_bins, self.n_bins, self.n_lat, self.n_lon, KERNEL)


WORKLOADS = {
    # The pinned toy learner, trained for a fixed number of epochs.
    "toy_train": Spec("train", epochs=1, probe_batch=32),
    # The same learner loaded from a checkpoint; 32 members over the test split.
    "toy_ensemble": Spec("ensemble", members=32, probe_batch=64),
    # The paper's shape (100 bins and channels, 5 blocks) on few samples.
    "paper_shape": Spec("paper", n_bins=100, n_blocks=5, batch_size=8, lr=5e-5,
                        epochs=1, members=4, train_samples=16, val_samples=8,
                        test_samples=8, probe_batch=8),
    # The stacked combiner over two learners' expectation fields.
    "toy_stack": Spec("stack", epochs=16, lr=1e-3, batch_size=8192, probe_batch=64),
}


def atmosphere(seed: int) -> int:
    return seed % ATMOSPHERES


def _cap(split, n, steps):
    return split if n is None else (split[0], min(split[1], split[0] + steps + n))


def _config(spec: Spec, inputs=INPUTS, n_blocks=None):
    return resnet.ResNetConfig(inputs=inputs, target=TARGET, lead_hours=LEAD_HOURS,
                               n_blocks=n_blocks or spec.n_blocks, n_bins=spec.n_bins,
                               kernel=KERNEL, dropout_rate=DROPOUT)


def _warm_start(model, X, bins, seed: int):
    """A few deterministic Adam steps, so loaded models carry trained-like weights."""
    adam = nn.Adam(model.parameters(), learning_rate=WARM_LR)
    rng = np.random.default_rng(seed)
    for i in range(WARM_STEPS):
        take = slice(i * WARM_BATCH, (i + 1) * WARM_BATCH)
        out = model.forward(X[take], training=True, dropout_enabled=True, rng=rng)
        probs = autodiff.softmax(out, axis=1)
        loss = autodiff.sparse_categorical_cross_entropy(probs, bins[take])
        adam.zero_grad()
        loss.backward()
        adam.step()


def _loaded_learner(spec, ds, splits, work, atm, name, **cfg_kw):
    cfg = _config(spec, **cfg_kw)
    model = resnet.ResNet(cfg, seed=atm)
    resnet.fit_statistics(model, ds, splits.train)
    X, truth, _ = resnet.build_samples(ds, cfg, splits.train)
    _warm_start(model, X, binning.discretize(truth, model.binspec).bins, atm)
    path = work / f"{name}.pwnn"
    model.save(path)
    return resnet.ResNet.load(path)


def setup(spec: Spec, atm: int, work) -> dict:
    """Synth, GFB1 round trip, sample assembly and model build or PWNN load."""
    cfg_synth = synth.SynthConfig(n_lat=spec.n_lat, n_lon=spec.n_lon, n_steps=spec.n_steps)
    ds = synth.synth_generate(cfg_synth, seed=atm)
    path = work / "toy.gfb"
    gfb.save_dataset(ds, path)
    ds = gfb.load_dataset(path)
    splits = grid.SplitPlan.from_fractions(ds.n_time)
    steps = resnet.lead_steps(ds, LEAD_HOURS)
    st = {"ds": ds, "grid": ds.grid, "seed": atm,
          "train_split": _cap(splits.train, spec.train_samples, steps),
          "val_split": _cap(splits.neural_validation, spec.val_samples, steps),
          "test_split": _cap(splits.test, spec.test_samples, steps)}

    if spec.kind in ("train", "paper"):
        model = resnet.ResNet(_config(spec), seed=atm)
        resnet.fit_statistics(model, ds, splits.train)
        st["model"] = model
        st["init"] = [(n, a.copy()) for n, a in model.state_arrays()]
        st["n_train"] = resnet.build_samples(ds, model.cfg, st["train_split"])[0].shape[0]
        st["check_x"] = resnet.build_samples(ds, model.cfg, st["val_split"])[0][:8]
    if spec.kind in ("ensemble", "paper"):
        if spec.kind == "ensemble":
            st["model"] = _loaded_learner(spec, ds, splits, work, atm, "learner")
        X, truth, _ = resnet.build_samples(ds, st["model"].cfg, st["test_split"])
        st["x_test"], st["truth"] = X, truth
    if spec.kind == "stack":
        learners = [_loaded_learner(spec, ds, splits, work, atm, "learner_a"),
                    _loaded_learner(spec, ds, splits, work, atm + 1, "learner_b",
                                    **STACK_LEARNER_B)]
        for split_name, key in (("stacked_validation", "fit"), ("test", "test")):
            outputs = []
            for i, m in enumerate(learners):
                X, truth, _ = resnet.build_samples(ds, m.cfg, splits.range(split_name))
                outputs.append(stacking.LearnerOutput(str(i), binning.expectation(
                    m.predict_density(X))))
            st[key + "_outputs"], st[key + "_truth"] = outputs, truth
        st["binspec"] = learners[0].binspec
        st["fit_bins"] = binning.discretize(st["fit_truth"], st["binspec"]).bins
        st["truth"] = st["test_truth"]
    st["threshold"] = float(np.mean(st["truth"][0])) if "truth" in st else None
    return st


# --- timed units ---------------------------------------------------------------


def _verify(st, density, spread=None):
    t0 = time.perf_counter()
    report = verification.assemble_report(density, st["truth"], st["grid"],
                                          variable=TARGET[0], level=TARGET[1],
                                          lead_hours=LEAD_HOURS, split="test",
                                          spread=spread)
    tm = verification.cdf_threshold(binning.DensityGrid(density.probs[0], density.spec),
                                    st["threshold"])
    contours.probability_contours(tm, st["grid"], levels=CONTOUR_LEVELS)
    return report, time.perf_counter() - t0


def _schedule(spec):
    """Fixed epochs: early stopping is set past the last one."""
    return resnet.TrainingSchedule(initial_lr=spec.lr, max_epochs=spec.epochs,
                                   stop_patience_epochs=spec.epochs + 1,
                                   batch_size=spec.batch_size)


def _train(spec, st):
    model = st["model"]
    model.load_state_arrays(st["init"])
    t0 = time.perf_counter()
    history = resnet.train(model, st["ds"], st["train_split"], st["val_split"],
                           _schedule(spec), seed=st["seed"])
    return history, time.perf_counter() - t0


def _ensemble(spec, st):
    t0 = time.perf_counter()
    ens = ensemble.generate_ensemble(st["model"], st["x_test"], n_members=spec.members,
                                     master_seed=st["seed"])
    pooled = ensemble.linear_pool(ens.members)
    return ens, pooled, time.perf_counter() - t0


def unit(spec: Spec, st: dict) -> dict:
    """One fixed amount of work; returns its raw outputs and phase timings."""
    out = {"phases": {}}
    ph = out["phases"]
    if spec.kind in ("train", "paper"):
        history, secs = _train(spec, st)
        ph["train_s"] = secs
        ph["train_items"] = st["n_train"] * len(history.epochs)
        out["history"] = history
    if spec.kind in ("ensemble", "paper"):
        ens, pooled, secs = _ensemble(spec, st)
        ph["ensemble_s"] = secs
        ph["ensemble_items"] = ens.n_members * pooled.probs.shape[0]
        out["density"] = pooled
        if spec.kind == "ensemble":
            _, spread = ensemble.ensemble_spread(ens, st["grid"])
            ens.member_expectations()
            out["report"], ph["verify_s"] = _verify(st, pooled, spread)
    if spec.kind == "stack":
        t0 = time.perf_counter()
        model = stacking.train_stack(st["fit_outputs"], st["fit_bins"], st["binspec"],
                                     sched=_schedule(spec), seed=st["seed"],
                                     batch_rows=spec.batch_size)
        ph["stack_s"] = time.perf_counter() - t0
        # all fit rows, trained on or validated each epoch; no early stop (see _schedule)
        ph["stack_items"] = st["fit_bins"].size * spec.epochs
        fused = stacking.stack_predict(model, st["test_outputs"])
        out["density"] = fused
        out["report"], ph["verify_s"] = _verify(st, fused)
    return out


# --- results and their checks ----------------------------------------------------

PRIMARY = {"train": "train", "paper": "train", "ensemble": "ensemble", "stack": "stack"}


def log_score(density, truth) -> float:
    """Mean -log p(true bin), floored like the training loss."""
    bins = binning.discretize(truth, density.spec).bins
    p = np.take_along_axis(density.probs, bins[..., None], axis=-1)
    return float(-np.mean(np.log(np.maximum(p, autodiff.PROB_FLOOR))))


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def outcome(spec: Spec, st: dict, raw: dict) -> dict:
    """Scores, the output digest and the density the checks inspect (untimed)."""
    res = {"crps": None}
    if spec.kind in ("train", "paper"):
        res["log_score"] = float(min(raw["history"].val_loss))
    if "density" in raw:
        density = raw["density"]
        res["sha256"] = digest([density.probs])
        if spec.kind != "paper":
            res["log_score"] = log_score(density, st["truth"])
            res["crps"] = raw["report"].mean_crps
    else:
        model = st["model"]
        res["sha256"] = digest([a for _, a in model.state_arrays()])
        density = model.predict_density(st["check_x"])
    res["density"] = density
    return res


def check(res: dict, first: dict | None) -> list:
    """Failed checks of one unit's own outputs, as messages; empty when correct."""
    fails = []
    p = res["density"].probs
    if not np.all(np.isfinite(p)):
        fails.append("density has non-finite entries")
    else:
        worst = float(np.abs(p.sum(axis=-1) - 1.0).max())
        if worst > 1e-6 or p.min() < 0.0:
            fails.append(f"density not normalized (mass off by {worst:.3e})")
    for key in ("log_score", "crps"):
        value = res[key]
        if value is not None and not np.isfinite(value):
            fails.append(f"{key} is not finite")
    if first is not None and res["sha256"] != first["sha256"]:
        fails.append("output differs from the first unit of this run")
    return fails


def check_reference(res: dict, reference: dict | None, rtol: float) -> list:
    """Failed comparisons with the stored outputs; a missing reference fails."""
    if reference is None:
        return ["no stored reference for this workload and atmosphere"]
    fails = []
    for key in ("log_score", "crps"):
        value, ref = res[key], reference.get(key)
        if value is None and ref is None:
            continue
        if value is None or ref is None or abs(value - ref) > rtol * abs(ref):
            fails.append(f"{key} {value!r} differs from reference {ref!r} "
                         f"by more than rtol {rtol:g}")
    return fails
