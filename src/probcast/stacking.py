"""Stacked meta-learner fusing per-variable learners, plus the average baseline.

Each base learner contributes its pooled-ensemble expectation field; the
stack operates pointwise on the concatenated (standardized) expectations
through two small dense layers and emits a bin density per gridpoint.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .binning import BinSpec, DensityGrid
from .checkpoint import load_checkpoint, save_checkpoint
from .nn import Dense
from .resnet import TrainingSchedule, fit

logger = logging.getLogger(__name__)


@dataclass
class LearnerOutput:
    """Pooled expectation fields of one base learner over shared samples."""

    learner_id: str
    expectations: np.ndarray  # (N, H, W)

    def __post_init__(self):
        self.expectations = np.asarray(self.expectations, dtype=np.float64)
        if self.expectations.ndim != 3:
            raise ValueError("learner expectations must be (samples, lat, lon)")


@dataclass
class StackConfig:
    n_bins: int
    hidden_layers: int = 2
    hidden_width: int = 36

    def __post_init__(self):
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ValueError("stack needs at least one hidden node")
        if self.n_bins < 2:
            raise ValueError("stack output needs at least 2 bins")


def _check_same_samples(outputs: list):
    if not outputs:
        raise ValueError("no learner outputs supplied")
    shape = outputs[0].expectations.shape
    for o in outputs[1:]:
        if o.expectations.shape != shape:
            raise ValueError(
                f"learner {o.learner_id!r} covers {o.expectations.shape} samples, "
                f"expected {shape}")
    return shape


def assemble_stack_inputs(outputs: list, stats=None):
    """Pointwise feature rows from learner expectations.

    Returns (features (N*H*W, n_learners), stats) where stats is the
    (mean, std) pair used for column standardization; pass the training
    stats back in to transform new samples consistently.
    """
    shape = _check_same_samples(outputs)
    cols = [o.expectations.reshape(-1) for o in outputs]
    raw = np.stack(cols, axis=1)
    if stats is None:
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        stats = (mean, std)
    mean, std = stats
    return (raw - mean) / std, stats


class StackModel:
    """Dense softmax network over learner-expectation features."""

    def __init__(self, cfg: StackConfig, n_features: int, seed: int,
                 dtype=np.float32):
        self.cfg = cfg
        self.n_features = int(n_features)
        self.seed = int(seed)
        self.dtype = dtype
        rng = np.random.default_rng(np.random.SeedSequence([0x57AC, self.seed]))
        widths = [self.n_features] + [cfg.hidden_width] * cfg.hidden_layers + [cfg.n_bins]
        self.layers = [Dense(a, b, rng, dtype) for a, b in zip(widths[:-1], widths[1:])]
        self.feature_mean = np.zeros(self.n_features)
        self.feature_std = np.ones(self.n_features)
        self.binspec: BinSpec | None = None

    def parameters(self) -> list:
        out = []
        for i, layer in enumerate(self.layers):
            out += [(f"dense{i}.{n}", t) for n, t in layer.parameters()]
        return out

    def forward(self, feats: np.ndarray) -> Tensor:
        x = Tensor(np.asarray(feats, dtype=self.dtype))
        for layer in self.layers[:-1]:
            x = ad.leaky_relu(layer(x), 0.0)  # plain rectifier
        return self.layers[-1](x)

    def predict_probs(self, feats: np.ndarray, batch_size: int = 65536) -> np.ndarray:
        """Row densities (M, n_bins) in f64."""
        outs = []
        feats = np.asarray(feats)
        for i in range(0, feats.shape[0], batch_size):
            z = self.forward(feats[i:i + batch_size]).data.astype(np.float64)
            z -= z.max(axis=1, keepdims=True)
            e = np.exp(z)
            outs.append(e / e.sum(axis=1, keepdims=True))
        return np.concatenate(outs, axis=0)

    def state_arrays(self) -> list:
        out = [(n, t.data) for n, t in self.parameters()]
        out.append(("stats.feature_mean", self.feature_mean))
        out.append(("stats.feature_std", self.feature_std))
        return out

    def load_state_arrays(self, arrays: list):
        table = dict(arrays)
        for name, t in self.parameters():
            t.data = table.pop(name).astype(self.dtype).reshape(t.data.shape)
            t.grad = None
        self.feature_mean = table.pop("stats.feature_mean").astype(np.float64)
        self.feature_std = table.pop("stats.feature_std").astype(np.float64)

    def save(self, path):
        cfg = {"kind": "stack", "seed": self.seed, "n_features": self.n_features,
               "config": {"n_bins": self.cfg.n_bins,
                          "hidden_layers": self.cfg.hidden_layers,
                          "hidden_width": self.cfg.hidden_width}}
        if self.binspec is not None:
            cfg["binspec"] = self.binspec.to_json_dict()
        save_checkpoint(path, cfg, self.state_arrays())

    @classmethod
    def load(cls, path) -> "StackModel":
        cfg, arrays = load_checkpoint(path)
        if cfg.get("kind") != "stack":
            raise ValueError(f"checkpoint at {path} is not a stack model")
        model = cls(StackConfig(**cfg["config"]), cfg["n_features"], cfg["seed"])
        if "binspec" in cfg:
            model.binspec = BinSpec.from_json_dict(cfg["binspec"])
        model.load_state_arrays(arrays)
        return model


def train_stack(outputs: list, true_bins: np.ndarray, binspec: BinSpec,
                cfg: StackConfig | None = None,
                sched: TrainingSchedule | None = None, seed: int = 0,
                batch_rows: int = 8192) -> StackModel:
    """Fit the meta-learner on held-out learner predictions.

    Validation is a random 10% shuffle split of the training rows (the rows
    themselves come from data the base learners never trained on).
    """
    if cfg is None:
        cfg = StackConfig(n_bins=binspec.n_bins)
    if cfg.n_bins != binspec.n_bins:
        raise ValueError("stack output width must match the bin spec")
    if sched is None:
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=40, batch_size=batch_rows)
    _, stats = assemble_stack_inputs(outputs)
    # stats snap to f32 so checkpoints (f32 arrays) round-trip losslessly
    stats = (stats[0].astype(np.float32).astype(np.float64),
             stats[1].astype(np.float32).astype(np.float64))
    feats, _ = assemble_stack_inputs(outputs, stats=stats)
    y = np.asarray(true_bins).reshape(-1)
    if y.size != feats.shape[0]:
        raise ValueError("target bins do not align with learner samples")
    if np.unique(y).size < 2:
        logger.warning("stack targets collapse to a single bin; training anyway")

    model = StackModel(cfg, n_features=feats.shape[1], seed=seed)
    model.feature_mean, model.feature_std = stats
    model.binspec = binspec

    ss = np.random.SeedSequence([0x57AC2, int(seed)])
    split_rng = np.random.default_rng(ss.spawn(1)[0])
    shuffle_rng = np.random.default_rng(ss.spawn(1)[0])
    perm = split_rng.permutation(feats.shape[0])
    n_val = max(1, int(0.1 * perm.size))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]

    def rows_loss(take):
        probs = ad.softmax(model.forward(feats[take]), axis=1)
        return ad.sparse_categorical_cross_entropy(probs, y[take])

    def val_loss():
        total = 0.0
        for i in range(0, val_idx.size, batch_rows):
            take = val_idx[i:i + batch_rows]
            total += rows_loss(take).item() * take.size
        return total / val_idx.size

    fit(model, tr_idx, rows_loss, val_loss, sched, shuffle_rng, log=logger,
        label="stack epoch")
    return model


def stack_predict(model: StackModel, outputs: list) -> DensityGrid:
    """Fused densities over the learners' shared samples, (N, H, W, n_bins)."""
    shape = _check_same_samples(outputs)
    if len(outputs) != model.n_features:
        raise ValueError(f"model expects {model.n_features} learners, "
                         f"got {len(outputs)}")
    if model.binspec is None:
        raise RuntimeError("stack model has no bin spec")
    feats, _ = assemble_stack_inputs(outputs,
                                     stats=(model.feature_mean, model.feature_std))
    probs = model.predict_probs(feats)
    return DensityGrid(probs.reshape(*shape, model.cfg.n_bins), model.binspec)


def average_combine(outputs: list) -> np.ndarray:
    """Unweighted pointwise mean of learner expectations (the baseline)."""
    shape = _check_same_samples(outputs)
    out = np.zeros(shape, dtype=np.float64)
    for o in outputs:
        out += o.expectations
    return out / len(outputs)
