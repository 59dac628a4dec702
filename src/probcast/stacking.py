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
from .checkpoint import load_model, restore_state, save_model, snap_f32
from .nn import Dense
from .resnet import TrainingSchedule, fit, mean_loss

logger = logging.getLogger(__name__)

# Rows per forward pass in StackModel.predict_probs, the stack's training
# batch; bounds its activations ((rows, 36) f32 is 1.2 MB). Full chunks give
# each row the bits of a single pass; a short last chunk (under about 770
# rows) may take OpenBLAS's small-matrix path and round its rows differently.
PREDICT_ROWS = 8192


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

    dtype = np.float32

    def __init__(self, cfg: StackConfig, n_features: int, seed: int):
        self.cfg = cfg
        self.n_features = int(n_features)
        self.seed = int(seed)
        rng = np.random.default_rng(np.random.SeedSequence([0x57AC, self.seed]))
        widths = [self.n_features] + [cfg.hidden_width] * cfg.hidden_layers + [cfg.n_bins]
        self.layers = [Dense(a, b, rng, self.dtype) for a, b in zip(widths[:-1], widths[1:])]
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
            x = layer(x)  # rebound first, so no_grad frees the layer input
            x = ad.leaky_relu(x, 0.0)  # plain rectifier
        return self.layers[-1](x)

    def predict_probs(self, feats: np.ndarray) -> np.ndarray:
        """Row densities (M, n_bins) in f64."""
        feats = np.asarray(feats)
        out = np.empty((feats.shape[0], self.cfg.n_bins))
        with ad.no_grad():
            for i in range(0, feats.shape[0], PREDICT_ROWS):
                dst = out[i:i + PREDICT_ROWS]
                dst[...] = self.forward(feats[i:i + PREDICT_ROWS]).data
                ad.softmax_array(dst, 1, out=dst)
        return out

    def state_arrays(self) -> list:
        out = [(n, t.data) for n, t in self.parameters()]
        out.append(("stats.feature_mean", self.feature_mean))
        out.append(("stats.feature_std", self.feature_std))
        return out

    def load_state_arrays(self, arrays: list):
        table = restore_state(self.parameters(), self.state_arrays(), arrays)
        self.feature_mean = table["stats.feature_mean"]
        self.feature_std = table["stats.feature_std"]

    def save(self, path):
        save_model(path, self, "stack", extra=("n_features",))

    @classmethod
    def load(cls, path) -> "StackModel":
        return load_model(path, cls, "stack", StackConfig, extra=("n_features",))


def train_stack(outputs: list, true_bins: np.ndarray, binspec: BinSpec,
                sched: TrainingSchedule | None = None, seed: int = 0,
                batch_rows: int = 8192) -> StackModel:
    """Fit the meta-learner on held-out learner predictions.

    Validation is a random 10% shuffle split of the training rows (the rows
    themselves come from data the base learners never trained on).
    """
    if sched is None:
        sched = TrainingSchedule(initial_lr=1e-3, max_epochs=40, batch_size=batch_rows)
    _, (mean, std) = assemble_stack_inputs(outputs)
    stats = (snap_f32(mean), snap_f32(std))
    feats, _ = assemble_stack_inputs(outputs, stats=stats)
    y = np.asarray(true_bins).reshape(-1)
    if y.size != feats.shape[0]:
        raise ValueError("target bins do not align with learner samples")
    if np.unique(y).size < 2:
        logger.warning("stack targets collapse to a single bin; training anyway")

    model = StackModel(StackConfig(n_bins=binspec.n_bins), n_features=feats.shape[1],
                       seed=seed)
    model.feature_mean, model.feature_std = stats
    model.binspec = binspec
    feats = feats.astype(model.dtype)  # once, not per batch in forward

    ss = np.random.SeedSequence([0x57AC2, int(seed)])
    split_rng = np.random.default_rng(ss.spawn(1)[0])
    shuffle_rng = np.random.default_rng(ss.spawn(1)[0])
    perm = split_rng.permutation(feats.shape[0])
    n_val = max(1, int(0.1 * perm.size))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]

    def rows_loss(take):
        probs = ad.softmax(model.forward(feats[take]), axis=1)
        return ad.sparse_categorical_cross_entropy(probs, y[take])

    fit(model, tr_idx, rows_loss, lambda: mean_loss(rows_loss, val_idx, batch_rows),
        sched, shuffle_rng, log=logger, label="stack epoch")
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
