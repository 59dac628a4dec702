"""Convolutional residual network emitting per-gridpoint bin densities.

Architecture: input standardization, a projection convolution onto the
working channel count, n residual blocks (conv -> norm -> leaky rectifier
-> dropout, with an additive skip around the block), and an output
convolution to one channel per bin followed by SoftMax (categorical mode)
or to a single linear channel (continuous mode).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .binning import BinSpec, DensityGrid, discretize, fit_bins
from .checkpoint import load_checkpoint, save_checkpoint
from .grid import Dataset
from .nn import LEAKY_ALPHA, Adam, BatchNorm2d, Conv2d, LayerNorm2d

logger = logging.getLogger(__name__)

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


@dataclass
class ResNetConfig:
    inputs: list                 # (name, level) channels fed at issue time
    target: tuple                # (name, level) predicted at issue time + lead
    lead_hours: int
    n_blocks: int = 5
    n_bins: int = 100
    mode: str = CATEGORICAL
    channels: int | None = None  # derived: n_bins (categorical) or 64 (continuous)
    kernel: int = 5
    dropout_rate: float | None = 0.1
    norm: str = "batch"          # or "layer"

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("need at least one residual block")
        if self.mode not in (CATEGORICAL, CONTINUOUS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kernel % 2 == 0:
            raise ValueError("kernel size must be odd")
        if self.norm not in ("batch", "layer"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.dropout_rate is not None and not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        if self.channels is None:
            self.channels = self.n_bins if self.mode == CATEGORICAL else 64
        if self.mode == CATEGORICAL and self.channels != self.n_bins:
            raise ValueError("categorical mode ties the channel count to n_bins")
        self.inputs = [(str(n), l) for n, l in self.inputs]
        self.target = (str(self.target[0]), self.target[1])
        if self.lead_hours < 0:
            raise ValueError("lead_hours must be non-negative")

    @property
    def out_channels(self) -> int:
        return self.n_bins if self.mode == CATEGORICAL else 1

    def to_json_dict(self) -> dict:
        return {
            "inputs": [[n, l] for n, l in self.inputs],
            "target": [self.target[0], self.target[1]],
            "lead_hours": self.lead_hours,
            "n_blocks": self.n_blocks,
            "n_bins": self.n_bins,
            "mode": self.mode,
            "channels": self.channels,
            "kernel": self.kernel,
            "dropout_rate": self.dropout_rate,
            "norm": self.norm,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ResNetConfig":
        def key(v):
            return (v[0], v[1])
        return cls(inputs=[key(v) for v in d["inputs"]], target=key(d["target"]),
                   lead_hours=d["lead_hours"], n_blocks=d["n_blocks"],
                   n_bins=d["n_bins"], mode=d["mode"], channels=d["channels"],
                   kernel=d["kernel"], dropout_rate=d["dropout_rate"], norm=d["norm"])


@dataclass
class TrainingSchedule:
    initial_lr: float = 5e-5
    lr_reduce_factor: float = 5.0
    lr_patience_epochs: int = 2
    stop_patience_epochs: int = 5
    max_epochs: int = 100
    batch_size: int = 32
    min_improvement: float = 1e-6

    def __post_init__(self):
        if self.lr_patience_epochs < 1 or self.stop_patience_epochs < 1:
            raise ValueError("patience must be at least 1 epoch")
        if self.lr_reduce_factor <= 1.0:
            raise ValueError("lr reduce factor must exceed 1")


class PlateauSchedule:
    """Reduce-on-plateau with early stop.

    An epoch counts as stagnant when the validation loss fails to beat the
    best seen by min_improvement. After lr_patience stagnant epochs the
    learning rate is divided by the factor (and the plateau counter resets);
    after stop_patience stagnant epochs training stops. Both counters reset
    on improvement.
    """

    def __init__(self, sched: TrainingSchedule):
        self.sched = sched
        self.lr = sched.initial_lr
        self.best = np.inf
        self._plateau_wait = 0
        self._stop_wait = 0

    def update(self, val_loss: float) -> dict:
        s = self.sched
        if val_loss < self.best - s.min_improvement:
            self.best = val_loss
            self._plateau_wait = 0
            self._stop_wait = 0
            return {"improved": True, "reduced": False, "stop": False}
        self._plateau_wait += 1
        self._stop_wait += 1
        reduced = False
        if self._plateau_wait >= s.lr_patience_epochs:
            self.lr /= s.lr_reduce_factor
            self._plateau_wait = 0
            reduced = True
        stop = self._stop_wait >= s.stop_patience_epochs
        return {"improved": False, "reduced": reduced, "stop": stop}


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    learning_rate: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    best_epoch: int = -1

    def append(self, epoch, tr, va, lr, sec):
        self.epochs.append(epoch)
        self.train_loss.append(tr)
        self.val_loss.append(va)
        self.learning_rate.append(lr)
        self.seconds.append(sec)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,lr,seconds"]
        for row in zip(self.epochs, self.train_loss, self.val_loss,
                       self.learning_rate, self.seconds):
            lines.append("%d,%.10g,%.10g,%.10g,%.3f" % row)
        return "\n".join(lines) + "\n"


def fit(model, rows: np.ndarray, batch_loss, val_loss, sched: TrainingSchedule,
        shuffle_rng: np.random.Generator, log: logging.Logger = logger,
        label: str = "epoch") -> TrainHistory:
    """The training loop shared by learners and the stack; fits model in place.

    Each epoch shuffles rows, steps Adam on batch_loss(take) for each
    batch of row indices, then scores val_loss() and updates the plateau
    schedule. The model ends with the state of its best-validation epoch.
    """
    adam = Adam(model.parameters(), learning_rate=sched.initial_lr)
    plateau = PlateauSchedule(sched)
    history = TrainHistory()
    best_state = [(n, a.copy()) for n, a in model.state_arrays()]
    best_val = np.inf

    for epoch in range(sched.max_epochs):
        t0 = time.perf_counter()
        perm = shuffle_rng.permutation(rows)
        total = 0.0
        for start in range(0, perm.size, sched.batch_size):
            take = perm[start:start + sched.batch_size]
            loss = batch_loss(take)
            val = loss.item()
            if not np.isfinite(val):
                raise RuntimeError(
                    f"non-finite training loss at {label} {epoch}, "
                    f"batch {start // sched.batch_size}")
            adam.zero_grad()
            loss.backward()
            adam.step()
            total += val * take.size
        train_loss = total / max(perm.size, 1)
        va = val_loss()
        decision = plateau.update(va)
        adam.learning_rate = plateau.lr
        history.append(epoch, train_loss, va, plateau.lr, time.perf_counter() - t0)
        if va < best_val:
            best_val = va
            best_state = [(n, a.copy()) for n, a in model.state_arrays()]
            history.best_epoch = epoch
        log.info(label + " %d train %.5f val %.5f lr %.3g%s", epoch, train_loss,
                 va, plateau.lr, " *" if decision["improved"] else "")
        if decision["stop"]:
            break

    model.load_state_arrays(best_state)
    return history


class ResNet:
    """One learner: weights, bin spec, and input standardization statistics."""

    def __init__(self, cfg: ResNetConfig, seed: int, dtype=np.float32):
        self.cfg = cfg
        self.seed = int(seed)
        self.dtype = dtype
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, self.seed]))
        ch, k = cfg.channels, cfg.kernel
        norm_cls = BatchNorm2d if cfg.norm == "batch" else LayerNorm2d
        self.conv_in = Conv2d(len(cfg.inputs), ch, k, rng, dtype)
        self.blocks = []
        for _ in range(cfg.n_blocks):
            self.blocks.append({"conv": Conv2d(ch, ch, k, rng, dtype),
                                "norm": norm_cls(ch, dtype=dtype)})
        self.conv_out = Conv2d(ch, cfg.out_channels, k, rng, dtype)
        self.binspec: BinSpec | None = None
        self.input_mean: np.ndarray | None = None
        self.input_std: np.ndarray | None = None
        self.target_mean: float = 0.0
        self.target_std: float = 1.0

    # --- parameter bookkeeping -------------------------------------------------

    def parameters(self) -> list:
        out = [("conv_in." + n, t) for n, t in self.conv_in.parameters()]
        for i, blk in enumerate(self.blocks):
            out += [(f"block{i}.conv.{n}", t) for n, t in blk["conv"].parameters()]
            out += [(f"block{i}.norm.{n}", t) for n, t in blk["norm"].parameters()]
        out += [("conv_out." + n, t) for n, t in self.conv_out.parameters()]
        return out

    def buffers(self) -> list:
        out = []
        for i, blk in enumerate(self.blocks):
            out += [(f"block{i}.norm.{n}", a) for n, a in blk["norm"].buffers()]
        return out

    def n_parameters(self) -> int:
        return sum(t.data.size for _, t in self.parameters())

    def state_arrays(self) -> list:
        """Parameters, norm buffers and standardization stats, in fixed order."""
        out = [(n, t.data) for n, t in self.parameters()]
        out += self.buffers()
        if self.input_mean is not None:
            out.append(("stats.input_mean", self.input_mean))
            out.append(("stats.input_std", self.input_std))
        if self.cfg.mode == CONTINUOUS:
            out.append(("stats.target", np.array([self.target_mean, self.target_std])))
        return out

    def load_state_arrays(self, arrays: list):
        table = dict(arrays)
        for name, t in self.parameters():
            t.data = table.pop(name).astype(self.dtype).reshape(t.data.shape)
            t.grad = None
        for i, blk in enumerate(self.blocks):
            bufs = blk["norm"].buffers()
            if bufs:
                blk["norm"].set_buffers(table.pop(f"block{i}.norm.running_mean"),
                                        table.pop(f"block{i}.norm.running_var"))
        if "stats.input_mean" in table:
            self.input_mean = table.pop("stats.input_mean").astype(np.float64)
            self.input_std = table.pop("stats.input_std").astype(np.float64)
        if "stats.target" in table:
            tm, ts = table.pop("stats.target")
            self.target_mean, self.target_std = float(tm), float(ts)

    # --- forward ----------------------------------------------------------------

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        if self.input_mean is None:
            raise RuntimeError("model has no input statistics; train or fit first")
        mean = self.input_mean.reshape(1, -1, 1, 1)
        std = self.input_std.reshape(1, -1, 1, 1)
        return ((x - mean) / std).astype(self.dtype)

    def forward(self, x_raw: np.ndarray, training: bool = False,
                dropout_enabled: bool = False,
                rng: np.random.Generator | None = None,
                update_stats: bool | None = None) -> Tensor:
        """Raw input channels (B, C, H, W) to output logits/values tensor."""
        return self._head(*self._trunk(x_raw, training, update_stats),
                          training, dropout_enabled, rng, update_stats)

    def _block_body(self, blk: dict, y: Tensor, training: bool,
                    update_stats: bool | None) -> Tensor:
        h = blk["conv"](y)
        h = blk["norm"](h, training=training, update_stats=update_stats)
        return ad.leaky_relu(h, LEAKY_ALPHA)

    def _trunk(self, x_raw: np.ndarray, training: bool,
               update_stats: bool | None) -> tuple:
        """Everything before the first dropout: conv_in's output and block 0's body."""
        y = self.conv_in(Tensor(self._standardize(np.asarray(x_raw))))
        return y, self._block_body(self.blocks[0], y, training, update_stats)

    def _head(self, y: Tensor, h: Tensor, training: bool, dropout_enabled: bool,
              rng: np.random.Generator | None, update_stats: bool | None) -> Tensor:
        """Block 0's dropout and skip, the remaining blocks, then conv_out."""
        rate = self.cfg.dropout_rate
        use_dropout = dropout_enabled and rate is not None and rate > 0
        for i, blk in enumerate(self.blocks):
            if i:
                h = self._block_body(blk, y, training, update_stats)
            if use_dropout:
                h = ad.dropout(h, rate, rng)
            y = ad.add(y, h)
        return self.conv_out(y)

    def predict_density(self, x_raw: np.ndarray, dropout_enabled: bool = False,
                        rng: np.random.Generator | None = None,
                        batch_size: int = 64) -> DensityGrid:
        """Normalized per-gridpoint densities, probs shaped (B, H, W, n_bins)."""
        return self.predict_densities(x_raw, [rng], dropout_enabled, batch_size)[0]

    def predict_densities(self, x_raw: np.ndarray, rngs: list,
                          dropout_enabled: bool = True,
                          batch_size: int = 64) -> list:
        """One density per rng stream, each as predict_density would give it.

        Each batch runs the trunk once, then the head once per stream. A
        stream draws its dropout masks in the same batch order and shapes as
        on its own, so every density is bit-identical to a lone pass.
        """
        if self.cfg.mode != CATEGORICAL:
            raise ValueError("predict_density requires a categorical model")
        if self.binspec is None:
            raise RuntimeError("model has no bin spec; train or fit first")
        x_raw = np.asarray(x_raw)
        n, _, n_lat, n_lon = x_raw.shape
        # bins stay the second axis in memory, as predict_density always laid
        # them out: expectation()'s matmul rounds differently on other layouts
        outs = [np.empty((n, self.cfg.n_bins, n_lat, n_lon)) for _ in rngs]
        for i in range(0, n, batch_size):
            y, h = self._trunk(x_raw[i:i + batch_size], False, None)
            for out, rng in zip(outs, rngs):
                z = self._head(y, h, False, dropout_enabled, rng,
                               None).data.astype(np.float64)
                z -= z.max(axis=1, keepdims=True)
                e = np.exp(z)
                np.divide(e, e.sum(axis=1, keepdims=True), out=out[i:i + batch_size])
        return [DensityGrid(np.moveaxis(out, 1, -1), self.binspec) for out in outs]

    def predict_continuous(self, x_raw: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Real-valued field predictions in target units, shape (B, H, W)."""
        if self.cfg.mode != CONTINUOUS:
            raise ValueError("predict_continuous requires a continuous model")
        outs = []
        x_raw = np.asarray(x_raw)
        for i in range(0, x_raw.shape[0], batch_size):
            y = self.forward(x_raw[i:i + batch_size], training=False).data[:, 0]
            outs.append(y.astype(np.float64) * self.target_std + self.target_mean)
        return np.concatenate(outs, axis=0)

    # --- persistence ------------------------------------------------------------

    def save(self, path):
        cfg = {"kind": "resnet", "seed": self.seed, "config": self.cfg.to_json_dict()}
        if self.binspec is not None:
            cfg["binspec"] = self.binspec.to_json_dict()
        save_checkpoint(path, cfg, self.state_arrays())

    @classmethod
    def load(cls, path) -> "ResNet":
        cfg, arrays = load_checkpoint(path)
        if cfg.get("kind") != "resnet":
            raise ValueError(f"checkpoint at {path} is not a resnet model")
        model = cls(ResNetConfig.from_json_dict(cfg["config"]), seed=cfg["seed"])
        if "binspec" in cfg:
            model.binspec = BinSpec.from_json_dict(cfg["binspec"])
        model.load_state_arrays(arrays)
        return model


# --- data assembly ----------------------------------------------------------------


def lead_steps(ds: Dataset, lead_hours: int) -> int:
    if lead_hours % ds.step_hours != 0:
        raise ValueError(f"lead {lead_hours} h is not a multiple of the "
                         f"{ds.step_hours} h step")
    return lead_hours // ds.step_hours


def build_samples(ds: Dataset, cfg: ResNetConfig, split: tuple):
    """Raw input stacks and target values for one chronological split.

    Sample i has inputs at time a+i and verifies at a+i+lead; both stay
    inside the split. Returns (X (N,C,H,W) f32, target values (N,H,W) f64,
    valid time indices).
    """
    steps = lead_steps(ds, cfg.lead_hours)
    a, b = split
    n = (b - a) - steps
    if n < 1:
        raise ValueError("split too short for the requested lead")
    idx = [ds.var_index(name, level) for name, level in cfg.inputs]
    X = ds.data[a:a + n][:, idx]
    truth = ds.values(*cfg.target)[a + steps: b].astype(np.float64)
    valid_times = np.arange(a + steps, b)
    return X, truth, valid_times


def fit_statistics(model: ResNet, ds: Dataset, train_split: tuple):
    """Bin spec (categorical), input and target standardization from training data."""
    cfg = model.cfg
    a, b = train_split
    if b <= a:
        raise ValueError("empty training split")
    idx = [ds.var_index(name, level) for name, level in cfg.inputs]
    block = ds.data[a:b][:, idx].astype(np.float64)
    # stats snap to f32 so checkpoints (f32 arrays) round-trip losslessly
    model.input_mean = block.mean(axis=(0, 2, 3)).astype(np.float32).astype(np.float64)
    std = np.where(block.std(axis=(0, 2, 3)) < 1e-12, 1.0, block.std(axis=(0, 2, 3)))
    model.input_std = std.astype(np.float32).astype(np.float64)
    tvals = ds.values(*cfg.target)[a:b].astype(np.float64)
    if cfg.mode == CATEGORICAL:
        model.binspec = fit_bins(ds, cfg.target[0], cfg.target[1], train_split,
                                 n_bins=cfg.n_bins)
    else:
        model.target_mean = float(np.float32(tvals.mean()))
        tstd = float(tvals.std())
        model.target_std = float(np.float32(tstd if tstd > 1e-12 else 1.0))


def _batch_loss(model: ResNet, X: np.ndarray, y, training: bool,
                rng: np.random.Generator | None) -> Tensor:
    out = model.forward(X, training=training,
                        dropout_enabled=training, rng=rng)
    if model.cfg.mode == CATEGORICAL:
        probs = ad.softmax(out, axis=1)
        return ad.sparse_categorical_cross_entropy(probs, y)
    return ad.mse_loss(out, y[:, None].astype(model.dtype))


def evaluate_loss(model: ResNet, X: np.ndarray, y, batch_size: int = 64) -> float:
    """Mean loss over samples with dropout off and frozen normalization."""
    n = X.shape[0]
    total = 0.0
    for i in range(0, n, batch_size):
        stop = min(i + batch_size, n)
        # no name holds the graph, so it is freed before the next batch's forward
        total += _batch_loss(model, X[i:stop], y[i:stop], training=False,
                             rng=None).item() * (stop - i)
    return float(total / n)


def train(model: ResNet, ds: Dataset, train_split: tuple, val_split: tuple,
          sched: TrainingSchedule, seed: int) -> TrainHistory:
    """Fit the model in place; returns the per-epoch history.

    The returned weights are those of the best-validation epoch. Training is
    deterministic given the seed (shuffling and dropout streams derive from it).
    """
    cfg = model.cfg
    if model.input_mean is None:
        fit_statistics(model, ds, train_split)
    X_tr, truth_tr, _ = build_samples(ds, cfg, train_split)
    X_va, truth_va, _ = build_samples(ds, cfg, val_split)
    if cfg.mode == CATEGORICAL:
        y_tr = discretize(truth_tr, model.binspec).bins
        y_va = discretize(truth_va, model.binspec).bins
    else:
        y_tr = ((truth_tr - model.target_mean) / model.target_std)
        y_va = ((truth_va - model.target_mean) / model.target_std)

    ss = np.random.SeedSequence([0x7EA1, int(seed)])
    shuffle_rng = np.random.default_rng(ss.spawn(1)[0])
    dropout_rng = np.random.default_rng(ss.spawn(1)[0])
    return fit(model, np.arange(X_tr.shape[0]),
               lambda take: _batch_loss(model, X_tr[take], y_tr[take],
                                        training=True, rng=dropout_rng),
               lambda: evaluate_loss(model, X_va, y_va, batch_size=sched.batch_size),
               sched, shuffle_rng)
