"""Convolutional residual network emitting per-gridpoint bin densities.

Architecture: input standardization, a projection convolution onto
n_bins working channels, n residual blocks (conv -> batch norm -> leaky
rectifier -> dropout, with an additive skip around the block), and an
output convolution to one channel per bin followed by SoftMax.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .binning import BinSpec, DensityGrid, discretize, fit_bins
from .checkpoint import load_model, restore_state, save_model, snap_f32
from .grid import Dataset, lead_steps
from .nn import LEAKY_ALPHA, Adam, BatchNorm2d, Conv2d

logger = logging.getLogger(__name__)


@dataclass
class ResNetConfig:
    inputs: list                 # (name, level) channels fed at issue time
    target: tuple                # (name, level) predicted at issue time + lead
    lead_hours: int
    n_blocks: int = 5
    n_bins: int = 100            # also the working channel count
    kernel: int = 5
    dropout_rate: float = 0.1    # 0 disables dropout

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("inputs: need at least one input channel")
        if self.n_blocks < 1:
            raise ValueError("need at least one residual block")
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be at least 2, got {self.n_bins}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be a positive odd size, got {self.kernel}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        self.inputs = [(str(n), l) for n, l in self.inputs]
        self.target = (str(self.target[0]), self.target[1])
        if self.lead_hours < 0:
            raise ValueError("lead_hours must be non-negative")


@dataclass
class TrainingSchedule:
    initial_lr: float = 5e-5
    stop_patience_epochs: int = 5
    max_epochs: int = 100
    batch_size: int = 32

    def __post_init__(self):
        if self.stop_patience_epochs < 1:
            raise ValueError("stop patience must be at least 1 epoch")
        if not 0.0 < self.initial_lr < np.inf:
            raise ValueError("need a positive, finite learning rate")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("need batch_size >= 1 and max_epochs >= 0")


class PlateauSchedule:
    """Reduce-on-plateau with early stop.

    An epoch counts as stagnant when the validation loss fails to beat the
    best seen by min_improvement. After lr_patience_epochs stagnant epochs
    the learning rate is divided by lr_reduce_factor (and the plateau counter
    resets); after the schedule's stop_patience_epochs stagnant epochs
    training stops. Both counters reset on improvement.
    """

    lr_reduce_factor = 5.0
    lr_patience_epochs = 2
    min_improvement = 1e-6

    def __init__(self, sched: TrainingSchedule):
        self.sched = sched
        self.lr = sched.initial_lr
        self.best = np.inf
        self._plateau_wait = 0
        self._stop_wait = 0

    def update(self, val_loss: float) -> dict:
        if val_loss < self.best - self.min_improvement:
            self.best = val_loss
            self._plateau_wait = 0
            self._stop_wait = 0
            return {"improved": True, "reduced": False, "stop": False}
        self._plateau_wait += 1
        self._stop_wait += 1
        reduced = False
        if self._plateau_wait >= self.lr_patience_epochs:
            self.lr /= self.lr_reduce_factor
            self._plateau_wait = 0
            reduced = True
        stop = self._stop_wait >= self.sched.stop_patience_epochs
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


def mean_loss(batch_loss, rows: np.ndarray, batch_size: int) -> float:
    """Size-weighted mean of batch_loss(take) over rows in batches, with no graph."""
    total = 0.0
    with ad.no_grad():
        for start in range(0, rows.size, batch_size):
            take = rows[start:start + batch_size]
            total += batch_loss(take).item() * take.size
    return total / rows.size


class ResNet:
    """One learner: weights, bin spec, and input standardization statistics."""

    def __init__(self, cfg: ResNetConfig, seed: int, dtype=np.float32):
        self.cfg = cfg
        self.seed = int(seed)
        self.dtype = dtype
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, self.seed]))
        ch, k = cfg.n_bins, cfg.kernel
        self.conv_in = Conv2d(len(cfg.inputs), ch, k, rng, dtype)
        self.blocks = []
        for _ in range(cfg.n_blocks):
            self.blocks.append({"conv": Conv2d(ch, ch, k, rng, dtype),
                                "norm": BatchNorm2d(ch, dtype=dtype)})
        self.conv_out = Conv2d(ch, cfg.n_bins, k, rng, dtype)
        self.binspec: BinSpec | None = None
        self.input_mean: np.ndarray | None = None
        self.input_std: np.ndarray | None = None

    # --- parameter bookkeeping -------------------------------------------------

    def parameters(self) -> list:
        out = [("conv_in." + n, t) for n, t in self.conv_in.parameters()]
        for i, blk in enumerate(self.blocks):
            out += [(f"block{i}.conv.{n}", t) for n, t in blk["conv"].parameters()]
            out += [(f"block{i}.norm.{n}", t) for n, t in blk["norm"].parameters()]
        out += [("conv_out." + n, t) for n, t in self.conv_out.parameters()]
        return out

    def n_parameters(self) -> int:
        return sum(t.data.size for _, t in self.parameters())

    def state_arrays(self) -> list:
        """Parameters, norm buffers and standardization stats, in fixed order."""
        out = [(n, t.data) for n, t in self.parameters()]
        for i, blk in enumerate(self.blocks):
            out += [(f"block{i}.norm.{n}", a) for n, a in blk["norm"].buffers()]
        if self.input_mean is not None:
            out.append(("stats.input_mean", self.input_mean))
            out.append(("stats.input_std", self.input_std))
        return out

    def load_state_arrays(self, arrays: list):
        layout = self.state_arrays()
        if self.input_mean is None and any(n == "stats.input_mean" for n, _ in arrays):
            unfit = np.zeros(len(self.cfg.inputs))  # not fit yet: take the stored stats
            layout += [("stats.input_mean", unfit), ("stats.input_std", unfit)]
        table = restore_state(self.parameters(), layout, arrays)
        for i, blk in enumerate(self.blocks):
            blk["norm"].set_buffers(*(table[f"block{i}.norm.{n}"]
                                      for n, _ in blk["norm"].buffers()))
        if "stats.input_mean" in table:
            self.input_mean = table["stats.input_mean"]
            self.input_std = table["stats.input_std"]

    # --- forward ----------------------------------------------------------------

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        if self.input_mean is None:
            raise RuntimeError("model has no input statistics; train or fit first")
        mean = self.input_mean.reshape(1, -1, 1, 1)
        std = self.input_std.reshape(1, -1, 1, 1)
        return ((x - mean) / std).astype(self.dtype)

    def forward(self, x_raw: np.ndarray, training: bool = False,
                dropout_enabled: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Raw input channels (B, C, H, W) to output logits (B, n_bins, H, W)."""
        return self._head(*self._trunk(x_raw, training), training, dropout_enabled, rng)

    def _block_body(self, blk: dict, y: Tensor, training: bool) -> Tensor:
        h = blk["norm"](blk["conv"](y), training=training)
        return ad.leaky_relu(h, LEAKY_ALPHA)

    def _trunk(self, x_raw: np.ndarray, training: bool) -> tuple:
        """Everything before the first dropout: conv_in's output and block 0's body."""
        y = self.conv_in(Tensor(self._standardize(np.asarray(x_raw))))
        return y, self._block_body(self.blocks[0], y, training)

    def _head(self, y: Tensor, h: Tensor, training: bool, dropout_enabled: bool,
              rng: np.random.Generator | None) -> Tensor:
        """Block 0's dropout and skip, the remaining blocks, then conv_out."""
        for i, blk in enumerate(self.blocks):
            if i:
                h = self._block_body(blk, y, training)
            if dropout_enabled:
                h = ad.dropout(h, self.cfg.dropout_rate, rng)
            y = ad.add(y, h)
            del h  # no dropout output lives through the next conv or conv_out
        return self.conv_out(y)

    def predict_density(self, x_raw: np.ndarray, dropout_enabled: bool = False,
                        rng: np.random.Generator | None = None) -> DensityGrid:
        """Normalized per-gridpoint densities, probs shaped (B, H, W, n_bins)."""
        return self.predict_densities(x_raw, [rng], dropout_enabled)[0]

    def predict_densities(self, x_raw: np.ndarray, rngs: list,
                          dropout_enabled: bool = True,
                          batch_size: int = 64) -> list:
        """One density per rng stream, each as predict_density would give it.

        Each batch runs the trunk once on the calling thread, then the head
        once per stream. The streams are split over w = min(OpenBLAS threads
        on entry, len(rngs)) workers, the calling thread and w - 1 pool
        threads, in fixed interleaved shares, so each stream's heads run in
        batch order on one thread and draw its dropout masks in the same
        order and shapes as on its own: every density is bit-identical to a
        lone pass. OpenBLAS is pinned to one thread for the whole call, so
        the cores OPENBLAS_NUM_THREADS grants go to the members, and the
        bytes equal those of a one-thread run whatever that count is. When
        numpy's bundled OpenBLAS is not found, BLAS is left alone and w is 1.
        No graph is recorded, so each intermediate goes once the next op has
        read it; beyond its outputs, the call holds the trunk's two
        activations and one head's transients per worker.
        """
        if self.binspec is None:
            raise RuntimeError("model has no bin spec; train or fit first")
        x_raw = np.asarray(x_raw)
        n, _, n_lat, n_lon = x_raw.shape
        # bins stay the second axis in memory, as predict_density always laid
        # them out: expectation()'s matmul rounds differently on other layouts
        outs = [np.empty((n, self.cfg.n_bins, n_lat, n_lon)) for _ in rngs]
        jobs = list(zip(outs, rngs))

        def heads(share, rows, y, h):
            with ad.no_grad():  # recording is per thread
                for out, rng in share:
                    dst = out[rows]
                    dst[...] = self._head(y, h, False, dropout_enabled, rng).data
                    ad.softmax_array(dst, 1, out=dst)

        with ad.no_grad(), _ONE_BLAS_THREAD as threads:
            w = max(1, min(threads, len(jobs)))
            shares = [jobs[k::w] for k in range(w)]
            with ThreadPoolExecutor(w - 1) if w > 1 else contextlib.nullcontext() as pool:
                for i in range(0, n, batch_size):
                    rows = slice(i, i + batch_size)
                    y, h = self._trunk(x_raw[rows], False)
                    futures = [pool.submit(heads, s, rows, y, h) for s in shares[1:]]
                    try:
                        heads(shares[0], rows, y, h)
                    finally:
                        for f in futures:
                            f.result()
            if w > 1:
                _trim_heap()
        return [DensityGrid(np.moveaxis(out, 1, -1), self.binspec) for out in outs]

    # --- persistence ------------------------------------------------------------

    def save(self, path):
        save_model(path, self, "resnet")

    @classmethod
    def load(cls, path) -> "ResNet":
        return load_model(path, cls, "resnet", ResNetConfig)


class _OneBlasThread:
    """Pins numpy's bundled OpenBLAS to one thread while any caller is inside.

    Entering yields the thread count OpenBLAS had before the first caller
    pinned it, or 1 when the library is not found (BLAS is then left alone).
    The count is process-wide, so callers in several threads share one save
    and one restore: the first in saves and pins, the last out restores.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1  # stays 1 when the library is not found
        self._calls = None  # (get, set) of the thread count; () when not found

    @staticmethod
    def _find():
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
                get = lib.scipy_openblas_get_num_threads64_
                put = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
        return ()

    def __enter__(self) -> int:
        with self._lock:
            if self._calls is None:
                self._calls = self._find()
            if self._calls and self._depth == 0:
                get, put = self._calls
                self._saved = get()
                put(1)
            self._depth += 1
            return self._saved

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._calls and self._depth == 0:
                self._calls[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _trim_heap():
    """Hand free heap pages back to the OS: glibc's malloc_trim, a no-op elsewhere.

    A pool thread's malloc arena keeps the heads' freed transients cached
    after the pool joins, and they would add to the process's peak RSS when
    the next phase allocates from the main arena.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # no glibc, or no dlopen(NULL)
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


# --- data assembly ----------------------------------------------------------------


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
    """Bin spec and input standardization from training data."""
    cfg = model.cfg
    a, b = train_split
    if b <= a:
        raise ValueError("empty training split")
    idx = [ds.var_index(name, level) for name, level in cfg.inputs]
    block = ds.data[a:b][:, idx].astype(np.float64)
    model.input_mean = snap_f32(block.mean(axis=(0, 2, 3)))
    std = block.std(axis=(0, 2, 3))
    model.input_std = snap_f32(np.where(std < 1e-12, 1.0, std))
    model.binspec = fit_bins(ds, cfg.target[0], cfg.target[1], train_split,
                             n_bins=cfg.n_bins)


def _batch_loss(model: ResNet, X: np.ndarray, y, training: bool,
                rng: np.random.Generator | None) -> Tensor:
    out = model.forward(X, training=training,
                        dropout_enabled=training, rng=rng)
    return ad.sparse_categorical_cross_entropy(ad.softmax(out, axis=1), y)


def evaluate_loss(model: ResNet, X: np.ndarray, y, batch_size: int = 64) -> float:
    """Mean loss over samples with dropout off and frozen normalization."""
    return mean_loss(lambda take: _batch_loss(model, X[take], y[take], training=False,
                                              rng=None),
                     np.arange(X.shape[0]), batch_size)


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
    y_tr = discretize(truth_tr, model.binspec).bins
    y_va = discretize(truth_va, model.binspec).bins

    ss = np.random.SeedSequence([0x7EA1, int(seed)])
    shuffle_rng = np.random.default_rng(ss.spawn(1)[0])
    dropout_rng = np.random.default_rng(ss.spawn(1)[0])
    return fit(model, np.arange(X_tr.shape[0]),
               lambda take: _batch_loss(model, X_tr[take], y_tr[take],
                                        training=True, rng=dropout_rng),
               lambda: evaluate_loss(model, X_va, y_va, batch_size=sched.batch_size),
               sched, shuffle_rng)
