"""Span-recording shims around probcast's public functions and methods.

Only traced runs install them; untraced runs call the package unchanged.
A span is (name, start_ns, end_ns, parent index, run id). Spans stay in
memory and are written out when the run ends; self times and the
per-layer table are derived from them afterwards.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
import time

import probcast  # noqa: F401  (loads every submodule the shims patch)
import probcast.cli  # noqa: F401  (cli and exploration bind functions by name; wrap those too)
from probcast import autodiff, binning, checkpoint, contours, ensemble, gfb, nn
from probcast import resnet, stacking, synth, verification


def _conv_counts(args, kwargs, out):
    x, w = args[0].data, args[1].data
    B, C_in, H, W = x.shape
    C_out, _, k, _ = w.shape
    return {"autodiff.conv2d.gflop": 2.0 * B * C_out * C_in * k * k * H * W / 1e9,
            "autodiff.conv2d.im2col_mb": B * C_in * k * k * H * W * x.itemsize / 1e6}


def _file_bytes(key, path_arg):
    def count(args, kwargs, out):
        path = args[path_arg] if len(args) > path_arg else kwargs["path"]
        return {key: float(os.path.getsize(path))}
    return count


def _retained(args, kwargs, out):
    return {"ensemble.retained_mb": sum(m.probs.nbytes for m in out.members) / 1e6}


def _vertices(args, kwargs, out):
    return {"contours.vertices": float(sum(len(line.vertices)
                                           for lines in out.values() for line in lines))}


# (owner, attribute, span name, counter hook, wrap the returned Tensor's vjp)
TARGETS = [
    (synth, "synth_generate", "synth.generate", None, False),
    (gfb, "save_dataset", "gfb.save", _file_bytes("gfb.bytes", 1), False),
    (gfb, "load_dataset", "gfb.load", None, False),
    (checkpoint, "save_checkpoint", "checkpoint.save", _file_bytes("checkpoint.bytes", 0), False),
    (checkpoint, "load_checkpoint", "checkpoint.load", None, False),
    (binning, "fit_bins", "binning.fit_bins", None, False),
    (binning, "discretize", "binning.discretize", None, False),
    (binning, "expectation", "binning.expectation", None, False),
    (binning, "density_stddev", "binning.density_stddev", None, False),
    (autodiff, "conv2d", "autodiff.conv2d", _conv_counts, True),
    (autodiff, "dense", "autodiff.dense", None, True),
    (autodiff, "batch_norm", "autodiff.batch_norm", None, True),
    (autodiff, "leaky_relu", "autodiff.leaky_relu", None, True),
    (autodiff, "dropout", "autodiff.dropout", None, True),
    (autodiff, "add", "autodiff.add", None, True),
    (autodiff, "softmax", "autodiff.softmax", None, True),
    (autodiff, "sparse_categorical_cross_entropy", "autodiff.sparse_ce", None, True),
    (autodiff.Tensor, "backward", "autodiff.backward", None, False),
    (nn.Adam, "step", "nn.adam.step", None, False),
    (resnet, "build_samples", "resnet.build_samples", None, False),
    (resnet, "fit_statistics", "resnet.fit_statistics", None, False),
    (resnet, "evaluate_loss", "resnet.evaluate_loss", None, False),
    (resnet, "train", "resnet.train", None, False),
    (resnet.ResNet, "forward", "resnet.forward", None, False),
    (resnet.ResNet, "predict_density", "resnet.predict_density", None, False),
    (ensemble, "generate_ensemble", "ensemble.generate", _retained, False),
    (ensemble, "linear_pool", "ensemble.linear_pool", None, False),
    (ensemble, "ensemble_spread", "ensemble.spread", None, False),
    (ensemble.EnsembleSet, "member_expectations", "ensemble.member_expectations", None, False),
    (stacking, "assemble_stack_inputs", "stacking.assemble_inputs", None, False),
    (stacking, "train_stack", "stacking.train_stack", None, False),
    (stacking, "stack_predict", "stacking.predict", None, False),
    (stacking.StackModel, "forward", "stacking.forward", None, False),
    (verification, "assemble_report", "verification.assemble_report", None, False),
    (verification, "crps", "verification.crps", None, False),
    (verification, "mean_crps", "verification.mean_crps", None, False),
    (verification, "coverage_stats", "verification.coverage", None, False),
    (verification, "topk_match", "verification.topk", None, False),
    (verification, "weighted_rmse", "verification.weighted_rmse", None, False),
    (verification, "weighted_mse_ci", "verification.weighted_mse_ci", None, False),
    (verification, "cdf_threshold", "verification.cdf_threshold", None, False),
    (contours, "probability_contours", "contours.probability_contours", _vertices, False),
]


class _EpochCounter(logging.Handler):
    """Counts train_stack's per-epoch log records; the loop exposes no other count."""

    def __init__(self, tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record):
        if str(record.msg).startswith("stack epoch"):
            self.tracer.add("stacking.epochs", 1.0)


class Tracer:
    """In-memory span store plus the shims that feed it."""

    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent index, run id]
        self.counters = {}    # (run id, name) -> total
        self.run_id = None
        self._stack = []
        self._patched = []    # (owner, attribute, original)
        self._log = None

    # --- recording -----------------------------------------------------------

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name, amount):
        if self.run_id is not None:
            key = (self.run_id, name)
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def begin(self, run_id, name):
        """Start a run (set-up or timed unit); its root span is returned."""
        self.run_id = run_id
        return self.open(name)

    def end(self, root):
        self.close(root)
        self.run_id = None

    # --- shims -----------------------------------------------------------------

    def _shim(self, fn, name, count, wrap_vjp):
        tracer = self
        fwd_name = name + ".fwd" if wrap_vjp else name
        vjp_name = name + ".vjp"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if tracer.run_id is None:
                return fn(*args, **kwargs)
            idx = tracer.open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                for key, amount in count(args, kwargs, out).items():
                    tracer.add(key, amount)
            if wrap_vjp and out._vjp is not None and all(out is not a for a in args):
                out._vjp = tracer._vjp_shim(out._vjp, vjp_name)
            return out

        return shim

    def _vjp_shim(self, vjp, name):
        def shim(g):
            idx = self.open(name)
            try:
                return vjp(g)
            finally:
                self.close(idx)
        return shim

    def install(self):
        """Replace every binding of each target, in every loaded probcast module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "probcast" or key.startswith("probcast.")]
        for owner, attr, name, count, wrap_vjp in TARGETS:
            original = getattr(owner, attr)
            shim = self._shim(original, name, count, wrap_vjp)
            if isinstance(owner, type):
                self._patch(owner, attr, original, shim)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, shim)
        log = logging.getLogger(stacking.__name__)
        self._log = (log, log.level, _EpochCounter(self))
        log.setLevel(logging.INFO)
        log.addHandler(self._log[2])

    def _patch(self, owner, attr, original, shim):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, shim)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        if self._log is not None:
            log, level, handler = self._log
            log.removeHandler(handler)
            log.setLevel(level)
            self._log = None

    def span_cost_s(self, calls: int = 20000) -> float:
        """Seconds one shimmed call adds over a plain call, measured on a no-op."""
        def noop(*args):
            return None
        shim = self._shim(noop, "trace.calibrate", None, False)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1)
        plain = time.perf_counter() - t0
        n_spans, self.run_id = len(self.spans), "calibrate"
        t0 = time.perf_counter()
        for _ in range(calls):
            shim(1)
        traced = time.perf_counter() - t0
        del self.spans[n_spans:]
        self.run_id = None
        return max(0.0, traced - plain) / calls

    # --- derived tables ----------------------------------------------------------

    def summary(self, run_ids) -> dict:
        """Per span name: calls, inclusive and self seconds, and counters, per run."""
        runs = set(run_ids)
        child = [0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0 and run in runs:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run not in runs:
                continue
            row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child[i]) / 1e9
        n = max(1, len(runs))
        for row in table.values():
            for key in row:
                row[key] /= n
        counters = {}
        for (run, name), total in self.counters.items():
            if run in runs:
                counters[name] = counters.get(name, 0.0) + total / n
        return {"spans": table, "counters": counters}

    def records(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans]
