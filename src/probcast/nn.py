"""Parameterized layers and the Adam optimizer on top of the autodiff engine."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LEAKY_ALPHA = 0.3


def _he_std(fan_in: int, alpha: float = LEAKY_ALPHA) -> float:
    # variance-scaled init for leaky-rectified layers
    return float(np.sqrt(2.0 / (fan_in * (1.0 + alpha ** 2))))


class Conv2d:
    """5x5-style convolution with periodic-longitude / zero-latitude padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, dtype=np.float32):
        std = _he_std(in_channels * kernel * kernel)
        w = rng.normal(0.0, std, size=(out_channels, in_channels, kernel, kernel))
        self.w = Tensor(w.astype(dtype), requires_grad=True)
        self.b = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.w, self.b)

    def parameters(self):
        return [("w", self.w), ("b", self.b)]


class Dense:
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, dtype=np.float32):
        std = _he_std(in_features, alpha=0.0)
        w = rng.normal(0.0, std, size=(in_features, out_features))
        self.w = Tensor(w.astype(dtype), requires_grad=True)
        self.b = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.dense(x, self.w, self.b)

    def parameters(self):
        return [("w", self.w), ("b", self.b)]


class BatchNorm2d:
    """Per-channel normalization with running statistics for inference."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if training:
            mean = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
            var = x.data.var(axis=(0, 2, 3), dtype=np.float64)
            m = self.momentum
            self.running_mean = ((1 - m) * self.running_mean
                                 + m * mean).astype(self.running_mean.dtype)
            self.running_var = ((1 - m) * self.running_var
                                + m * var).astype(self.running_var.dtype)
            return ad.batch_norm(x, self.gamma, self.beta,
                                 mean.astype(x.data.dtype), var.astype(x.data.dtype),
                                 eps=self.eps, stats_from_batch=True)
        return ad.batch_norm(x, self.gamma, self.beta,
                             self.running_mean.astype(x.data.dtype),
                             self.running_var.astype(x.data.dtype),
                             eps=self.eps, stats_from_batch=False)

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def set_buffers(self, mean: np.ndarray, var: np.ndarray):
        self.running_mean = mean.astype(self.running_mean.dtype)
        self.running_var = var.astype(self.running_var.dtype)


class Adam:
    """Bias-corrected Adam."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list, learning_rate: float):
        self.params = list(params)  # (name, Tensor) pairs
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for _, t in self.params]
        self.v = [np.zeros_like(t.data) for _, t in self.params]

    def zero_grad(self):
        for _, t in self.params:
            t.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, (name, p) in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
