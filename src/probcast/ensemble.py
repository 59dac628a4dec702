"""Dropout-at-inference ensembles: member generation, pooling, spread."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import DensityGrid, expectation
from .grid import GridSpec, latitude_weights
from .resnet import ResNet


def _check_members(members: list):
    """The (bin spec, probs shape) that every member density shares."""
    if len(members) < 1:
        raise ValueError("need at least one member")
    spec, shape = members[0].spec, members[0].probs.shape
    for m in members[1:]:
        if m.spec != spec or m.probs.shape != shape:
            raise ValueError("members disagree on bin spec or grid")
    return spec, shape


@dataclass
class EnsembleSet:
    """Stochastic forward passes of one trained model over the same samples."""

    members: list            # DensityGrid per member, probs (N, H, W, n_bins)
    member_seeds: list       # integer seed per member

    def __post_init__(self):
        _check_members(self.members)

    @property
    def n_members(self) -> int:
        return len(self.members)

    def member_expectations(self) -> np.ndarray:
        """Expected-value fields per member, shape (n_members, N, H, W)."""
        exps = np.empty((self.n_members,) + self.members[0].probs.shape[:-1])
        for e, m in zip(exps, self.members):
            e[...] = expectation(m)
        return exps


def generate_ensemble(model: ResNet, x_raw: np.ndarray, n_members: int = 32,
                      master_seed: int = 0) -> EnsembleSet:
    """n stochastic passes with independent per-member streams from one seed."""
    if not model.cfg.dropout_rate:
        raise ValueError("no dropout layer in the network architecture: "
                         "build the model with a positive dropout rate")
    if n_members < 1:
        raise ValueError("n_members must be positive")
    seed_rng = np.random.default_rng(np.random.SeedSequence([0xE45, int(master_seed)]))
    seeds = [int(s) for s in seed_rng.integers(0, 2 ** 63 - 1, size=n_members)]
    rngs = [np.random.default_rng(np.random.SeedSequence(s)) for s in seeds]
    return EnsembleSet(model.predict_densities(x_raw, rngs), seeds)


def linear_pool(members: list, weights=None) -> DensityGrid:
    """Convex mixture of member densities (the law-of-total-probability average)."""
    spec, shape = _check_members(members)
    n = len(members)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError("one weight per member required")
    if np.any(weights < 0):
        raise ValueError("pooling weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"pooling weights sum to {weights.sum()}, expected 1")
    pooled = np.zeros(shape, dtype=np.float64)
    for w, m in zip(weights, members):
        pooled += w * m.probs
    return DensityGrid(pooled, spec)


def ensemble_spread(ens: EnsembleSet, grid: GridSpec):
    """Per-gridpoint standard deviation of member expectations, plus a scalar.

    The scalar aggregates the squared spread with the same latitude-weighted
    spatial/temporal averaging the RMSE uses, then takes the square root, so
    spread and RMSE are directly comparable.
    """
    return spread_from_expectations(ens.member_expectations(), grid)


def spread_from_expectations(exps: np.ndarray, grid: GridSpec):
    """ensemble_spread of member expectations exps, shape (n_members, N, H, W)."""
    n = len(exps)
    if n < 2:
        raise ValueError("spread needs at least 2 members")
    # population variance (ddof 0) with np.var's two sums, bit for bit, but
    # one member at a time instead of through an (n, N, H, W) deviation array
    mean = exps.sum(axis=0) / n
    var = np.zeros_like(mean)                   # (N, H, W)
    for e in exps:
        d = e - mean
        d *= d
        var += d
    var /= n
    spread_field = np.sqrt(var)
    w = latitude_weights(grid)
    if var.shape[-2] != w.size:
        raise ValueError("spread grid does not match the latitude axis")
    scalar = float(np.sqrt(np.mean(var * w[:, None], dtype=np.float64)))
    return spread_field, scalar
