"""Dropout-at-inference ensembles: member generation, pooling, spread."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import DensityGrid, expectation
from .grid import GridSpec, latitude_weights
from .resnet import CATEGORICAL, ResNet


@dataclass
class EnsembleSet:
    """Stochastic forward passes of one trained model over the same samples."""

    members: list            # DensityGrid per member, probs (N, H, W, n_bins)
    member_seeds: list       # integer seed per member

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("an ensemble needs at least one member")
        spec = self.members[0].spec
        shape = self.members[0].probs.shape
        for m in self.members[1:]:
            if m.spec != spec or m.probs.shape != shape:
                raise ValueError("ensemble members disagree on bin spec or grid")

    @property
    def n_members(self) -> int:
        return len(self.members)

    def member_expectations(self) -> np.ndarray:
        """Expected-value fields per member, shape (n_members, N, H, W)."""
        return np.stack([expectation(m) for m in self.members])


def generate_ensemble(model: ResNet, x_raw: np.ndarray, n_members: int = 32,
                      master_seed: int = 0) -> EnsembleSet:
    """n stochastic passes with independent per-member streams from one seed."""
    if model.cfg.mode != CATEGORICAL:
        raise ValueError("dropout ensembles require a categorical model")
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
    if len(members) < 1:
        raise ValueError("nothing to pool")
    spec = members[0].spec
    shape = members[0].probs.shape
    for m in members[1:]:
        if m.spec != spec or m.probs.shape != shape:
            raise ValueError("pooled members disagree on bin spec or grid")
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


def ensemble_spread(ens: EnsembleSet, grid: GridSpec, population: bool = True):
    """Per-gridpoint standard deviation of member expectations, plus a scalar.

    The scalar aggregates the squared spread with the same latitude-weighted
    spatial/temporal averaging the RMSE uses, then takes the square root, so
    spread and RMSE are directly comparable.
    """
    if ens.n_members < 2:
        raise ValueError("spread needs at least 2 members")
    exps = ens.member_expectations()            # (n, N, H, W)
    ddof = 0 if population else 1
    var = exps.var(axis=0, ddof=ddof)           # (N, H, W)
    spread_field = np.sqrt(var)
    w = latitude_weights(grid)
    if var.shape[-2] != w.size:
        raise ValueError("spread grid does not match the latitude axis")
    scalar = float(np.sqrt(np.mean(var * w[:, None], dtype=np.float64)))
    return spread_field, scalar


def spread_skill_ratio(spread: float, rmse: float) -> float:
    """Spread over RMSE; 1 indicates a well-dispersed ensemble."""
    if rmse <= 0:
        raise ValueError("rmse must be positive to form the ratio")
    return float(spread) / float(rmse)
