"""Equal-width binning of continuous fields and categorical density moments."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .grid import Dataset

logger = logging.getLogger(__name__)

# Every scoring path rejects a density whose entries leave [0, 1] or whose
# per-point mass is off 1 by more than this.
NORMALIZATION_TOL = 1e-4

# Scoring works on density-sized data in row chunks of this many elements:
# 2 MB per f64 (rows, n_bins) temporary.
CHUNK_ELEMS = 2 ** 18


def row_chunks(n_rows: int, n_bins: int):
    """Slices covering range(n_rows) in order, each of at most
    CHUNK_ELEMS // n_bins rows (at least one)."""
    rows = max(1, CHUNK_ELEMS // n_bins)
    for i in range(0, n_rows, rows):
        yield slice(i, i + rows)


def by_rows(fn, p: np.ndarray, *points) -> np.ndarray:
    """fn(p_rows, *point_rows) over row_chunks of (..., n_bins) p and of point
    arrays shaped p.shape[:-1], written into one f64 array of that shape:
    scoring's one chunk loop, whose density-sized temporaries live in fn."""
    flat_p = p.reshape(-1, p.shape[-1])
    flat = [a.reshape(-1) for a in points]
    out = np.empty(len(flat_p))
    for rows in row_chunks(*flat_p.shape):
        out[rows] = fn(flat_p[rows], *(a[rows] for a in flat))
    return out.reshape(p.shape[:-1])


@dataclass(frozen=True)
class BinSpec:
    """Equal-width discretization of one variable's value range.

    The representative value of bin i is its lower bound v_min + i*width;
    expectations computed from densities use these representatives.
    """

    v_min: float
    v_max: float
    n_bins: int = 100

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("need at least 2 bins")
        if not (np.isfinite(self.v_min) and np.isfinite(self.v_max)):
            raise ValueError("bin range must be finite")
        if self.v_max <= self.v_min:
            raise ValueError(f"degenerate bin range [{self.v_min}, {self.v_max}]")

    @property
    def width(self) -> float:
        return (self.v_max - self.v_min) / self.n_bins

    def lower_bound(self, i) -> np.ndarray:
        return self.v_min + np.asarray(i) * self.width

    @property
    def representatives(self) -> np.ndarray:
        """Lower bound of every bin, shape (n_bins,)."""
        return self.v_min + np.arange(self.n_bins) * self.width


@dataclass
class CategoricalField:
    """Bin indices on a grid (optionally with leading sample/time axes)."""

    bins: np.ndarray
    spec: BinSpec

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        if self.bins.min(initial=0) < 0 or self.bins.max(initial=0) >= self.spec.n_bins:
            raise ValueError("bin index out of range")


@dataclass
class DensityGrid:
    """Per-gridpoint probability vectors; bins on the last axis."""

    probs: np.ndarray
    spec: BinSpec

    def __post_init__(self):
        self.probs = np.asarray(self.probs)
        if self.probs.shape[-1] != self.spec.n_bins:
            raise ValueError("density bin axis does not match spec")

    def validate(self) -> np.ndarray:
        """The f64 probabilities, once every entry lies in [-tol, 1 + tol] and every
        mass within tol = NORMALIZATION_TOL of 1; scoring's one check, once per call."""
        tol = NORMALIZATION_TOL
        p = self.probs.astype(np.float64, copy=False)
        # written so that NaN, which fails every comparison, is rejected
        if not (p.min() >= -tol and p.max() <= 1 + tol):
            raise ValueError("density entries outside [0, 1]")
        # a matvec sums the short bin axis several times faster than sum(axis=-1)
        worst = np.abs(p @ np.ones(p.shape[-1]) - 1.0).max()
        if not worst <= tol:
            raise ValueError(f"density not normalized: mass off by {worst:.3e}")
        return p


def fit_bins(ds: Dataset, variable: str, level, split: tuple, n_bins: int = 100) -> BinSpec:
    """Equal-width bins spanning the min/max of the given (training) split."""
    a, b = split
    if b <= a:
        raise ValueError("cannot fit bins on an empty split")
    vals = ds.values(variable, level)[a:b]
    v_min = float(vals.min())
    v_max = float(vals.max())
    if v_max <= v_min:
        raise ValueError(f"constant field {variable}/{level}: cannot fit bins")
    return BinSpec(v_min, v_max, n_bins)


def discretize(values: np.ndarray, spec: BinSpec) -> CategoricalField:
    """Map values to bin indices; out-of-range values clamp to the end bins."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot discretize non-finite values")
    v = values.astype(np.float64)
    raw = np.floor((v - spec.v_min) / spec.width).astype(np.int64)
    # the division can land one bin off at edges; snap so that
    # lower_bound(bin) <= v < lower_bound(bin + 1) holds exactly
    raw += v >= spec.lower_bound(raw + 1)
    raw -= v < spec.lower_bound(raw)
    clamped = np.clip(raw, 0, spec.n_bins - 1)
    n_clamped = int(np.count_nonzero(raw != clamped))
    if n_clamped:
        logger.debug("discretize clamped %d of %d values to end bins",
                     n_clamped, values.size)
    return CategoricalField(clamped, spec)


def expectation(d: DensityGrid) -> np.ndarray:
    """Per-gridpoint expected value under the density, using bin lower bounds."""
    p = d.validate()
    return p @ d.spec.representatives


def density_stddev(d: DensityGrid) -> np.ndarray:
    """Per-gridpoint standard deviation of the density around its expectation.

    Two-pass form: one-pass E[x^2]-mu^2 cancels badly when values dwarf the
    spread (geopotential magnitudes vs per-point sigma).
    """
    p = d.validate()
    x = d.spec.representatives
    return stddev_about(p, p @ x, x)


def stddev_about(p: np.ndarray, mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """density_stddev of validated p over representatives x, around mu = p @ x."""
    var = by_rows(lambda p, mu: _variance_rows(p, mu, x), p, mu)
    return np.sqrt(np.maximum(var, 0.0))


def _variance_rows(p: np.ndarray, mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum((x - mu)**2 * p) over bins for (rows, n) densities and (rows,) means,
    through one (rows, n) temporary that goes on return."""
    dev2 = x - mu[:, None]
    np.square(dev2, out=dev2)
    dev2 *= p
    return dev2.sum(axis=-1)


def inbuilt_rmse(ds: Dataset, variable: str, level, spec: BinSpec, split: tuple) -> float:
    """Latitude-weighted RMSE of replacing values by their bin representative.

    This is the floor that pure flooring to categories would impose; the
    expectation operator exists to recover most of it.
    """
    from .verification import weighted_rmse  # local import avoids a module cycle

    a, b = split
    if b <= a:
        raise ValueError("empty split")
    truth = ds.values(variable, level)[a:b].astype(np.float64)
    floored = spec.lower_bound(discretize(truth, spec).bins)
    return weighted_rmse(floored, truth, ds.grid)
