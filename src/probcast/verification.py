"""Forecast verification: weighted errors, CRPS, coverage, top-k, CDF maps.

Conventions fixed here and relied on by the tests:
  - Every density score takes its probabilities from DensityGrid.validate,
    so a density with entries outside [0, 1] or mass off 1 is refused, once
    per score; assemble_report validates once and takes one mu = p @ x.
  - Density-sized temporaries are made in binning.by_rows, one row chunk at a
    time; every row keeps its own arithmetic, so no score depends on it.
  - RMSE and MSE weight each gridpoint by normalized cos(latitude).
  - The forecast CDF behind the CRPS is a step function with the bin mass
    placed at the bin's representative (lower-bound) value, matching how
    expectations are taken. cdf_threshold, by contrast, spreads mass
    uniformly inside each bin because threshold maps are read between
    representatives.
  - Mean CRPS is an unweighted average over gridpoints and times.
  - Per-point confidence intervals use Z sigma/sqrt(N) with N equal to the
    number of bins, and Z = 1.960 / 2.576. That narrows with bin count
    irrespective of the data; it is implemented verbatim, not reinterpreted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .binning import BinSpec, DensityGrid, by_rows, discretize, stddev_about
from .gfb import json_text
from .grid import GridSpec, latitude_weights

Z_95 = 1.960
Z_99 = 2.576


# --- weighted error metrics ---------------------------------------------------------


def _weighted_sq_errors(pred, truth, grid: GridSpec) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.ndim == 2:
        pred, truth = pred[None], truth[None]
    if pred.ndim != 3 or pred.shape[1:] != grid.shape:
        raise ValueError(f"fields must be (time, {grid.n_lat}, {grid.n_lon})")
    w = latitude_weights(grid)
    return w[None, :, None] * (pred - truth) ** 2


def weighted_rmse(pred, truth, grid: GridSpec) -> float:
    """Latitude-weighted root mean square error over times and gridpoints."""
    sq = _weighted_sq_errors(pred, truth, grid)
    return float(np.sqrt(sq.mean(axis=(1, 2)).mean()))


def weighted_mse_ci(pred, truth, grid: GridSpec):
    """Weighted MSE with its 95% interval from the variance of the point terms.

    Returns (mse, lo, hi). The interval is mse +/- 1.96 sqrt(Var/N) with the
    population variance over all N = time*lat*lon weighted squared errors.
    """
    sq = _weighted_sq_errors(pred, truth, grid).reshape(-1)
    n = sq.size
    if n < 2:
        raise ValueError("confidence interval needs at least 2 points")
    mse = float(sq.mean())
    half = Z_95 * float(np.sqrt(sq.var(ddof=0) / n))
    return mse, mse - half, mse + half


# --- CRPS ---------------------------------------------------------------------------


def _observations(p: np.ndarray, obs) -> np.ndarray:
    """obs as f64, once it holds one finite value per point of density p."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != p.shape[:-1]:
        raise ValueError(f"observation shape {obs.shape} does not match "
                         f"density {p.shape[:-1]}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    return obs


def crps(d: DensityGrid, obs) -> np.ndarray:
    """Closed-form CRPS per gridpoint for step-function forecast CDFs.

    The integrand is piecewise constant between consecutive bin
    representatives and the observation, so the defining integral reduces to
    an exact finite sum; observations outside the bin support contribute
    their full tail segments.
    """
    p = d.validate()
    return by_rows(lambda p, y: _crps_rows(p, y, d.spec), p, _observations(p, obs))


def _crps_rows(p: np.ndarray, y: np.ndarray, spec: BinSpec) -> np.ndarray:
    """crps of (rows, n) densities against (rows,) observations.

    It holds the CDF C and two (rows, n - 1) arrays, written in place in the
    order of F**2 * below + (F - 1)**2 * (width - below); they go on return.
    """
    x, width = spec.representatives, spec.width
    C = np.cumsum(p, axis=1)
    hi_tail = C[:, -1] ** 2 * np.maximum(y - x[-1], 0.0)
    lo_tail = np.maximum(x[0] - y, 0.0)               # F=0, obs below support
    F = C[:, :-1]
    below = np.subtract.outer(y, x[:-1])
    np.clip(below, 0.0, width, out=below)
    seg = np.square(F)
    seg *= below
    np.subtract(F, 1.0, out=F)
    np.square(F, out=F)
    np.subtract(width, below, out=below)
    F *= below
    seg += F
    return seg.sum(axis=1) + lo_tail + hi_tail


def mean_crps(d: DensityGrid, obs) -> float:
    """Unweighted average CRPS over all gridpoints and times."""
    return float(crps(d, obs).mean())


# --- distribution diagnostics -------------------------------------------------------


def coverage_stats(d: DensityGrid, truth) -> dict:
    """Percentage of points whose truth falls inside four per-point intervals.

    ci95/ci99 use mu +/- Z sigma/sqrt(n_bins); sigma1/sigma2 use mu +/- k sigma.
    A point with sigma = 0 counts as covered only when truth equals mu.
    """
    p = d.validate()
    x = d.spec.representatives
    return _coverage(_observations(p, truth), p, p @ x, x)


def _coverage(truth: np.ndarray, p: np.ndarray, mu: np.ndarray, x: np.ndarray) -> dict:
    sigma = stddev_about(p, mu, x)
    dev = np.abs(truth - mu)
    root_n = np.sqrt(x.size)
    out = {}
    for name, width in (("ci95", Z_95 * sigma / root_n),
                        ("ci99", Z_99 * sigma / root_n),
                        ("sigma1", sigma),
                        ("sigma2", 2.0 * sigma)):
        out[name] = float(100.0 * np.mean(dev <= width))
    return out


def topk_match(d: DensityGrid, true_bins, k: int) -> float:
    """Percentage of points whose true bin is among the k most probable bins.

    Ties prefer the lower bin index (stable sort on descending probability).
    true_bins must hold an integer bin index in [0, n_bins) for every point.
    """
    n_bins = d.spec.n_bins
    if not 1 <= k <= n_bins:
        raise ValueError(f"k must be in [1, {n_bins}]")
    p = d.validate()
    true_bins = np.asarray(true_bins)
    if true_bins.shape != p.shape[:-1]:
        raise ValueError(f"true bins shape {true_bins.shape} does not match "
                         f"density {p.shape[:-1]}")
    if not np.issubdtype(true_bins.dtype, np.integer):
        raise ValueError(f"true bins must be integer indices, got {true_bins.dtype}")
    if not (true_bins.min() >= 0 and true_bins.max() < n_bins):
        raise ValueError(f"true bins must lie in [0, {n_bins})")
    return _topk(by_rows(_true_bin_ranks, p, true_bins), k)


def _topk(ranks: np.ndarray, k: int) -> float:
    return float(100.0 * (np.count_nonzero(ranks < k) / ranks.size))


def _true_bin_ranks(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Position of each row's bin t in a stable descending sort of the (rows, n)
    row: the bins more probable than t plus the lower-index bins tied with it.
    The true bin is in the top k exactly when this is below k, for every k."""
    pt = np.take_along_axis(p, t[:, None], axis=1)
    lower = np.arange(p.shape[1]) < t[:, None]
    return np.count_nonzero((p > pt) | ((p == pt) & lower), axis=1)


@dataclass
class ThresholdMap:
    """P(X < threshold) per gridpoint, with mass uniform inside each bin."""

    threshold: float
    probabilities: np.ndarray


def cdf_threshold(d: DensityGrid, threshold: float) -> ThresholdMap:
    """Probability of the variable falling strictly below the threshold."""
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    spec = d.spec
    p = d.validate()
    pos = (threshold - spec.v_min) / spec.width
    if pos <= 0:
        return ThresholdMap(threshold, np.zeros(p.shape[:-1]))
    if pos >= spec.n_bins:
        return ThresholdMap(threshold, p.sum(axis=-1))
    j = int(np.floor(pos))
    frac = pos - j
    full = p[..., :j].sum(axis=-1)
    return ThresholdMap(threshold, full + frac * p[..., j])


# --- report assembly ----------------------------------------------------------------

# Reference values from the full-scale reanalysis benchmark that this
# pipeline mirrors at desk scale. They require the 40-year archive and
# multi-GPU training, so reports print them as labeled constants, never as
# reproduction targets. RMSE in m^2 s^-2 for z500, K for t850; each entry is
# (3-day, 5-day).
REFERENCE_RMSE = {
    "stacked network": {"z500": (375.0, 627.0), "t850": (2.11, 2.91)},
    "persistence": {"z500": (936.0, 1033.0), "t850": (4.23, 4.56)},
    "climatology": {"z500": (1075.0, 1075.0), "t850": (5.51, 5.51)},
    "IFS T42": {"z500": (489.0, 743.0), "t850": (3.09, 3.83)},
    "U-Net benchmark": {"z500": (373.0, 611.0), "t850": (1.98, 2.87)},
    "pretrained deep ResNet benchmark": {"z500": (268.0, 499.0), "t850": (1.65, 2.41)},
    "operational IFS": {"z500": (154.0, 334.0), "t850": (1.36, 2.03)},
}
REFERENCE_CRPS = {
    "stacked network": {"z500": (211.0, 1500.0), "t850": (1.22, 1.69)},
}
# Coverage percentages at full scale: {case: (ci95, ci99, sigma1, sigma2)}.
REFERENCE_COVERAGE = {
    "z500 3-day": (13.8, 16.3, 64.7, 93.6),
    "t850 3-day": (17.2, 20.3, 71.2, 94.0),
    "z500 5-day": (14.7, 17.4, 67.3, 94.0),
    "t850 5-day": (17.3, 20.5, 71.2, 94.2),
}
# Binning constants at full scale: published range, rounded width, and the
# flooring RMSE they imply.
REFERENCE_BINNING = {
    "z500": {"v_min": 42500.0, "v_max": 59300.0, "published_width": 169.0,
             "inbuilt_rmse": 91.2},
    "t850": {"v_min": 213.0, "v_max": 314.0, "published_width": 1.02,
             "inbuilt_rmse": 0.992},
}

REFERENCE_LABEL = "reference (not reproduced)"


@dataclass
class ScoreReport:
    """All verification metrics for one forecast run."""

    variable: str
    level: object
    lead_hours: int
    n_samples: int
    split: str
    weighted_rmse: float
    weighted_mse: float
    mse_ci_lo: float
    mse_ci_hi: float
    mean_crps: float
    coverage: dict
    topk: dict
    spread: float | None = None
    spread_skill: float | None = None

    def __post_init__(self):
        if not (self.mse_ci_lo <= self.weighted_mse <= self.mse_ci_hi):
            raise ValueError("MSE interval must bracket the MSE")
        for v in list(self.coverage.values()) + list(self.topk.values()):
            if not 0.0 <= v <= 100.0:
                raise ValueError("percentages must lie in [0, 100]")

    def to_json(self) -> str:
        d = asdict(self)
        d["mse_ci"] = [d.pop("mse_ci_lo"), d.pop("mse_ci_hi")]
        d["topk"] = {str(k): v for k, v in self.topk.items()}
        return json_text(d)


def assemble_report(d: DensityGrid, truth, grid: GridSpec, *, variable: str,
                    level, lead_hours: int, split: str,
                    spread: float | None = None) -> ScoreReport:
    """The full metric suite for densities against truth, from one validation."""
    p = d.validate()
    truth = _observations(p, truth)
    x = d.spec.representatives
    mu = p @ x
    rmse = weighted_rmse(mu, truth, grid)
    mse, lo, hi = weighted_mse_ci(mu, truth, grid)
    ranks = by_rows(_true_bin_ranks, p, discretize(truth, d.spec).bins)
    return ScoreReport(
        variable=variable, level=level, lead_hours=lead_hours,
        n_samples=int(truth.shape[0] if truth.ndim == 3 else 1), split=split,
        weighted_rmse=rmse, weighted_mse=mse, mse_ci_lo=lo, mse_ci_hi=hi,
        mean_crps=float(by_rows(lambda p, y: _crps_rows(p, y, d.spec), p, truth).mean()),
        coverage=_coverage(truth, p, mu, x),
        topk={k: _topk(ranks, k) for k in range(1, 6)},
        spread=spread,
        spread_skill=(None if spread is None or rmse <= 0
                      else spread / rmse),
    )


def render_report_table(report: ScoreReport, include_reference: bool = True) -> str:
    """Aligned text table of run metrics, with labeled reference constants."""
    rows = [
        ("weighted RMSE", f"{report.weighted_rmse:.6g}"),
        ("weighted MSE", f"{report.weighted_mse:.6g}"),
        ("MSE 95% CI", f"[{report.mse_ci_lo:.6g}, {report.mse_ci_hi:.6g}]"),
        ("mean CRPS", f"{report.mean_crps:.6g}"),
    ]
    if report.spread is not None:
        rows.append(("ensemble spread", f"{report.spread:.6g}"))
        rows.append(("spread/skill", "n/a" if report.spread_skill is None
                      else f"{report.spread_skill:.4f}"))
    for name in ("ci95", "ci99", "sigma1", "sigma2"):
        rows.append((f"coverage {name}", f"{report.coverage[name]:.2f}%"))
    for k in sorted(report.topk):
        rows.append((f"top-{k} match", f"{report.topk[k]:.2f}%"))

    head = (f"run: {report.variable}/{report.level} lead {report.lead_hours} h, "
            f"{report.n_samples} samples on split {report.split!r}")
    width = max(len(r[0]) for r in rows)
    lines = [head, "-" * len(head)]
    lines += [f"{name:<{width}}  {val}" for name, val in rows]

    if include_reference:
        lines.append("")
        lines.append(f"full-scale {REFERENCE_LABEL}, RMSE z500 / t850 (3-day/5-day):")
        for name, vals in REFERENCE_RMSE.items():
            z = vals["z500"]
            t = vals["t850"]
            lines.append(f"  {name:<34} {z[0]:g}/{z[1]:g} m2 s-2   "
                         f"{t[0]:g}/{t[1]:g} K")
        lines.append(f"full-scale {REFERENCE_LABEL}, CRPS:")
        for name, vals in REFERENCE_CRPS.items():
            z = vals["z500"]
            t = vals["t850"]
            lines.append(f"  {name:<34} {z[0]:g}/{z[1]:g} m2 s-2   "
                         f"{t[0]:g}/{t[1]:g} K")
    return "\n".join(lines) + "\n"
