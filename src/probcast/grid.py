"""Lat-lon grid geometry, datasets, chronological splits and simple baselines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Level markers for variables that live off the pressure-level ladder.
SURFACE = "surface"
CONSTANT = "constant"

@dataclass(frozen=True)
class GridSpec:
    """Regular latitude-longitude grid.

    Latitudes and longitudes are in degrees, strictly monotonic; the
    longitude span must stay below a full circle so wrap-around stays
    unambiguous.
    """

    latitudes_deg: np.ndarray
    longitudes_deg: np.ndarray

    def __post_init__(self):
        lat = np.asarray(self.latitudes_deg, dtype=np.float64)
        lon = np.asarray(self.longitudes_deg, dtype=np.float64)
        object.__setattr__(self, "latitudes_deg", lat)
        object.__setattr__(self, "longitudes_deg", lon)
        if lat.ndim != 1 or lat.size < 1 or lon.ndim != 1 or lon.size < 1:
            raise ValueError("grid needs at least one latitude and one longitude")
        if np.any(np.abs(lat) > 90.0):
            raise ValueError("latitudes must lie in [-90, 90]")
        for name, deg in (("latitudes", lat), ("longitudes", lon)):
            step = np.diff(deg)
            if deg.size > 1 and not (np.all(step > 0) or np.all(step < 0)):
                raise ValueError(f"{name} must be strictly monotonic")
        if lon.size > 1 and abs(lon[-1] - lon[0]) >= 360.0:
            raise ValueError("longitude span must be below 360 degrees")

    @property
    def n_lat(self) -> int:
        return self.latitudes_deg.size

    @property
    def n_lon(self) -> int:
        return self.longitudes_deg.size

    @property
    def shape(self) -> tuple:
        return (self.n_lat, self.n_lon)

    @classmethod
    def regular(cls, n_lat: int, n_lon: int) -> "GridSpec":
        """Cell-centered global grid (no points at the poles)."""
        if n_lat < 1 or n_lon < 1:
            raise ValueError("grid must have positive size")
        lats = -90.0 + (np.arange(n_lat) + 0.5) * 180.0 / n_lat
        lons = np.arange(n_lon) * 360.0 / n_lon
        return cls(lats, lons)


def latitude_weights(grid: GridSpec) -> np.ndarray:
    """Cosine-of-latitude area weights, normalized to mean 1 over the grid."""
    cos = np.cos(np.deg2rad(grid.latitudes_deg))
    mean = cos.mean()
    if mean <= 1e-12:
        raise ValueError("degenerate grid: mean cosine of latitude is zero")
    return cos / mean


@dataclass
class Field:
    """One 2-D snapshot of a single variable on a grid."""

    variable: str
    level: object  # hPa int, SURFACE, or CONSTANT
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError("field values must be 2-D (n_lat, n_lon)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"field {self.variable}/{self.level} has non-finite values")


class Dataset:
    """Time-indexed multi-variable gridded data.

    data is stored float32 with axis order [time, variable, lat, lon];
    timestamps are hours since epoch with a uniform step.
    """

    def __init__(self, grid: GridSpec, variables: list, data: np.ndarray,
                 epoch_hours_start: int, step_hours: int):
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 4:
            raise ValueError("data must be [time, variable, lat, lon]")
        n_time, n_var, n_lat, n_lon = data.shape
        if (n_lat, n_lon) != grid.shape:
            raise ValueError("data spatial shape does not match grid")
        if n_var != len(variables):
            raise ValueError("variable list does not match data")
        if step_hours <= 0:
            raise ValueError("step_hours must be positive")
        # min and max propagate NaN and reach any infinity, and unlike an
        # isfinite mask they allocate nothing the size of the data.
        if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
            bad = np.argwhere(~np.isfinite(data))[0]
            raise ValueError(f"non-finite value at [time={bad[0]} var={bad[1]} "
                             f"lat={bad[2]} lon={bad[3]}]")
        self.grid = grid
        self.variables = [(str(n), l) for n, l in variables]
        self.data = data
        self.epoch_hours_start = int(epoch_hours_start)
        self.step_hours = int(step_hours)

    @property
    def n_time(self) -> int:
        return self.data.shape[0]

    def var_index(self, variable: str, level) -> int:
        key = (str(variable), level)
        try:
            return self.variables.index(key)
        except ValueError:
            raise KeyError(f"variable {key} not in dataset: {self.variables}") from None

    def values(self, variable: str, level) -> np.ndarray:
        """All timesteps of one variable, shape (n_time, n_lat, n_lon)."""
        return self.data[:, self.var_index(variable, level)]


SPLIT_NAMES = ("train", "neural_validation", "stacked_validation", "test")
DEFAULT_SPLIT = (0.6, 0.1, 0.15, 0.15)  # fractions of the time axis, in SPLIT_NAMES order


@dataclass(frozen=True)
class SplitPlan:
    """Chronological half-open index ranges into a dataset's time axis."""

    train: tuple
    neural_validation: tuple
    stacked_validation: tuple
    test: tuple

    def __post_init__(self):
        ranges = [self.train, self.neural_validation, self.stacked_validation, self.test]
        prev_end = 0
        for name, (a, b) in zip(SPLIT_NAMES, ranges):
            if not (0 <= a <= b):
                raise ValueError(f"split {name} has invalid range ({a}, {b})")
            if a < prev_end:
                raise ValueError("splits must be disjoint and chronological")
            prev_end = b

    def range(self, name: str) -> tuple:
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown split {name!r}") from None

    @classmethod
    def from_fractions(cls, n_time: int, *fractions: float) -> "SplitPlan":
        """Ranges from fractions in SPLIT_NAMES order; DEFAULT_SPLIT when none are given."""
        train, neural_validation, stacked_validation, test = fractions or DEFAULT_SPLIT
        total = train + neural_validation + stacked_validation + test
        if total > 1.0 + 1e-9:
            raise ValueError("split fractions exceed 1")
        a = int(round(n_time * train))
        b = a + int(round(n_time * neural_validation))
        c = b + int(round(n_time * stacked_validation))
        d = min(n_time, c + int(round(n_time * test)))
        return cls((0, a), (a, b), (b, c), (c, d))


def climatology(ds: Dataset, variable: str, level, split: tuple) -> Field:
    """Per-gridpoint temporal mean over a split; the constant-forecast baseline."""
    a, b = split
    if b <= a:
        raise ValueError("climatology over an empty split")
    mean = ds.values(variable, level)[a:b].mean(axis=0, dtype=np.float64)
    return Field(variable, level, mean)


def lead_steps(ds: Dataset, lead_hours: int) -> int:
    """The lead in dataset steps; it must be a non-negative multiple of the step."""
    if lead_hours < 0 or lead_hours % ds.step_hours != 0:
        raise ValueError(f"lead {lead_hours} h is not a non-negative multiple of the "
                         f"{ds.step_hours} h step")
    return lead_hours // ds.step_hours


def persistence_forecast(ds: Dataset, variable: str, level, lead_hours: int,
                         split: tuple | None = None):
    """Forecast that the field at t+lead equals the field at t.

    Returns (pred, truth) arrays of shape (n_valid, n_lat, n_lon); when a
    split is given, both issue and valid times stay inside it.
    """
    steps = lead_steps(ds, lead_hours)
    a, b = split if split is not None else (0, ds.n_time)
    if steps >= b - a and steps > 0:
        raise ValueError("lead exceeds the available time span")
    vals = ds.values(variable, level)
    return vals[a:b - steps], vals[a + steps:b]
