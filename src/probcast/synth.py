"""Synthetic toy atmosphere: a desk-scale stand-in for reanalysis archives.

Fields are superpositions of zonally advected smooth wave modes, a seasonal
cycle, and slowly varying tanh-bounded red noise. Pressure levels of one
variable share the same modes with level-dependent scale and phase shift,
and the temperature analog is coupled to the geopotential analog, so that
level- and variable-importance experiments have real signal to find.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CONSTANT, SURFACE, Dataset, GridSpec


# The variable layout stands in for the WeatherBench/ERA5 set: geopotential
# at three levels, temperature at two, top-of-atmosphere solar radiation and
# three constant fields. Every temperature level is also a geopotential level.
Z_LEVELS = (200, 500, 850)
T_LEVELS = (500, 850)
CONSTANT_FIELDS = ("orography", "land_sea", "latitude")
VARIABLES = (tuple(("z", lv) for lv in Z_LEVELS) + tuple(("t", lv) for lv in T_LEVELS)
             + (("solar", SURFACE),) + tuple((name, CONSTANT) for name in CONSTANT_FIELDS))
EPOCH_HOURS_START = 0
# Eastward drift of the wave modes, in longitude cells per step.
ADVECT_CELLS_PER_STEP = 0.4
SEASON_PERIOD_STEPS = 1460
NOISE_FRACTION = 0.12
N_MODES = 4
N_NOISE_PATTERNS = 6
NOISE_RHO = 0.97


@dataclass
class SynthConfig:
    n_lat: int = 32
    n_lon: int = 64
    n_steps: int = 2000
    step_hours: int = 6
    # Overall scale of everything time-varying; 0 freezes the atmosphere.
    amplitude: float = 1.0


def _smooth_patterns(rng, n_patterns, lam, phi):
    """Random low-wavenumber spatial patterns with unit RMS."""
    pats = []
    for _ in range(n_patterns):
        f = np.zeros((phi.size, lam.size))
        for _ in range(4):
            kz = rng.integers(1, 5)
            km = rng.integers(1, 4)
            ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
            amp = rng.uniform(0.4, 1.0)
            f += amp * np.cos(km * phi[:, None] + ph1) * np.cos(kz * lam[None, :] + ph2)
        f *= np.cos(phi)[:, None] * 0.5 + 0.75  # damp toward the poles
        f /= np.sqrt((f ** 2).mean())
        pats.append(f)
    return np.stack(pats)


def synth_generate(cfg: SynthConfig, seed: int) -> Dataset:
    """Generate a deterministic multi-variable dataset from a seed."""
    if cfg.n_lat < 1 or cfg.n_lon < 1 or cfg.n_steps < 1:
        raise ValueError("grid and step count must be positive")
    grid = GridSpec.regular(cfg.n_lat, cfg.n_lon)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    phi = np.deg2rad(grid.latitudes_deg)
    lam = np.deg2rad(grid.longitudes_deg)
    t_idx = np.arange(cfg.n_steps, dtype=np.float64)

    # Wave modes shared by every variable/level: zonal wavenumber m, a
    # bounded meridional structure, and a common eastward phase speed.
    wavenums = 1 + np.arange(N_MODES)
    mode_phase0 = rng.uniform(0, 2 * np.pi, size=N_MODES)
    mode_merid_phase = rng.uniform(0, 2 * np.pi, size=N_MODES)
    mode_amp = 1.0 / np.sqrt(wavenums)  # larger scales carry more energy
    omega = wavenums * ADVECT_CELLS_PER_STEP * 2 * np.pi / cfg.n_lon  # rad/step

    def mode_sum(level_phase):
        # (time, lat, lon) superposition of the advected modes
        out = np.zeros((cfg.n_steps, cfg.n_lat, cfg.n_lon))
        for m in range(N_MODES):
            merid = np.cos(phi) * np.cos(wavenums[m] * phi + mode_merid_phase[m])
            phase = (wavenums[m] * lam[None, None, :]
                     - omega[m] * t_idx[:, None, None]
                     - mode_phase0[m] - level_phase)
            out += mode_amp[m] * merid[None, :, None] * np.cos(phase)
        return out

    season = np.sin(2 * np.pi * t_idx / SEASON_PERIOD_STEPS)
    merid_season = np.sin(phi)

    noise_pats = _smooth_patterns(rng, N_NOISE_PATTERNS, lam, phi)

    def red_noise():
        # AR(1) coefficients over fixed smooth patterns, tanh-bounded.
        state = rng.standard_normal(N_NOISE_PATTERNS)
        innov = rng.standard_normal((cfg.n_steps, N_NOISE_PATTERNS))
        coef = np.empty((cfg.n_steps, N_NOISE_PATTERNS))
        for t in range(cfg.n_steps):
            state = NOISE_RHO * state + np.sqrt(1 - NOISE_RHO ** 2) * innov[t]
            coef[t] = state
        # One expression, so numpy reuses the temporaries in place.
        return 2.0 * np.tanh(np.tensordot(coef, noise_pats, axes=(1, 0)) / 2.0)

    amp = cfg.amplitude
    # Each f64 field is rounded into its f32 channel as soon as it exists, so
    # set-up holds one copy of the dataset plus a few fields.
    data = np.empty((cfg.n_steps, len(VARIABLES), cfg.n_lat, cfg.n_lon), np.float32)
    channels = iter(range(len(VARIABLES)))

    # Geopotential analog: one base dynamics field reused across levels with
    # level-dependent strength and a westward phase tilt with height. Only
    # the levels a temperature level couples to keep their anomaly.
    z_anom = {}
    for level in Z_LEVELS:
        height_factor = 1.0 + (1000.0 - level) / 800.0
        level_phase = 0.4 * np.log(1000.0 / level)
        base = 900.0 * height_factor * mode_sum(level_phase)
        seas = 350.0 * height_factor * season[:, None, None] * merid_season[None, :, None]
        noise = NOISE_FRACTION * 900.0 * height_factor * red_noise()
        mean0 = 48000.0 + 18.0 * (1000.0 - level)
        zonal = -2500.0 * (np.sin(phi) ** 2)[None, :, None]
        f = mean0 + zonal + amp * (base + seas + noise)
        del base, noise
        data[:, next(channels)] = f
        if level in T_LEVELS:
            f -= f.mean(axis=0, keepdims=True)
            z_anom[level] = f

    # Temperature analog: coupled to the geopotential anomaly at its level
    # (shifted one cell east) plus its own seasonal cycle and noise.
    # The shifted anomaly stays inside the expression as a temporary.
    for level in T_LEVELS:
        mean0 = 288.0 - 0.055 * (1000.0 - level)
        lapse = -28.0 * (np.sin(phi) ** 2)[None, :, None]
        seas = 9.0 * season[:, None, None] * merid_season[None, :, None]
        noise = 1.2 * red_noise()
        data[:, next(channels)] = mean0 + lapse + amp * (
            0.004 * np.roll(z_anom[level], 1, axis=2) + seas + noise)
        del noise
    del z_anom

    hour_angle = 2 * np.pi * t_idx * cfg.step_hours / 24.0
    cosz = (np.cos(phi)[None, :, None]
            * np.cos(lam[None, None, :] - hour_angle[:, None, None]))
    diurnal = np.maximum(0.0, cosz)
    seas = 1.0 + 0.25 * season[:, None, None] * merid_season[None, :, None]
    data[:, next(channels)] = 1361.0 * (0.1 + 0.9 * amp * diurnal * np.clip(seas, 0.0, 2.0))

    oro_raw = _smooth_patterns(rng, 1, lam, phi)[0]
    orography = 1500.0 * (1.0 + np.tanh(oro_raw))
    land_sea = (orography > np.median(orography)).astype(np.float64)
    for f2d in (orography, land_sea, grid.latitudes_deg[:, None]):
        data[:, next(channels)] = f2d

    return Dataset(grid, VARIABLES, data, EPOCH_HOURS_START, cfg.step_hours)


def with_leaked_variable(ds: Dataset, variable: str, level, lead_steps: int,
                         name: str = "leak") -> Dataset:
    """Append a channel equal to the target shifted `lead_steps` into the future.

    The dataset is truncated by `lead_steps` so every timestep has a value.
    Useful as a positive control: any input-importance method must flag it.
    """
    if not 0 < lead_steps < ds.n_time:
        raise ValueError("lead_steps must be within the dataset span")
    src = ds.values(variable, level)
    future = src[lead_steps:]
    kept = ds.data[:ds.n_time - lead_steps]
    data = np.concatenate([kept, future[:, None]], axis=1)
    return Dataset(ds.grid, ds.variables + [(name, SURFACE)], data,
                   ds.epoch_hours_start, ds.step_hours)


def with_noise_variable(ds: Dataset, seed: int, name: str = "whitenoise") -> Dataset:
    """Append a pure white-noise channel (a negative control for importance runs)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = rng.standard_normal((ds.n_time, ds.grid.n_lat, ds.grid.n_lon))
    data = np.concatenate([ds.data, noise[:, None].astype(np.float32)], axis=1)
    return Dataset(ds.grid, ds.variables + [(name, SURFACE)], data,
                   ds.epoch_hours_start, ds.step_hours)
