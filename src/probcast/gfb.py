"""GFB1 on-disk format for gridded datasets.

Little-endian layout: magic "GFB1"; u32 n_lat, n_lon, n_time, n_var;
f64 latitudes; f64 longitudes; i64 epoch_hours_start; u32 step_hours;
per-variable records (u16 name length, UTF-8 name, i32 level with
-1 = surface and -2 = constant); then the payload as f32 in
[time][var][lat][lon] order. Saving also emits a human-readable JSON
manifest next to the file.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .grid import CONSTANT, SURFACE, Dataset, GridSpec

MAGIC = b"GFB1"

_LEVEL_SURFACE = -1
_LEVEL_CONSTANT = -2


class GFBDecodeError(ValueError):
    """Raised when a GFB1 file cannot be decoded or fails validation."""


def _encode_level(level) -> int:
    if level == SURFACE:
        return _LEVEL_SURFACE
    if level == CONSTANT:
        return _LEVEL_CONSTANT
    lv = int(level)
    if lv < 0:
        raise ValueError(f"pressure level must be non-negative, got {level}")
    return lv


def _decode_level(code: int):
    if code == _LEVEL_SURFACE:
        return SURFACE
    if code == _LEVEL_CONSTANT:
        return CONSTANT
    if code < 0:
        raise GFBDecodeError(f"unknown level code {code}")
    return code


def save_dataset(ds: Dataset, path) -> None:
    path = Path(path)
    parts = [MAGIC]
    parts.append(struct.pack("<4I", ds.grid.n_lat, ds.grid.n_lon, ds.n_time,
                             len(ds.variables)))
    parts.append(ds.grid.latitudes_deg.astype("<f8").tobytes())
    parts.append(ds.grid.longitudes_deg.astype("<f8").tobytes())
    parts.append(struct.pack("<qI", ds.epoch_hours_start, ds.step_hours))
    for name, level in ds.variables:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<i", _encode_level(level)))
    parts.append(ds.data.astype("<f4").tobytes())
    path.write_bytes(b"".join(parts))

    manifest = {
        "format": "GFB1",
        "n_lat": ds.grid.n_lat,
        "n_lon": ds.grid.n_lon,
        "n_time": ds.n_time,
        "epoch_hours_start": ds.epoch_hours_start,
        "step_hours": ds.step_hours,
        "latitudes_deg": ds.grid.latitudes_deg.tolist(),
        "longitudes_deg": ds.grid.longitudes_deg.tolist(),
        "variables": [{"name": n, "level": l} for n, l in ds.variables],
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise GFBDecodeError(
                f"truncated file: need {n} bytes at offset {self.pos}, "
                f"have {len(self.blob) - self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_dataset(path) -> Dataset:
    blob = Path(path).read_bytes()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise GFBDecodeError(f"bad magic bytes in {path}")
    n_lat, n_lon, n_time, n_var = r.unpack("<4I")
    lats = np.frombuffer(r.take(8 * n_lat), dtype="<f8")
    lons = np.frombuffer(r.take(8 * n_lon), dtype="<f8")
    epoch_start, step_hours = r.unpack("<qI")
    variables = []
    for _ in range(n_var):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GFBDecodeError(f"undecodable variable name: {exc}") from exc
        (level_code,) = r.unpack("<i")
        variables.append((name, _decode_level(level_code)))
    payload = np.frombuffer(r.take(4 * n_time * n_var * n_lat * n_lon), dtype="<f4")
    if r.pos != len(blob):
        raise GFBDecodeError(f"{len(blob) - r.pos} trailing bytes after payload")
    data = payload.reshape(n_time, n_var, n_lat, n_lon)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        t, v, j, k = bad[0]
        raise GFBDecodeError(
            f"non-finite value at [time={t} var={v} lat={j} lon={k}]")
    try:
        grid = GridSpec(lats.copy(), lons.copy())
        return Dataset(grid, variables, data.copy(), epoch_start, step_hours)
    except ValueError as exc:
        raise GFBDecodeError(str(exc)) from exc
