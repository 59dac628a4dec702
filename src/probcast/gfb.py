"""GFB1 on-disk format for gridded datasets.

Little-endian layout: magic "GFB1"; u32 n_lat, n_lon, n_time, n_var;
f64 latitudes; f64 longitudes; i64 epoch_hours_start; u32 step_hours;
per-variable records (u16 name length, UTF-8 name, i32 level with
-1 = surface and -2 = constant); then the payload as f32 in
[time][var][lat][lon] order. Saving also emits a human-readable JSON
manifest next to the file.
"""

from __future__ import annotations

import io
import json
import math
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
        parts += [encode_name(name), struct.pack("<i", _encode_level(level))]
    with open(path, "wb") as f:
        f.write(b"".join(parts))
        # The payload goes from the array to the file without a bytes copy.
        f.write(np.ascontiguousarray(ds.data, dtype="<f4"))

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
    path.with_suffix(path.suffix + ".json").write_text(json_text(manifest))


def json_text(obj) -> str:
    """The text of every JSON artifact: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def encode_name(name: str) -> bytes:
    """A name record of GFB1 and PWNN: u16 byte length, then the UTF-8 bytes."""
    raw = name.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class ByteReader:
    """Bounds-checked cursor over a binary stream; a read past its end raises `error`.

    Each read is checked against the bytes left before anything is allocated,
    so a corrupt length cannot ask for more memory than the file holds.
    """

    def __init__(self, stream, error: type[ValueError]):
        self.stream = stream
        self.error = error
        self.pos = 0
        self.size = stream.seek(0, io.SEEK_END)
        stream.seek(0)

    @property
    def remaining(self) -> int:
        return self.size - self.pos

    def _check(self, n: int) -> None:
        if n > self.remaining:
            raise self.error(f"truncated file: need {n} bytes at offset {self.pos}, "
                             f"have {self.remaining}")

    def _moved(self, got: int, n: int) -> None:
        if got != n:
            raise self.error(f"truncated file: it shrank while reading offset {self.pos}")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._check(n)
        out = self.stream.read(n)
        self._moved(len(out), n)
        return out

    def take_f32(self, shape: tuple) -> np.ndarray:
        """The next little-endian f32 values, read straight into a new array of shape."""
        n = 4 * math.prod(shape)
        self._check(n)
        try:
            out = np.empty(shape, dtype="<f4")
        except ValueError as exc:  # a zero dim beside dims too large for numpy
            raise self.error(f"impossible array shape {shape}") from exc
        self._moved(self.stream.readinto(out), n)
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self, what: str) -> str:
        """The next name record (see encode_name); what names it in the error."""
        (n,) = self.unpack("<H")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"undecodable {what} name: {exc}") from exc


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        r = ByteReader(f, GFBDecodeError)
        if r.take(4) != MAGIC:
            raise GFBDecodeError(f"bad magic bytes in {path}")
        n_lat, n_lon, n_time, n_var = r.unpack("<4I")
        lats = np.frombuffer(r.take(8 * n_lat), dtype="<f8")
        lons = np.frombuffer(r.take(8 * n_lon), dtype="<f8")
        epoch_start, step_hours = r.unpack("<qI")
        variables = []
        for _ in range(n_var):
            name = r.name("variable")
            (level_code,) = r.unpack("<i")
            variables.append((name, _decode_level(level_code)))
        shape = (n_time, n_var, n_lat, n_lon)
        trailing = r.remaining - 4 * math.prod(shape)
        if trailing > 0:
            raise GFBDecodeError(f"{trailing} trailing bytes after payload")
        data = r.take_f32(shape)
    try:
        # Dataset refuses non-finite values, naming the first one's index.
        grid = GridSpec(lats.copy(), lons.copy())
        return Dataset(grid, variables, data, epoch_start, step_hours)
    except ValueError as exc:
        raise GFBDecodeError(str(exc)) from exc
