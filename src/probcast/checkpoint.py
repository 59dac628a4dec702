"""PWNN checkpoint container: config JSON plus named f32 arrays.

Little-endian layout: magic "PWNN"; u32 version; u32 config length and the
JSON bytes; u32 array count; per array a u16 name length, UTF-8 name,
u8 ndim, u32 dims, then f32 data. Arrays round-trip byte-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PWNN"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config: dict, arrays: list) -> None:
    """arrays is an ordered list of (name, ndarray); values are stored as f32."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(cfg)))
    parts.append(cfg)
    parts.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        raw = name.encode("utf-8")
        arr = np.asarray(arr, dtype="<f4")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path):
    """Returns (config dict, list of (name, f32 array)) in stored order."""
    blob = Path(path).read_bytes()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"truncated checkpoint at offset {pos}")
        out = blob[pos:pos + n]
        pos += n
        return out

    if take(4) != MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    raw = take(cfg_len)
    try:
        config = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"undecodable checkpoint config: {exc}") from exc
    if not isinstance(config, dict):
        raise CheckpointError("checkpoint config is not a JSON object")
    (n_arrays,) = struct.unpack("<I", take(4))
    arrays = []
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"undecodable array name: {exc}") from exc
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim)) if ndim else ()
        count = math.prod(shape)
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape).copy()
        arrays.append((name, data))
    if pos != len(blob):
        raise CheckpointError(f"{len(blob) - pos} trailing bytes in checkpoint")
    return config, arrays
