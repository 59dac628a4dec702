"""PWNN checkpoint container (config JSON plus named f32 arrays) and model save/load.

Little-endian layout: magic "PWNN"; u32 version; u32 config length and the
JSON bytes; u32 array count; per array a u16 name length, UTF-8 name,
u8 ndim, u32 dims, then f32 data. Arrays round-trip byte-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .binning import BinSpec
from .gfb import ByteReader, encode_name

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
        arr = np.asarray(arr, dtype="<f4")
        parts.append(encode_name(name))
        parts.append(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path):
    """Returns (config dict, list of (name, f32 array)) in stored order."""
    with open(path, "rb") as f:
        return _read_checkpoint(ByteReader(f, CheckpointError), path)


def _read_checkpoint(r: ByteReader, path):
    if r.take(4) != MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = r.unpack("<I")
    raw = r.take(cfg_len)
    try:
        config = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"undecodable checkpoint config: {exc}") from exc
    if not isinstance(config, dict):
        raise CheckpointError("checkpoint config is not a JSON object")
    (n_arrays,) = r.unpack("<I")
    arrays = []
    for _ in range(n_arrays):
        name = r.name("array")
        (ndim,) = r.unpack("<B")
        arrays.append((name, r.take_f32(r.unpack(f"<{ndim}I"))))
    if r.remaining:
        raise CheckpointError(f"{r.remaining} trailing bytes in checkpoint")
    return config, arrays


def snap_f32(a) -> np.ndarray:
    """Round to f32 and back, so the value survives an f32 checkpoint exactly."""
    return np.asarray(a).astype(np.float32).astype(np.float64)


def save_model(path, model, kind: str, extra: tuple = ()) -> None:
    """Write a model's header (kind, seed, config, bin spec, extra fields) and state."""
    header = {"kind": kind, "seed": model.seed, "config": dataclasses.asdict(model.cfg)}
    header.update((key, getattr(model, key)) for key in extra)
    if model.binspec is not None:
        header["binspec"] = dataclasses.asdict(model.binspec)
    save_checkpoint(path, header, model.state_arrays())


def load_model(path, cls, kind: str, config_cls, extra: tuple = ()):
    """Rebuild a model saved by save_model as cls(config, seed=..., **extra)."""
    header, arrays = load_checkpoint(path)
    if header.get("kind") != kind:
        raise CheckpointError(f"checkpoint at {path} is not a {kind} model")
    unknown = header.keys() - {"kind", "seed", "config", "binspec", *extra}
    if unknown:
        raise CheckpointError(f"unknown header fields {sorted(unknown)} in {path}")
    try:
        model = cls(config_cls(**header["config"]), seed=header["seed"],
                    **{key: header[key] for key in extra})
        if "binspec" in header:
            model.binspec = BinSpec(**header["binspec"])
    except (LookupError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad {kind} header in {path}: {exc!r}") from exc
    if model.binspec is not None and model.binspec.n_bins != model.cfg.n_bins:
        raise CheckpointError(f"bin spec of {path} does not match the model's bins")
    model.load_state_arrays(arrays)
    return model


def restore_state(params: list, layout: list, arrays: list) -> dict:
    """Load stored (name, array) pairs that match the (name, array) layout exactly.

    Parameters, the (name, Tensor) pairs in params, take their arrays in their
    own dtype; the rest of the layout is returned by name as f64 arrays.
    """
    table = dict(arrays)
    shapes = {name: np.shape(a) for name, a in layout}
    if len(table) != len(arrays) or table.keys() != shapes.keys():
        raise CheckpointError(
            f"stored arrays do not match the model: missing {sorted(shapes - table.keys())}, "
            f"unexpected {sorted(table.keys() - shapes)}, {len(arrays) - len(table)} duplicates")
    for name, a in table.items():
        if a.shape != shapes[name]:
            raise CheckpointError(f"array {name!r} has shape {a.shape}, the model needs "
                                  f"{shapes[name]}")
    for name, t in params:
        t.data = table.pop(name).astype(t.data.dtype)
        t.grad = None
    return {name: a.astype(np.float64) for name, a in table.items()}
