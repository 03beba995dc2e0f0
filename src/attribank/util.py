"""Seeded randomness, content hashing, atomic file writes and setting types."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os

import numpy as np


def keyed_rng(seed: int, *context: int) -> np.random.Generator:
    """Independent Philox stream for (seed, context).

    Philox is a 64-bit counter-based generator, so identical (seed, context)
    pairs reproduce the same stream on every platform and run. Deriving every
    draw from an explicit context keeps training resumable: nothing about the
    RNG needs checkpointing.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(c) for c in context))
    return np.random.Generator(np.random.Philox(ss))


def check_number_types(settings) -> None:
    """Raise ``TypeError`` unless every int field of the dataclass ``settings``
    holds an integer and every float field a finite real number; a bool is
    neither. JSON's ``NaN`` and ``Infinity`` parse to floats, so this is where
    they stop."""
    for f in dataclasses.fields(settings):
        kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
        value = getattr(settings, f.name)
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)
                                 or (kind is numbers.Real and not math.isfinite(value))):
            wanted = "an integer" if f.type == "int" else "a finite real number"
            raise TypeError(f"{f.name} must be {wanted}, got {value!r}")


def content_hash(*parts) -> str:
    """SHA-256 hex digest over a mix of byte strings and numpy arrays."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(str(part).encode())
    return h.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_json(obj, path: str) -> None:
    atomic_write_bytes(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write-temp-then-rename so readers never observe partial files."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
