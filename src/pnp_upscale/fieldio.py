"""Grid dumps and atomic output writing.

Dump format: header line ``field <name> <N> <m>`` followed by m^N values in
row-major order, one per line, printed with enough digits to round-trip.
All files are written to a temporary sibling and renamed into place so a
crashed run never leaves a truncated artifact.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_field(name: str, values: np.ndarray) -> str:
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if values.shape != (m,) * values.ndim:
        raise ValueError(f"field grids must be square, got {values.shape}")
    header = f"field {name} {values.ndim} {m}\n"
    return header + ("%.17g\n" * values.size) % tuple(values.ravel().tolist())


def read_field(path) -> tuple[str, np.ndarray]:
    tokens = Path(path).read_text().split()
    if len(tokens) < 4 or tokens[0] != "field":
        raise ValueError(f"{path}: not a field dump")
    name = tokens[1]
    ndim, m = int(tokens[2]), int(tokens[3])
    n = m**ndim
    data = tokens[4:]
    if len(data) != n:
        raise ValueError(f"{path}: expected {n} values, found {len(data)}")
    values = np.array([float(t) for t in data]).reshape((m,) * ndim)
    return name, values
