"""Periodic reference cell: voxelized geometry, fluid indicator, permittivity.

The cell is the unit cube [0,1]^dim sampled with ``resolution`` voxels per
axis (spacing h = 1/resolution, centers at (i+1/2)h).  Membership of a voxel
in the fluid region is decided by its center, so smooth shapes rasterize to
staircase geometry with O(h) volume error.  The mask is stored on one period;
everything downstream wraps periodically.  The module needs numpy only:
the periodic connectivity check is a vectorized union-find, not a scipy
labelling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class GeometryError(ValueError):
    """Invalid or unsupported cell geometry."""


@dataclass(frozen=True)
class PermittivityParams:
    """Dimensionless permittivity parameters.

    lam is the dimensionless Debye length, alpha the solid-to-fluid
    permittivity ratio.  The coefficient field takes the value lam**2 on
    fluid voxels and alpha on solid voxels.
    """

    lam: float
    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be a positive finite number, got {self.lam}")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be a positive finite number, got {self.alpha}")

    @property
    def fluid_value(self) -> float:
        return self.lam * self.lam


@dataclass(frozen=True, eq=False)
class UnitCell:
    """Voxelized periodicity cell with a boolean fluid indicator.

    Immutable after construction; the mask array is write-protected so the
    cell can be shared across concurrent solver instances.
    """

    dim: int
    resolution: int
    fluid_mask: np.ndarray
    geometry_spec: dict

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GeometryError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.resolution < 4:
            raise GeometryError(f"resolution must be >= 4, got {self.resolution}")
        mask = np.ascontiguousarray(self.fluid_mask, dtype=bool)
        expected = (self.resolution,) * self.dim
        if mask.shape != expected:
            raise GeometryError(f"mask shape {mask.shape} does not match {expected}")
        if not mask.any():
            raise GeometryError("empty fluid region: porosity would be zero")
        mask.setflags(write=False)
        object.__setattr__(self, "fluid_mask", mask)

    @property
    def h(self) -> float:
        return 1.0 / self.resolution

    @cached_property
    def fluid_connected(self) -> bool:
        """True if the fluid region is face-connected across periodic wraps."""
        return _connected_periodic(self.fluid_mask)

    @cached_property
    def mask_hash(self) -> str:
        hs = hashlib.sha256()
        hs.update(f"{self.dim}:{self.resolution}:".encode())
        hs.update(self.fluid_mask.tobytes())
        return hs.hexdigest()[:16]


def build_unit_cell(spec: dict, m: int) -> UnitCell:
    """Rasterize a declarative geometry spec onto an m^dim voxel grid.

    Supported kinds:
      full      -- no solid phase
      laminate  -- fluid slab of given ``fraction`` normal to ``axis``
      disc      -- centered solid sphere/disc of given ``radius``, fluid outside
      mask      -- explicit mask, from ``path`` (text file) or ``mask`` array
    """
    if m < 4:
        raise GeometryError(f"resolution must be >= 4, got {m}")
    kind = spec.get("kind")
    dim = int(spec.get("dim", 2))
    if dim not in (1, 2, 3):
        raise GeometryError(f"dim must be 1, 2 or 3, got {dim}")
    centers = (np.arange(m) + 0.5) / m

    if kind == "full":
        mask = np.ones((m,) * dim, dtype=bool)
    elif kind == "laminate":
        if "fraction" not in spec:
            raise GeometryError("laminate geometry needs a 'fraction'")
        fraction = float(spec["fraction"])
        if not 0.0 < fraction <= 1.0:
            raise GeometryError(f"laminate fraction must be in (0,1], got {fraction}")
        axis = int(spec.get("axis", 0))
        if not 0 <= axis < dim:
            raise GeometryError(f"laminate axis {axis} out of range for dim {dim}")
        line = centers < fraction
        shape = [1] * dim
        shape[axis] = m
        mask = np.broadcast_to(line.reshape(shape), (m,) * dim).copy()
    elif kind == "disc":
        if "radius" not in spec:
            raise GeometryError("disc geometry needs a 'radius'")
        radius = float(spec["radius"])
        if not 0.0 < radius <= 0.5:
            raise GeometryError(f"disc radius must be in (0,0.5], got {radius}")
        grids = np.meshgrid(*([centers] * dim), indexing="ij")
        r2 = sum((g - 0.5) ** 2 for g in grids)
        mask = r2 > radius * radius  # solid inclusion; fluid outside
    elif kind == "mask":
        if "mask" in spec:
            mask = np.asarray(spec["mask"], dtype=bool)
            dim = mask.ndim
        elif "path" in spec:
            dim, mm, mask = read_mask_file(spec["path"])
            if mm != m:
                raise GeometryError(
                    f"mask file resolution {mm} does not match requested {m}"
                )
        else:
            raise GeometryError("mask geometry needs 'path' or 'mask'")
    else:
        raise GeometryError(f"unsupported geometry kind {kind!r}")

    stored = dict(spec)
    stored.pop("mask", None)  # keep the spec JSON-serializable
    stored["kind"] = kind
    stored["dim"] = dim
    return UnitCell(dim=dim, resolution=m, fluid_mask=mask, geometry_spec=stored)


def porosity(cell: UnitCell) -> float:
    """Fluid volume fraction |Y^s|/|Y| = (fluid voxels)/m^dim."""
    return float(cell.fluid_mask.mean())


def permittivity_field(cell: UnitCell, params: PermittivityParams) -> np.ndarray:
    """Per-voxel coefficient: lam**2 on fluid, alpha on solid."""
    return np.where(cell.fluid_mask, params.fluid_value, params.alpha).astype(float)


def read_mask_file(path) -> tuple[int, int, np.ndarray]:
    """Read a plain-text mask: first line 'N m', then m^N 0/1 values row-major."""
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise GeometryError(f"mask file {path}: missing 'N m' header")
    try:
        dim, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise GeometryError(f"mask file {path}: bad header {tokens[:2]}") from exc
    n = m**dim
    values = tokens[2:]
    if len(values) != n:
        raise GeometryError(
            f"mask file {path}: expected {n} entries for N={dim} m={m}, got {len(values)}"
        )
    flat = np.empty(n, dtype=bool)
    for i, tok in enumerate(values):
        if tok == "0":
            flat[i] = False
        elif tok == "1":
            flat[i] = True
        else:
            raise GeometryError(f"mask file {path}: entry {i} is {tok!r}, expected 0 or 1")
    return dim, m, flat.reshape((m,) * dim)


def write_mask_file(path, cell: UnitCell) -> None:
    lines = [f"{cell.dim} {cell.resolution}"]
    lines.extend("1" if v else "0" for v in cell.fluid_mask.ravel())
    Path(path).write_text("\n".join(lines) + "\n")


def _connected_periodic(mask: np.ndarray) -> bool:
    """True if the fluid voxels form one face-connected set, wraps included.

    Union-find over the face-adjacent fluid pairs, vectorized: each pass
    hooks the larger of the two roots of every pair that still straddles two
    trees onto the smaller one, then jumps pointers until every tree is a
    star.  A pass leaves only the trees whose root is a local minimum among
    its neighbouring roots.  So the passes do not follow the length of the
    longest fluid path, as a frontier flood fill's would: random mazes of
    127 to 32767 fluid voxels took 5 to 8 passes.  An empty mask is not
    connected.
    """
    mask = np.asarray(mask, dtype=bool)
    n = int(np.count_nonzero(mask))
    if n == mask.size:
        return True
    if n == 0:
        return False
    label = np.full(mask.shape, -1, dtype=np.intp)
    label[mask] = np.arange(n)
    a, b = [], []
    for d in range(mask.ndim):
        nb = np.roll(label, -1, axis=d)
        pair = mask & (nb >= 0)
        a.append(label[pair])
        b.append(nb[pair])
    a, b = np.concatenate(a), np.concatenate(b)
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return bool((parent == 0).all())
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
