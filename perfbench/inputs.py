"""Seeded inputs for the four benchmark workloads.

Everything the program receives is generated here from the workload seed:
random periodic masks (written in the mask-file format), configuration
files and, for ``macro2d``, the tensors JSON produced by ``pnp-upscale
upscale``.  Generation happens before any timed interval.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = 4.0
LAM = 1.0

# cell2d: random grains on a 128^2 periodic cell
CELL2D_M = 128
CELL2D_SOLID = 0.35
CELL2D_GRAIN_RADIUS = 5.0

# macro2d: anisotropic tensors from a 32^2 cell of tilted elliptic grains
MACRO2D_CELL_M = 32
MACRO2D_SOLID = 0.3
MACRO2D_M = 128
MACRO2D_DT = 1e-3
MACRO2D_STEPS = 50
MACRO2D_SNAPSHOTS = (0.01, 0.02, 0.03, 0.04)
MACRO2D_AMPLITUDE = 0.5
PICARD_CAP = 50

VALIDATE = {
    "validate2d": {"dim": 2, "cell": 32, "macro": 64, "steps": 5, "s": "1/2 1/4 1/8"},
    "validate3d": {"dim": 3, "cell": 8, "macro": 24, "steps": 3, "s": "1/2 1/3"},
}
VALIDATE_DT = 1e-3

WORKLOADS = ("cell2d", "macro2d", "validate2d", "validate3d")


@dataclass
class Inputs:
    """Generated files for one workload plus what the checks need to know."""

    workload: str
    config: Path
    argv: list  # pipeline command arguments after ``pnp-upscale``
    out: Path
    tensors: Path | None = None
    mask: np.ndarray | None = None
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# random periodic masks


def periodic_components(mask: np.ndarray) -> np.ndarray:
    """Face-adjacency labels of the True voxels, with periodic wraparound.

    Plain breadth-first search over flat indices; label 0 marks False voxels.
    Written here, apart from the program's own connectivity test.
    """
    shape = mask.shape
    flat = mask.ravel()
    labels = np.zeros(flat.size, dtype=np.int64)
    strides = [int(np.prod(shape[d + 1:])) for d in range(len(shape))]
    coords = np.indices(shape).reshape(len(shape), -1).T
    current = 0
    for start in np.flatnonzero(flat):
        if labels[start]:
            continue
        current += 1
        labels[start] = current
        queue = deque([int(start)])
        while queue:
            i = queue.popleft()
            c = coords[i]
            for d, n in enumerate(shape):
                for step in (-1, 1):
                    j = i + (((c[d] + step) % n) - c[d]) * strides[d]
                    if flat[j] and not labels[j]:
                        labels[j] = current
                        queue.append(j)
    return labels.reshape(shape)


def is_fluid_connected(mask: np.ndarray) -> bool:
    labels = periodic_components(mask)
    return bool(mask.any()) and int(labels.max()) == 1


def random_grain_mask(rng: np.random.Generator, m: int, solid_fraction: float,
                      radius: float, aspect: float = 1.0,
                      angle: float = 0.0) -> np.ndarray:
    """2D periodic fluid mask: elliptic solid grains dropped at random centres
    until the solid fraction is reached; fluid pockets cut off from the main
    fluid component are filled with solid, so the fluid is face-connected
    under wraparound."""
    centers = (np.arange(m) + 0.5)
    X, Y = np.meshgrid(centers, centers, indexing="ij")
    ca, sa = math.cos(angle), math.sin(angle)
    solid = np.zeros((m, m), dtype=bool)
    while solid.mean() < solid_fraction:
        cx, cy = rng.random(2) * m
        dx = (X - cx + 0.5 * m) % m - 0.5 * m
        dy = (Y - cy + 0.5 * m) % m - 0.5 * m
        a = ca * dx + sa * dy
        b = -sa * dx + ca * dy
        solid |= (a / (radius * aspect)) ** 2 + (b / radius) ** 2 <= 1.0
    fluid = ~solid
    labels = periodic_components(fluid)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    fluid = labels == int(np.argmax(sizes))
    if not is_fluid_connected(fluid):
        raise RuntimeError("generated mask has disconnected fluid")
    return fluid


def write_mask(path: Path, mask: np.ndarray) -> None:
    """Mask-file format: first line 'N m', then m^N 0/1 entries row-major."""
    lines = [f"{mask.ndim} {mask.shape[0]}"]
    lines.extend("1" if v else "0" for v in mask.ravel())
    path.write_text("\n".join(lines) + "\n")


def write_config(path: Path, entries: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))


# ---------------------------------------------------------------------------
# workloads


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_inputs(workload: str, seed: int, work: Path, root: Path) -> Inputs:
    """Write the workload's inputs under ``work`` and return their description."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = work / "out"
    config = work / "run.cfg"
    if workload == "cell2d":
        mask = random_grain_mask(rng, CELL2D_M, CELL2D_SOLID, CELL2D_GRAIN_RADIUS)
        write_mask(work / "cell.mask", mask)
        write_config(config, {
            "cell.kind": "mask",
            "cell.dim": 2,
            "cell.resolution": CELL2D_M,
            "cell.mask_path": "cell.mask",
            "physics.lambda": LAM,
            "physics.alpha": ALPHA,
            "solver.second_order": "true",
        })
        return Inputs(workload, config, ["cell", "--config", str(config), "--out", str(out)],
                      out, mask=mask, facts={"tol": 1e-10, "alpha": ALPHA, "lam": LAM})
    if workload == "macro2d":
        angle = math.pi / 6 + 0.2 * (rng.random() - 0.5)
        mask = random_grain_mask(rng, MACRO2D_CELL_M, MACRO2D_SOLID, 2.0, aspect=2.5,
                                 angle=angle)
        write_mask(work / "cell.mask", mask)
        cell_entries = {
            "cell.kind": "mask",
            "cell.dim": 2,
            "cell.resolution": MACRO2D_CELL_M,
            "cell.mask_path": "cell.mask",
            "physics.lambda": LAM,
            "physics.alpha": ALPHA,
        }
        write_config(work / "cell.cfg", cell_entries)
        tensors = work / "tensors.json"
        subprocess.run(
            [sys.executable, "-m", "pnp_upscale.cli", "upscale",
             "--config", str(work / "cell.cfg"), "--out", str(tensors)],
            env=program_env(root), check=True, stdout=subprocess.DEVNULL,
        )
        write_config(config, {
            **cell_entries,
            "macro.resolution": MACRO2D_M,
            "macro.dt": MACRO2D_DT,
            "macro.t_end": MACRO2D_DT * MACRO2D_STEPS,
            "macro.bc": "noflux",
            "macro.picard_cap": PICARD_CAP,
            "macro.init": "asymmetric",
            "macro.init_amplitude": MACRO2D_AMPLITUDE,
            "output.snapshots": " ".join(str(t) for t in MACRO2D_SNAPSHOTS),
        })
        return Inputs(workload, config,
                      ["macro", "--config", str(config), "--tensors", str(tensors),
                       "--out", str(out)],
                      out, tensors=tensors, mask=mask,
                      facts={"M": MACRO2D_M, "steps": MACRO2D_STEPS,
                             "snapshots": len(MACRO2D_SNAPSHOTS) + 1,
                             "picard_cap": PICARD_CAP, "amplitude": MACRO2D_AMPLITUDE})
    spec = VALIDATE[workload]
    write_config(config, {
        "cell.kind": "disc",
        "cell.dim": spec["dim"],
        "cell.resolution": spec["cell"],
        "cell.radius": 0.25,
        "physics.lambda": LAM,
        "physics.alpha": ALPHA,
        "macro.resolution": spec["macro"],
        "macro.dt": VALIDATE_DT,
        "macro.t_end": VALIDATE_DT * spec["steps"],
        "micro.s": spec["s"],
    })
    report = work / "report.csv"
    return Inputs(workload, config, ["validate", "--config", str(config), "--out", str(report)],
                  report, facts={"n_s": len(spec["s"].split())})
