import numpy as np
import pytest
from hypothesis import settings

from pnp_upscale.cellcorrect import (
    solve_density_corrector_shape,
    solve_potential_corrector,
)
from pnp_upscale.unitcell import (
    PermittivityParams,
    UnitCell,
    build_unit_cell,
    permittivity_field,
)

import oracles

CONTRAST = PermittivityParams(lam=1.0, alpha=4.0)

# the same examples on every run (derandomize also disables the example
# database), and no per-example deadline: solve times vary with machine load
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def checkerboard_mask(m):
    """2x2-block pattern: fluid on two opposite quadrant-parity classes."""
    lower = (np.arange(m) + 0.5) / m < 0.5
    X, Y = np.meshgrid(lower, lower, indexing="ij")
    return np.logical_xor(X, Y)


def checkerboard_cell(m):
    return UnitCell(
        dim=2,
        resolution=m,
        fluid_mask=checkerboard_mask(m),
        geometry_spec={"kind": "mask", "dim": 2},
    )


def tilted_grain_mask(rng, m, solid=0.3, radius=0.08, aspect=2.5):
    """2D periodic fluid mask of elliptic solid grains, all tilted by one
    random angle, dropped at random centres until ``solid`` of the cell is
    solid; redrawn until the fluid is face-connected."""
    c = (np.arange(m) + 0.5) / m
    X, Y = np.meshgrid(c, c, indexing="ij")
    while True:
        angle = rng.uniform(0.0, np.pi)
        mask = np.ones((m, m), dtype=bool)
        while 1.0 - mask.mean() < solid:
            dx, dy = ((G - x0 + 0.5) % 1.0 - 0.5 for G, x0 in zip((X, Y), rng.random(2)))
            a = np.cos(angle) * dx + np.sin(angle) * dy
            b = -np.sin(angle) * dx + np.cos(angle) * dy
            mask &= (a / (radius * aspect)) ** 2 + (b / radius) ** 2 > 1.0
        if oracles.periodic_fluid_connected(mask):
            return mask


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="session")
def disc_correctors():
    """Disc-inclusion correctors at several resolutions, shared across tests.

    Returns {m: (cell, kappa, xi3, eta)} for m in (64, 128, 256).
    """
    out = {}
    for m in (64, 128, 256):
        cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, m)
        kappa = permittivity_field(cell, CONTRAST)
        xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
        eta, _ = solve_density_corrector_shape(cell, xi3, tol=1e-10)
        out[m] = (cell, kappa, xi3, eta)
    return out
