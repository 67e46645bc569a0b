import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_upscale.unitcell import (
    GeometryError,
    PermittivityParams,
    UnitCell,
    build_unit_cell,
    permittivity_field,
    porosity,
    read_mask_file,
    write_mask_file,
    _connected_periodic,
)

import oracles
from conftest import checkerboard_cell


def test_full_cell():
    cell = build_unit_cell({"kind": "full", "dim": 2}, 8)
    assert cell.fluid_mask.all()
    assert porosity(cell) == 1.0


def test_laminate_half_layers():
    cell = build_unit_cell({"kind": "laminate", "fraction": 0.5, "axis": 0, "dim": 2}, 8)
    # voxel centers (i+1/2)/8 < 1/2 for i = 0..3: exactly four fluid layers
    assert cell.fluid_mask[:4].all() and not cell.fluid_mask[4:].any()
    assert porosity(cell) == 0.5


def test_laminate_axis1():
    cell = build_unit_cell({"kind": "laminate", "fraction": 0.25, "axis": 1, "dim": 2}, 8)
    assert cell.fluid_mask[:, :2].all() and not cell.fluid_mask[:, 2:].any()


def test_disc_porosity():
    m = 256
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, m)
    exact = 1.0 - np.pi / 16.0
    assert abs(porosity(cell) - exact) <= 2.0 / m


def test_disc_porosity_first_order_convergence():
    exact = 1.0 - np.pi / 16.0
    errs = []
    for m in (64, 128, 256):
        cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, m)
        err = abs(porosity(cell) - exact)
        assert err <= 2.0 / m
        errs.append(err)
    assert errs[2] < errs[0]


def test_sphere_3d():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 3}, 16)
    exact = 1.0 - 4.0 / 3.0 * np.pi * 0.25**3
    assert abs(porosity(cell) - exact) < 0.05


def test_porosity_shift_invariant():
    rng = np.random.default_rng(7)
    mask = rng.random((12, 12)) < 0.7
    mask[0, 0] = True
    cell = UnitCell(dim=2, resolution=12, fluid_mask=mask, geometry_spec={"kind": "mask"})
    shifted = UnitCell(
        dim=2,
        resolution=12,
        fluid_mask=np.roll(mask, (3, 5), axis=(0, 1)),
        geometry_spec={"kind": "mask"},
    )
    assert porosity(cell) == porosity(shifted)


def test_permittivity_values():
    params = PermittivityParams(lam=0.1, alpha=1.0)
    full = build_unit_cell({"kind": "full", "dim": 2}, 8)
    field = permittivity_field(full, params)
    assert np.all(field == pytest.approx(0.01))

    lam_sq = PermittivityParams(lam=1.0, alpha=4.0)
    lam_cell = build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 2}, 8)
    field = permittivity_field(lam_cell, lam_sq)
    assert set(np.unique(field)) == {1.0, 4.0}

    disc = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 32)
    field = permittivity_field(disc, PermittivityParams(lam=0.05, alpha=0.05**0.5))
    assert len(np.unique(field)) == 2


def test_permittivity_params_validation():
    with pytest.raises(ValueError):
        PermittivityParams(lam=-1.0, alpha=1.0)
    with pytest.raises(ValueError):
        PermittivityParams(lam=1.0, alpha=0.0)


def test_geometry_errors():
    with pytest.raises(GeometryError):
        build_unit_cell({"kind": "full", "dim": 2}, 3)
    with pytest.raises(GeometryError):
        build_unit_cell({"kind": "warp", "dim": 2}, 8)
    with pytest.raises(GeometryError):
        build_unit_cell({"kind": "laminate", "dim": 2}, 8)  # no fraction
    with pytest.raises(GeometryError):
        build_unit_cell({"kind": "laminate", "fraction": 1.5, "dim": 2}, 8)
    with pytest.raises(GeometryError):
        build_unit_cell({"kind": "disc", "radius": 0.7, "dim": 2}, 8)
    with pytest.raises(GeometryError):
        build_unit_cell({"kind": "laminate", "fraction": 0.5, "axis": 2, "dim": 2}, 8)
    with pytest.raises(GeometryError, match="empty fluid"):
        UnitCell(dim=2, resolution=8, fluid_mask=np.zeros((8, 8), bool),
                 geometry_spec={})


def test_mask_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    mask = rng.random((8, 8)) < 0.6
    mask[2, 2] = True
    cell = UnitCell(dim=2, resolution=8, fluid_mask=mask, geometry_spec={"kind": "mask"})
    path = tmp_path / "cell.mask"
    write_mask_file(path, cell)
    dim, m, loaded = read_mask_file(path)
    assert (dim, m) == (2, 8)
    assert np.array_equal(loaded, mask)
    rebuilt = build_unit_cell({"kind": "mask", "path": str(path)}, 8)
    assert np.array_equal(rebuilt.fluid_mask, mask)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(4, 9), st.floats(0.05, 1.0),
       st.integers(0, 2**32 - 1))
def test_mask_file_roundtrip_random(tmp_path_factory, dim, m, fluid, seed):
    mask = np.random.default_rng(seed).random((m,) * dim) < fluid
    mask.flat[0] = True  # a cell needs some fluid
    cell = UnitCell(dim=dim, resolution=m, fluid_mask=mask,
                    geometry_spec={"kind": "mask"})
    path = tmp_path_factory.mktemp("mask") / "cell.mask"
    write_mask_file(path, cell)
    header_dim, header_m, loaded = read_mask_file(path)
    assert (header_dim, header_m) == (dim, m)
    assert loaded.dtype == bool and np.array_equal(loaded, mask)
    rebuilt = build_unit_cell({"kind": "mask", "path": str(path)}, m)
    assert rebuilt.dim == dim and np.array_equal(rebuilt.fluid_mask, mask)


def test_mask_file_errors(tmp_path):
    bad = tmp_path / "bad.mask"
    bad.write_text("2 4\n1 0 1\n")
    with pytest.raises(GeometryError, match="expected 16"):
        read_mask_file(bad)
    bad.write_text("2 4\n" + " ".join(["2"] * 16) + "\n")
    with pytest.raises(GeometryError, match="expected 0 or 1"):
        read_mask_file(bad)
    good = tmp_path / "good.mask"
    good.write_text("2 4\n" + " ".join(["1"] * 16) + "\n")
    with pytest.raises(GeometryError, match="does not match"):
        build_unit_cell({"kind": "mask", "path": str(good)}, 8)


def test_connectivity():
    disc = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    assert disc.fluid_connected
    lam = build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 2}, 8)
    assert lam.fluid_connected
    # checkerboard quadrants touch only at corners: not face-connected
    assert not checkerboard_cell(8).fluid_connected
    # isolated pocket
    mask = np.zeros((8, 8), bool)
    mask[1, 1] = True
    mask[5:7, 5:7] = True
    cell = UnitCell(dim=2, resolution=8, fluid_mask=mask, geometry_spec={})
    assert not cell.fluid_connected
    # connected only across the periodic wrap
    mask = np.zeros((8, 8), bool)
    mask[0, :] = True
    mask[-1, :] = True
    cell = UnitCell(dim=2, resolution=8, fluid_mask=mask, geometry_spec={})
    assert cell.fluid_connected


def test_mask_immutable():
    cell = build_unit_cell({"kind": "full", "dim": 2}, 8)
    with pytest.raises(ValueError):
        cell.fluid_mask[0, 0] = False


@st.composite
def periodic_masks(draw):
    """1D-3D masks: random, empty, full, or a random mask rolled across the
    wrap, so that its pieces may join only through the periodic faces."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, (12, 7, 5)[dim - 1])) for _ in range(dim))
    kind = draw(st.sampled_from(["random", "empty", "full", "wrapped"]))
    if kind in ("empty", "full"):
        return np.full(shape, kind == "full")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) < draw(st.floats(0.2, 0.9))
    if kind == "wrapped":
        axis = draw(st.integers(0, dim - 1))
        mask = np.roll(mask, shape[axis] // 2, axis=axis)
    return mask


@settings(max_examples=300)
@given(periodic_masks())
def test_connectivity_matches_the_flood_fill(mask):
    assert _connected_periodic(mask) == oracles.periodic_fluid_connected(mask)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_connectivity_through_the_wrap_only(dim):
    # two slabs at the low and high end of axis 0, joined only by the wrap
    m = 6
    mask = np.zeros((m,) * dim, bool)
    mask[0] = mask[-1] = True
    assert _connected_periodic(mask) and oracles.periodic_fluid_connected(mask)
    mask[-1] = False
    mask[-2] = True
    assert not _connected_periodic(mask)
    assert not oracles.periodic_fluid_connected(mask)
    assert not _connected_periodic(np.zeros((m,) * dim, bool))
    assert _connected_periodic(np.ones((m,) * dim, bool))


def test_connectivity_of_a_long_winding_path():
    # one fluid path of about m^2/2 voxels that winds back and forth
    m = 128
    mask = np.zeros((m, m), bool)
    mask[1::2, 1:-1] = True
    for i in range(2, m - 1, 2):
        mask[i, -2 if i % 4 == 2 else 1] = True
    assert _connected_periodic(mask)
    mask[m // 2 + 1, m // 2] = False
    assert not _connected_periodic(mask)
