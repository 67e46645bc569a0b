import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pnp_upscale import _fv, upscale
from pnp_upscale.cellcorrect import SolverError, face_gradient, solve_potential_corrector
from pnp_upscale.unitcell import (
    PermittivityParams,
    UnitCell,
    build_unit_cell,
    permittivity_field,
    porosity,
)
from pnp_upscale.upscale import (
    EffectiveTensors,
    compute_effective_tensors,
    diffusion_shape_tensor,
    effective_permittivity,
    electro_convection_tensor,
    permittivity_bounds,
    check_spectral_bounds,
)

from conftest import CONTRAST, checkerboard_cell
import oracles
from test_cellcorrect import random_masks


def laminate_cell(m, axis=0):
    return build_unit_cell(
        {"kind": "laminate", "fraction": 0.5, "axis": axis, "dim": 2}, m
    )


def test_constant_kappa():
    m = 16
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    kappa = np.full((m, m), 0.01)
    xi3 = np.zeros((2, m, m))
    eps0 = effective_permittivity(cell, kappa, xi3)
    assert np.allclose(eps0, 0.01 * np.eye(2), atol=1e-15)
    assert np.allclose(electro_convection_tensor(cell, xi3), np.eye(2), atol=1e-15)


@pytest.mark.parametrize("m", [16, 50, 128])
def test_laminate_exact(m):
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    eps0 = effective_permittivity(cell, kappa, xi3)
    target = np.diag([oracles.LAMINATE_Q, oracles.LAMINATE_TRANSVERSE])
    assert np.abs(eps0 - target).max() / oracles.LAMINATE_TRANSVERSE < 1e-9


def test_laminate_3d():
    cell = build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 3}, 8)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    eps0 = effective_permittivity(cell, kappa, xi3)
    target = np.diag([oracles.LAMINATE_Q, oracles.LAMINATE_TRANSVERSE,
                      oracles.LAMINATE_TRANSVERSE])
    assert np.abs(eps0 - target).max() / oracles.LAMINATE_TRANSVERSE < 1e-9


def test_laminate_rotation_transposes_diagonal():
    tensors = []
    for axis in (0, 1):
        cell = laminate_cell(32, axis=axis)
        kappa = permittivity_field(cell, CONTRAST)
        xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
        tensors.append(effective_permittivity(cell, kappa, xi3))
    assert np.allclose(tensors[0], tensors[1][::-1, ::-1].T, atol=1e-10)
    assert tensors[0][0, 0] == pytest.approx(tensors[1][1, 1], rel=1e-10)
    assert tensors[0][1, 1] == pytest.approx(tensors[1][0, 0], rel=1e-10)


def test_checkerboard_duality():
    cell = checkerboard_cell(128)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
    eps0 = effective_permittivity(cell, kappa, xi3)
    # phase-interchange duality: effective value is the geometric mean 2.0
    assert np.abs(eps0 - 2.0 * np.eye(2)).max() / 2.0 < 0.005


def test_scale_consistency_exact():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 32)
    kappa = permittivity_field(cell, CONTRAST)
    xi_a, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    xi_b, _ = solve_potential_corrector(cell, 4.0 * kappa, tol=1e-11)
    assert np.array_equal(xi_a, xi_b)
    e_a = effective_permittivity(cell, kappa, xi_a)
    e_b = effective_permittivity(cell, 4.0 * kappa, xi_b)
    assert np.array_equal(4.0 * e_a, e_b)
    assert np.array_equal(
        electro_convection_tensor(cell, xi_a), electro_convection_tensor(cell, xi_b)
    )


def test_electro_convection_reduces_to_porosity():
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 24)
    xi3 = np.zeros((2, 24, 24))
    assert np.allclose(
        electro_convection_tensor(cell, xi3), porosity(cell) * np.eye(2), atol=1e-15
    )
    assert np.all(diffusion_shape_tensor(cell, np.zeros((2, 24, 24))) == 0.0)


def test_full_fluid_laminate_M_identity():
    # with no solid phase the periodic mean of the corrector gradient is zero
    m = 32
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    c = (np.arange(m) + 0.5) / m
    kappa = np.where(c < 0.5, 1.0, 4.0)[:, None] * np.ones((1, m))
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    M = electro_convection_tensor(cell, xi3)
    assert np.allclose(M, np.eye(2), atol=1e-9)
    eta_like = -xi3  # full-cell density corrector shape
    assert np.abs(diffusion_shape_tensor(cell, eta_like)).max() < 1e-9


def test_disc_tensor_structure(disc_correctors):
    cell, kappa, xi3, eta = disc_correctors[64]
    M = electro_convection_tensor(cell, xi3)
    H = diffusion_shape_tensor(cell, eta)
    assert np.abs(M - M.T).max() < 1e-8
    assert 0.0 < M[0, 0] <= 1.0 and 0.0 < M[1, 1] <= 1.0
    assert np.abs(M[0, 1]) < 1e-8 and np.abs(H[0, 1]) < 1e-8


def test_M_grid_refinement(disc_correctors):
    cell_c, _, xi_c, _ = disc_correctors[64]
    cell_f, _, xi_f, _ = disc_correctors[128]
    Mc = electro_convection_tensor(cell_c, xi_c)
    Mf = electro_convection_tensor(cell_f, xi_f)
    assert np.abs(Mc - Mf).max() / np.abs(Mf).max() < 0.01


def test_Hhat_grid_refinement(disc_correctors):
    tensors = {}
    for m in (128, 256):
        cell, _, _, eta = disc_correctors[m]
        tensors[m] = diffusion_shape_tensor(cell, eta)
    assert np.abs(tensors[128] - tensors[256]).max() / np.abs(tensors[256]).max() < 0.01


def test_voigt_reuss_random_fields():
    rng = np.random.default_rng(5)
    m = 24
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    for _ in range(3):
        kappa = np.exp(rng.normal(size=(m, m)))
        xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
        eps0 = effective_permittivity(cell, kappa, xi3)
        check_spectral_bounds(eps0, kappa)
        harm, arith = permittivity_bounds(kappa)
        eigs = np.linalg.eigvalsh(0.5 * (eps0 + eps0.T))
        assert eigs.min() >= harm - 1e-6 * arith
        assert eigs.max() <= arith + 1e-6 * arith


def test_flux_energy_disagreement_raises():
    m = 16
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    c = (np.arange(m) + 0.5) / m
    kappa = 2.0 + np.sin(2 * np.pi * c)[:, None] * np.ones((1, m))
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    with pytest.raises(SolverError, match="disagreement"):
        effective_permittivity(cell, kappa, xi3 + 0.05 * np.sin(2 * np.pi * c)[:, None])


def test_eigenvalues_outside_the_reuss_voigt_interval_raise():
    # kappa = 1 everywhere: both bounds are 1, and the eigenvalue 2 leaves them
    with pytest.raises(SolverError, match=r"violate the bounds \[1, 1\]"):
        check_spectral_bounds(np.diag([2.0, 1.0]), np.ones((4, 4)))


def test_an_asymmetric_eps0_stops_the_pipeline(monkeypatch):
    asymmetric = np.array([[1.0, 0.1], [0.0, 1.0]])
    monkeypatch.setattr(upscale, "effective_permittivity", lambda *args: asymmetric)
    with pytest.raises(SolverError, match="eps0 symmetry defect"):
        compute_effective_tensors(build_unit_cell({"kind": "full", "dim": 2}, 8), CONTRAST)


def test_compute_effective_tensors_pipeline():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 32)
    tensors, correctors = compute_effective_tensors(cell, CONTRAST, tol=1e-10)
    assert tensors.p == porosity(cell)
    assert tensors.provenance["cell_hash"] == cell.mask_hash
    assert max(correctors.residuals.values()) <= 1e-10
    assert correctors.zeta3 is not None and correctors.zeta3.shape == (2, 2, 32, 32)
    # structural identity of this model: the concentration-proportional
    # transport tensor differs from the mobility tensor by the porosity
    assert np.allclose(tensors.Hhat, tensors.M - tensors.p * np.eye(2), atol=5e-3)


@pytest.mark.parametrize("dim, m", [(2, 32), (3, 8)])
def test_symmetric_inclusion_tensors_stay_diagonal(dim, m):
    # the macro grid assembles cross terms for off-diagonals above 1e-8 of
    # the tensor, the asymmetry eps0_defect accepts; the float64 cell solves
    # leave about 1e-17 here, and even float32-preconditioned ones, which
    # left 1.2e-12 (eps0) and 1.2e-11 (Hhat) on the sphere, stay below it
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": dim}, m)
    tensors, _ = compute_effective_tensors(cell, CONTRAST, second_order=False)
    for name in ("eps0", "Hhat", "M"):
        assert not _fv._significant_offdiag(getattr(tensors, name)), name


def drift_offset(cell, alpha):
    """(Hhat - M + pI, 1/2 <d_i xi_k> over the fluid-solid faces, M) of the
    cell at contrast ``alpha``."""
    tensors, correctors = compute_effective_tensors(
        cell, PermittivityParams(lam=1.0, alpha=alpha), second_order=False)
    mask, N = cell.fluid_mask, cell.dim
    half = np.empty((N, N))
    for i in range(N):
        fluid_solid = mask ^ np.roll(mask, -1, axis=i)
        for k in range(N):
            half[i, k] = 0.5 * float(np.mean(fluid_solid * face_gradient(
                correctors.xi3[k], i, cell.h)))
    return tensors.Hhat - tensors.M + tensors.p * np.eye(N), half, tensors


@settings(max_examples=30)
@given(random_masks(), st.floats(0.05, 100.0))
def test_drift_tensor_is_minus_p_plus_half_the_fluid_solid_face_average(mask, alpha):
    # M weighs the fluid-solid faces by 1/2 and Hhat, with the closed-form
    # eta = -(xi - <xi>_fluid), skips them, so Hhat - M = -pI plus half
    # <d_i xi_k> over the fluid-solid faces, to rounding
    assume(mask.any() and oracles.periodic_fluid_connected(mask))
    cell = UnitCell(dim=mask.ndim, resolution=mask.shape[0], fluid_mask=mask,
                    geometry_spec={"kind": "mask", "dim": mask.ndim})
    offset, half, tensors = drift_offset(cell, alpha)
    assert np.abs(offset - half).max() <= 1e-13 * np.abs(tensors.M).max()


@pytest.mark.parametrize("radius", [0.25, 0.4])
@pytest.mark.parametrize("alpha", [4.0, 100.0])
def test_drift_tensor_is_minus_p_to_order_h_on_discs(radius, alpha):
    # at most 0.78 h measured; no order per doubling is pinned, since each m
    # rasterizes a different disc (per-pair orders 0.65-1.33)
    for m in (16, 32, 64):
        cell = build_unit_cell({"kind": "disc", "radius": radius, "dim": 2}, m)
        offset, _, tensors = drift_offset(cell, alpha)
        assert np.abs(offset).max() / tensors.p <= 1.0 / m, m


@st.composite
def face_connected_masks(draw):
    """1D-3D fluid masks, m = 4-16: the fluid voxels face-connected to one
    voxel, over periodic wraps, of a random solid."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(4, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fluid = rng.random((m,) * dim) >= draw(st.floats(0.0, 0.6))
    start = tuple(rng.integers(0, m, size=dim))
    fluid[start] = True
    return oracles.periodic_fluid_component(fluid, start)


@settings(max_examples=60)
@given(face_connected_masks(), st.integers(0, 2**32 - 1))
def test_face_average_rule_keeps_every_bit(mask, seed):
    # M and Hhat are one face-average rule with two weights; the loops of
    # each tensor apart are its reference, bit for bit
    cell = UnitCell(dim=mask.ndim, resolution=mask.shape[0], fluid_mask=mask,
                    geometry_spec={"kind": "mask", "dim": mask.ndim})
    xi3, eta = np.random.default_rng(seed).standard_normal((2, mask.ndim, *mask.shape))
    assert (electro_convection_tensor(cell, xi3).tobytes()
            == oracles.electro_convection_tensor_loop(cell, xi3).tobytes())
    assert (diffusion_shape_tensor(cell, eta).tobytes()
            == oracles.diffusion_shape_tensor_loop(cell, eta).tobytes())


def test_the_dimension_is_that_of_eps0():
    tensors = EffectiveTensors(p=0.5, eps0=np.eye(3), M=np.eye(3), Hhat=np.zeros((3, 3)))
    assert tensors.dim == 3
    assert tensors.to_json_dict()["provenance"]["dim"] == 3
    with pytest.raises(TypeError, match="dim"):
        EffectiveTensors(dim=3, p=0.5, eps0=np.eye(2), M=np.eye(2), Hhat=np.zeros((2, 2)))


@st.composite
def valid_tensors(draw):
    n = draw(st.integers(1, 3))
    entries = st.floats(-1e3, 1e3)
    off = np.triu(draw(hnp.arrays(float, (n, n), elements=entries)), 1)
    eps0 = off + off.T  # symmetric, and positive definite by diagonal dominance
    eps0[np.diag_indices(n)] = np.abs(eps0).sum(axis=1) + draw(
        hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
    return EffectiveTensors(p=draw(st.floats(0.0, 1.0, exclude_min=True)), eps0=eps0,
                            M=draw(hnp.arrays(float, (n, n), elements=entries)),
                            Hhat=draw(hnp.arrays(float, (n, n), elements=entries)))


@settings(max_examples=50)
@given(valid_tensors())
def test_tensors_dict_round_trip_keeps_every_bit(tensors):
    loaded = EffectiveTensors.from_json_dict(tensors.to_json_dict())
    assert np.float64(loaded.p).tobytes() == np.float64(tensors.p).tobytes()
    for name in ("eps0", "M", "Hhat"):
        a, b = getattr(loaded, name), getattr(tensors, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tensors_json_roundtrip():
    cell = laminate_cell(16)
    tensors, _ = compute_effective_tensors(cell, CONTRAST, tol=1e-11, second_order=False)
    text = tensors.to_json()
    data = json.loads(text)
    assert set(data) == {"p", "eps0", "M", "Hhat", "provenance"}
    loaded = EffectiveTensors.from_json(text)
    assert loaded.p == tensors.p
    assert np.array_equal(loaded.eps0, tensors.eps0)
    assert np.array_equal(loaded.M, tensors.M)
    assert np.array_equal(loaded.Hhat, tensors.Hhat)

