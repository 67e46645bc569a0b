import numpy as np
import pytest

from pnp_upscale.cellcorrect import (
    PeriodicEllipticProblem,
    SolverError,
    apply_periodic_operator,
    face_gradient,
    harmonic_face_coefficients,
    solve_density_corrector_shape,
    solve_periodic_elliptic,
    solve_potential_corrector,
    solve_second_order_potential_corrector,
)
from pnp_upscale.unitcell import (
    GeometryError,
    build_unit_cell,
    permittivity_field,
)
from pnp_upscale.upscale import effective_permittivity

import oracles
from conftest import CONTRAST, checkerboard_cell, rel_l2


def centers(m):
    return (np.arange(m) + 0.5) / m


def grid2(m):
    c = centers(m)
    return np.meshgrid(c, c, indexing="ij")


def laminate_cell(m, axis=0):
    return build_unit_cell(
        {"kind": "laminate", "fraction": 0.5, "axis": axis, "dim": 2}, m
    )


# ---------------------------------------------------------------------------
# periodic elliptic core


def test_fourier_eigenfunction():
    m = 64
    Y1, _ = grid2(m)
    f = np.sin(2 * np.pi * Y1)
    u = solve_periodic_elliptic(PeriodicEllipticProblem(np.ones((m, m)), f))
    exact = np.sin(2 * np.pi * Y1) / (4 * np.pi**2)
    # eigenvalue mismatch of the 3-point stencil is (2 pi h)^2 / 12 relative
    assert np.abs(u - exact).max() / np.abs(exact).max() < 2e-3


def test_zero_rhs():
    m = 16
    u = solve_periodic_elliptic(PeriodicEllipticProblem(np.ones((m, m)), np.zeros((m, m))))
    assert np.all(u == 0.0)


def test_manufactured_discrete_operator():
    # oracle: apply the discrete operator to a known field, then recover it
    m = 48
    Y1, Y2 = grid2(m)
    ustar = np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
    ustar -= ustar.mean()
    kappa = 2.0 + np.sin(2 * np.pi * Y1)
    faces = harmonic_face_coefficients(kappa)
    rhs = apply_periodic_operator(ustar, faces, 1.0 / m)
    u = solve_periodic_elliptic(PeriodicEllipticProblem(kappa, rhs), tol=1e-12)
    assert rel_l2(u, ustar) < 1e-10


def test_manufactured_convergence_order():
    errs = []
    for m in (32, 64, 128):
        Y1, Y2 = grid2(m)
        ustar = np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
        kappa = 2.0 + np.sin(2 * np.pi * Y1)
        # f = -div(kappa grad u*) for the trigonometric test pair
        f = (
            8 * np.pi**2 * kappa * ustar
            - 4 * np.pi**2 * np.cos(2 * np.pi * Y1) ** 2 * np.cos(2 * np.pi * Y2)
        )
        u = solve_periodic_elliptic(PeriodicEllipticProblem(kappa, f), tol=1e-11)
        errs.append(np.sqrt(np.mean((u - (ustar - ustar.mean())) ** 2)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_incompatible_rhs():
    m = 8
    with pytest.raises(SolverError, match="singular system incompatible"):
        solve_periodic_elliptic(PeriodicEllipticProblem(np.ones((m, m)), np.ones((m, m))))


def test_iteration_cap_reports_residual():
    m = 32
    Y1, Y2 = grid2(m)
    f = np.sin(2 * np.pi * Y1) + 0.3 * np.sin(4 * np.pi * Y2)
    kappa = 2.0 + np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
    with pytest.raises(SolverError, match="iteration cap"):
        solve_periodic_elliptic(
            PeriodicEllipticProblem(kappa, f), tol=1e-13, max_iter=3
        )


def test_problem_validation():
    m = 8
    with pytest.raises(ValueError, match="positive"):
        PeriodicEllipticProblem(np.zeros((m, m)), np.zeros((m, m)))
    with pytest.raises(ValueError, match="shape"):
        PeriodicEllipticProblem(np.ones((m, m)), np.zeros((m, m + 1)))
    bad = np.zeros((m, m))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PeriodicEllipticProblem(np.ones((m, m)), bad)


# ---------------------------------------------------------------------------
# potential correctors


def test_constant_kappa_gives_zero_correctors():
    cell = build_unit_cell({"kind": "full", "dim": 2}, 16)
    kappa = np.full((16, 16), 0.25)
    xi3, res = solve_potential_corrector(cell, kappa)
    assert np.all(xi3 == 0.0)
    assert max(res) == 0.0


def test_laminate_face_gradients():
    # flux continuity fixes the in-layer gradients at -0.6 / +0.6 (harmonic
    # mean flux 1.6); the transverse corrector vanishes
    m = 16
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    g = face_gradient(xi3[0], 0, cell.h)
    same_low = (kappa == 1.0) & (np.roll(kappa, -1, axis=0) == 1.0)
    same_high = (kappa == 4.0) & (np.roll(kappa, -1, axis=0) == 4.0)
    interface = ~(same_low | same_high)
    assert np.allclose(g[same_low], oracles.LAMINATE_GRAD_LOW, atol=1e-9)
    assert np.allclose(g[same_high], oracles.LAMINATE_GRAD_HIGH, atol=1e-9)
    assert np.allclose(g[interface], 0.0, atol=1e-9)
    assert np.abs(xi3[1]).max() <= 1e-12


def test_laminate_profile_matches_closed_form():
    m = 64
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    profile = oracles.laminate_xi_profile(centers(m))
    assert np.abs(xi3[0][:, 0] - profile).max() < 1e-9


def test_periodic_gradient_mean_vanishes():
    rng = np.random.default_rng(11)
    m = 24
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    kappa = np.exp(rng.normal(size=(m, m)) * 0.5)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    for k in range(2):
        for d in range(2):
            assert abs(face_gradient(xi3[k], d, cell.h).mean()) < 1e-9


def test_mean_zero_and_residual_contract():
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 32)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, res = solve_potential_corrector(cell, kappa, tol=1e-10)
    for k in range(2):
        assert abs(xi3[k].mean()) <= 1e-10 * max(np.abs(xi3[k]).max(), 1e-300)
    assert max(res) <= 1e-10


def test_symmetry_inheritance():
    # swap-invariant geometries: xi_1(y1,y2) = xi_2(y2,y1) voxel-wise
    for cell in (
        build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 32),
        checkerboard_cell(32),
    ):
        kappa = permittivity_field(cell, CONTRAST)
        xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
        scale = max(np.abs(xi3).max(), 1e-300)
        assert np.abs(xi3[0] - xi3[1].T).max() <= 1e-8 * scale


def test_1d_cell():
    m = 32
    cell = build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 1}, m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    eps0 = effective_permittivity(cell, kappa, xi3)
    assert eps0[0, 0] == pytest.approx(oracles.LAMINATE_Q, rel=1e-9)


# ---------------------------------------------------------------------------
# density-corrector shapes


def test_eta_zero_for_zero_xi():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    xi3 = np.zeros((2, 16, 16))
    eta, res = solve_density_corrector_shape(cell, xi3)
    assert np.all(eta == 0.0)


def test_eta_equals_minus_xi_on_full_cell():
    m = 32
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    Y1, Y2 = grid2(m)
    kappa = 2.0 + np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    eta, _ = solve_density_corrector_shape(cell, xi3, tol=1e-12)
    assert np.abs(eta + xi3).max() < 1e-9


def test_eta_disconnected_raises():
    with pytest.raises(GeometryError, match="disconnected"):
        solve_density_corrector_shape(checkerboard_cell(8), np.zeros((2, 8, 8)))


def test_eta_zero_on_solid_and_mean_zero():
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 32)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
    eta, res = solve_density_corrector_shape(cell, xi3, tol=1e-10)
    solid = ~cell.fluid_mask
    for k in range(2):
        assert np.all(eta[k][solid] == 0.0)
        scale = max(np.abs(eta[k]).max(), 1e-300)
        assert abs(eta[k][cell.fluid_mask].mean()) <= 1e-10 * scale
    assert max(res) <= 1e-10


def test_density_corrector_linearity():
    # scaling the right-hand side by the charge-density factor scales the
    # solution: solving with rhs * (z c) must equal z*c*eta voxel-wise
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    eta, _ = solve_density_corrector_shape(cell, xi3, tol=1e-12)
    zc = -2.0
    ones = np.ones_like(kappa)
    faces = harmonic_face_coefficients(ones, cell.fluid_mask)
    rhs = -zc * apply_periodic_operator(xi3[0], faces, cell.h)
    direct = solve_periodic_elliptic(
        PeriodicEllipticProblem(ones, rhs, domain_mask=cell.fluid_mask), tol=1e-12
    )
    assert np.abs(direct - zc * eta[0]).max() <= 1e-12 * max(np.abs(eta).max(), 1e-300)


def test_eta_grid_refinement(disc_correctors):
    cell_c, _, _, eta_c = disc_correctors[64]
    cell_f, _, _, eta_f = disc_correctors[128]
    blocks = eta_f[0].reshape(64, 2, 64, 2).mean(axis=(1, 3))
    children_fluid = cell_f.fluid_mask.reshape(64, 2, 64, 2).all(axis=(1, 3))
    sel = cell_c.fluid_mask & children_fluid
    a = eta_c[0][sel]
    b = blocks[sel]
    a = a - a.mean()
    b = b - b.mean()
    assert rel_l2(a, b) < 0.01


# ---------------------------------------------------------------------------
# second-order potential correctors


def test_zeta_zero_for_constant_kappa():
    m = 16
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    kappa = np.full((m, m), 0.5)
    xi3 = np.zeros((2, m, m))
    eps0 = 0.5 * np.eye(2)
    zeta, res = solve_second_order_potential_corrector(cell, kappa, xi3, eps0)
    assert np.all(zeta == 0.0)


def test_zeta_laminate_dimensional_reduction():
    m = 32
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    eps0 = effective_permittivity(cell, kappa, xi3)
    zeta, res = solve_second_order_potential_corrector(cell, kappa, xi3, eps0, tol=1e-11)
    assert max(res) <= 1e-11
    # profiles depend on y1 only
    for k in range(2):
        for l in range(2):
            assert np.abs(zeta[k, l] - zeta[k, l][:, :1]).max() == 0.0
            scale = max(np.abs(zeta[k, l]).max(), 1e-300)
            assert abs(zeta[k, l].mean()) <= 1e-10 * scale
    # mixed components vanish identically
    assert np.abs(zeta[0, 1]).max() == 0.0
    assert np.abs(zeta[1, 0]).max() == 0.0
    # (1,1): mean-zero antiderivative of the first-order corrector
    oracle11 = oracles.laminate_zeta11_profile(centers(m))
    assert rel_l2(zeta[0, 0][:, 0], oracle11) < 0.015
    # (2,2): independent dense 1D solve of -(kappa z')' = kappa - 2.5
    mf = 512
    kline = np.where(centers(mf) < 0.5, 1.0, 4.0)
    fine = oracles.dense_periodic_solve_1d(kline, kline - oracles.LAMINATE_TRANSVERSE)
    oracle22 = np.interp(centers(m), centers(mf), fine)
    assert rel_l2(zeta[1, 1][:, 0], oracle22) < 0.015


def test_zeta_inconsistent_eps0_raises():
    m = 16
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    eps0 = effective_permittivity(cell, kappa, xi3)
    with pytest.raises(SolverError, match="incompatible"):
        solve_second_order_potential_corrector(cell, kappa, xi3, eps0 + 0.1)
