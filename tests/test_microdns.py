from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_upscale.cellcorrect import CorrectorSet
from pnp_upscale.macropnp import MacroConfig, MacroState, StepConfig, step_macro_pnp
from pnp_upscale.microdns import (
    BudgetError,
    MicroState,
    assemble_micro_domain,
    compare_fields,
    reconstruct_two_scale,
    run_micro,
    solve_micro_poisson,
    step_micro_pnp,
    interpolate_to_fine,
)
from pnp_upscale.unitcell import PermittivityParams, build_unit_cell, porosity
from pnp_upscale.upscale import EffectiveTensors

import oracles
from conftest import CONTRAST, rel_l2


def grid2(m):
    c = (np.arange(m) + 0.5) / m
    return np.meshgrid(c, c, indexing="ij")


def full_domain(m, tiles, lam=1.0):
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    return assemble_micro_domain(
        cell, PermittivityParams(lam=lam, alpha=lam * lam), Fraction(1, tiles)
    )


# ---------------------------------------------------------------------------
# domain assembly


def test_tiling_exact():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 4))
    assert dom.tiles == 4 and dom.resolution == 64
    assert dom.mask.mean() == porosity(cell)
    assert np.array_equal(dom.mask, np.tile(cell.fluid_mask, (4, 4)))
    assert set(np.unique(dom.eps)) == {1.0, 4.0}


def test_full_cell_uniform():
    dom = full_domain(8, 8, lam=0.5)
    assert dom.mask.all()
    assert np.all(dom.eps == 0.25)


def test_budget_error():
    cell = build_unit_cell({"kind": "full", "dim": 2}, 32)
    with pytest.raises(BudgetError, match="budget"):
        assemble_micro_domain(cell, CONTRAST, Fraction(1, 8), max_cells=1000)


def test_bad_scale_ratio():
    cell = build_unit_cell({"kind": "full", "dim": 2}, 8)
    with pytest.raises(ValueError, match="1/integer"):
        assemble_micro_domain(cell, CONTRAST, 0.3)


# ---------------------------------------------------------------------------
# Poisson


def test_micro_poisson_zero_charge():
    dom = full_domain(8, 4)
    z = np.zeros(dom.mask.shape)
    assert np.all(solve_micro_poisson(dom, z, z) == 0.0)


def test_micro_poisson_eigenfunction():
    dom = full_domain(8, 8, lam=0.5)  # eps = 0.25
    M = dom.resolution
    X, _ = grid2(M)
    phi = solve_micro_poisson(dom, 1.0 + np.cos(np.pi * X), np.ones((M, M)))
    exact = np.cos(np.pi * X) / (0.25 * np.pi**2)
    assert np.abs(phi - exact).max() / np.abs(exact).max() < 1e-3


def test_micro_poisson_laminate_refinement():
    # matched coefficient profile at two resolutions, smooth neutral charge
    sols = {}
    for m in (8, 16):
        cell = build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 2}, m)
        dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 8))
        M = dom.resolution
        X, Y = grid2(M)
        q = np.cos(np.pi * X) * np.cos(np.pi * Y)
        sols[m] = solve_micro_poisson(dom, q, np.zeros_like(q))
    coarse = sols[8]
    fine = sols[16].reshape(64, 2, 64, 2).mean(axis=(1, 3))
    assert rel_l2(coarse, fine) < 1e-3


# ---------------------------------------------------------------------------
# stepping


def test_zero_densities_forever():
    dom = full_domain(8, 4)
    z = np.zeros(dom.mask.shape)
    state = MicroState(nplus=z.copy(), nminus=z.copy(), phi=z.copy())
    cfg = StepConfig()
    for _ in range(3):
        state, _ = step_micro_pnp(state, dom, 1e-3, cfg)
        assert np.all(state.nplus == 0.0) and np.all(state.nminus == 0.0)
        assert np.all(state.phi == 0.0)


def test_conservation_noflux():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    M = dom.resolution
    X, Y = grid2(M)
    n0 = (1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)) * dom.mask
    init = MicroState(nplus=n0.copy(), nminus=1.0 * dom.mask, phi=np.zeros_like(n0))
    _, rows = run_micro(dom, init, 1e-3, 5, StepConfig(bc="noflux"))
    m1 = n0.mean()
    m2 = dom.mask.mean()
    for r in rows:
        assert abs(r["mass1"] - m1) <= 1e-10
        assert abs(r["mass2"] - m2) <= 1e-10


def test_densities_stay_zero_on_solid():
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 16)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    M = dom.resolution
    X, Y = grid2(M)
    n0 = (1 + 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)) * dom.mask
    state = MicroState(nplus=n0, nminus=1.0 * dom.mask, phi=np.zeros_like(n0))
    for _ in range(3):
        state, _ = step_micro_pnp(state, dom, 1e-3, StepConfig())
    solid = ~dom.mask
    assert np.all(state.nplus[solid] == 0.0)
    assert np.all(state.nminus[solid] == 0.0)


def test_refined_step_oracle():
    # same solver with dt/10 is the reference; backward-Euler time error
    # scales linearly in dt so the budget covers it comfortably
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 4))
    M = dom.resolution
    X, Y = grid2(M)
    n0 = (1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)) * dom.mask
    cfg = StepConfig(bc="noflux")
    coarse, _ = run_micro(
        dom, MicroState(nplus=n0.copy(), nminus=1.0 * dom.mask, phi=np.zeros_like(n0)),
        1e-4, 100, cfg,
    )
    fine, _ = run_micro(
        dom, MicroState(nplus=n0.copy(), nminus=1.0 * dom.mask, phi=np.zeros_like(n0)),
        1e-5, 1000, cfg,
    )
    err = compare_fields(coarse.nplus, fine.nplus, mask=dom.mask)
    assert err.l2_rel < 1e-4


def test_constant_coefficient_reduction():
    # full fluid cell, constant permittivity: the DNS and the upscaled model
    # are the same discrete system, so matched grids agree to solver noise
    dom = full_domain(8, 4)
    M = dom.resolution
    X, Y = grid2(M)
    n0 = 1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    tensors = EffectiveTensors(dim=2, p=1.0, eps0=np.eye(2), M=np.eye(2),
                               Hhat=np.zeros((2, 2)))
    mstate = MacroState(u1=n0.copy(), u2=np.ones_like(n0), u3=np.zeros_like(n0))
    mcfg = MacroConfig(dt=1e-3, t_end=0.01)
    istate = MicroState(nplus=n0.copy(), nminus=np.ones_like(n0), phi=np.zeros_like(n0))
    icfg = StepConfig()
    for _ in range(10):
        mstate, _ = step_macro_pnp(mstate, tensors, mcfg)
        istate, _ = step_micro_pnp(istate, dom, 1e-3, icfg)
    assert rel_l2(mstate.u1, istate.nplus) < 1e-3
    assert rel_l2(mstate.u2, istate.nminus) < 1e-3
    assert np.abs(mstate.u3 - istate.phi).max() < 1e-9


# ---------------------------------------------------------------------------
# reconstruction and comparison


def _zero_correctors(m, dim=2):
    return CorrectorSet(
        xi3=np.zeros((dim,) + (m,) * dim),
        eta=np.zeros((dim,) + (m,) * dim),
        zeta3=np.zeros((dim, dim) + (m,) * dim),
    )


@settings(max_examples=200)
@given(st.integers(1, 3), st.data())
def test_interpolation_matches_map_coordinates(dim, data):
    # coarse grids from one cell up, fine grids at any ratio, integer or not
    coarse = tuple(data.draw(st.integers(1, 9)) for _ in range(dim))
    fine = tuple(data.draw(st.integers(1, 21)) for _ in range(dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    field_c = rng.standard_normal(coarse) * 10.0 ** data.draw(st.floats(-6, 6))
    got = interpolate_to_fine(field_c, fine)
    ref = oracles.map_coordinates_interpolation(field_c, fine)
    assert got.shape == ref.shape == fine
    assert np.abs(got - ref).max() <= 4e-15 * np.abs(field_c).max()


def test_reconstruction_zero_correctors_is_interpolation():
    m = 8
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 4))
    Mx = 16
    X, Y = grid2(Mx)
    macro = MacroState(u1=1 + 0.2 * X, u2=1 - 0.1 * Y, u3=np.sin(np.pi * X))
    recon = reconstruct_two_scale(macro, _zero_correctors(m), dom)
    phi_interp = interpolate_to_fine(macro.u3, dom.mask.shape)
    assert np.allclose(recon.phi, phi_interp - phi_interp.mean(), atol=1e-14)
    assert np.allclose(recon.nplus, interpolate_to_fine(macro.u1, dom.mask.shape), atol=1e-14)


def test_reconstruction_constant_macro_potential():
    m = 8
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, m)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    Mx = 16
    rng = np.random.default_rng(9)
    correctors = CorrectorSet(
        xi3=rng.normal(size=(2, m, m)),
        eta=rng.normal(size=(2, m, m)),
        zeta3=rng.normal(size=(2, 2, m, m)),
    )
    macro = MacroState(u1=np.full((Mx, Mx), 2.0), u2=np.ones((Mx, Mx)),
                       u3=np.full((Mx, Mx), 3.0))
    recon = reconstruct_two_scale(macro, correctors, dom)
    # constant macro potential: every corrector term carries a zero gradient
    assert np.abs(recon.phi).max() < 1e-13
    assert np.allclose(recon.nplus[dom.mask], 2.0)


def test_reconstruction_missing_zeta_warns(caplog):
    import logging

    m = 8
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    macro = MacroState(u1=np.ones((16, 16)), u2=np.ones((16, 16)),
                       u3=np.zeros((16, 16)))
    correctors = CorrectorSet(xi3=np.zeros((2, m, m)), eta=np.zeros((2, m, m)),
                              zeta3=None)
    with caplog.at_level(logging.WARNING):
        reconstruct_two_scale(macro, correctors, dom)
    assert any("second-order" in rec.message for rec in caplog.records)


def test_laminate_reconstruction_beats_macro_only():
    # the reconstructed potential captures the piecewise-linear oscillation,
    # so its DNS residual must undercut the smooth macro-only comparison
    from fractions import Fraction as F

    from pnp_upscale.cli import run_validation
    from pnp_upscale.config import RunConfig

    cfg = RunConfig(
        cell_kind="laminate", cell_dim=2, cell_resolution=16, cell_fraction=0.5,
        lam=1.0, alpha=4.0,
        macro_resolution=64, macro_dt=1e-3, macro_t_end=3e-3,
        micro_s=(F(1, 8),),
    )
    row = run_validation(cfg)[0]
    assert row["err_phi_recon_L2"] < row["err_phi_L2"]


def test_compare_fields():
    a = np.ones((8, 8))
    rep = compare_fields(a, a)
    assert rep.l2_abs == 0.0 and rep.linf_abs == 0.0
    rep = compare_fields(a + 0.5, a)
    assert rep.l2_abs == pytest.approx(0.5)
    assert rep.l2_rel == pytest.approx(0.5)
    with pytest.raises(ValueError, match="mismatch"):
        compare_fields(a, np.ones((4, 4)))
    mask = np.zeros((8, 8), bool)
    mask[0, 0] = True
    b = a.copy()
    b[0, 0] += 2.0
    rep = compare_fields(b, a, mask=mask)
    assert rep.linf_abs == pytest.approx(2.0)
