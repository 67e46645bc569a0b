from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pnp_upscale.cellcorrect import CorrectorSet
from pnp_upscale.macropnp import MacroConfig, MacroState, free_energy, march, step_macro_pnp
from pnp_upscale.microdns import (
    BudgetError,
    MicroDomain,
    assemble_micro_domain,
    compare_fields,
    reconstruct_two_scale,
    run_micro,
    step_micro_pnp,
    interpolate_to_fine,
)
from pnp_upscale.unitcell import (PermittivityParams, UnitCell, build_unit_cell,
                                  permittivity_field, porosity)
from pnp_upscale.upscale import EffectiveTensors

import oracles
from conftest import CONTRAST, rel_l2
from test_box_solver import random_masks


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


@pytest.mark.parametrize("dim", [2, 3])
def test_the_domain_derives_s_mask_and_coefficient_from_its_tiles(dim):
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": dim}, 8)
    reps = (2,) * dim
    for dom in (assemble_micro_domain(cell, CONTRAST, Fraction(1, 2)),
                MicroDomain(tiles=2, cell=cell, params=CONTRAST)):
        assert dom.s == 0.5 and dom.resolution == 16
        assert np.array_equal(dom.mask, np.tile(cell.fluid_mask, reps))
        assert np.array_equal(dom.eps, np.tile(permittivity_field(cell, CONTRAST), reps))
    with pytest.raises(TypeError):
        MicroDomain(s=0.25, tiles=2, cell=cell, params=CONTRAST)


def test_budget_error():
    cell = build_unit_cell({"kind": "full", "dim": 2}, 32)
    with pytest.raises(BudgetError, match="budget"):
        assemble_micro_domain(cell, CONTRAST, Fraction(1, 8), max_cells=1000)


def test_bad_scale_ratio():
    # the micro.s rule of the config file
    cell = build_unit_cell({"kind": "full", "dim": 2}, 8)
    with pytest.raises(ValueError, match="is not the inverse of an integer"):
        assemble_micro_domain(cell, CONTRAST, 0.3)


@pytest.mark.parametrize("tiles", [0, -1, 1.5])
def test_tile_count_is_a_positive_integer(tiles):
    cell = build_unit_cell({"kind": "full", "dim": 2}, 8)
    with pytest.raises(ValueError, match="tile count must be a positive integer"):
        MicroDomain(tiles=tiles, cell=cell, params=CONTRAST)


# ---------------------------------------------------------------------------
# Poisson


def test_micro_poisson_zero_charge():
    dom = full_domain(8, 4)
    z = np.zeros(dom.mask.shape)
    assert np.all(dom.operators().potential(z, z, 1e-10)[0] == 0.0)


def test_micro_poisson_eigenfunction():
    dom = full_domain(8, 8, lam=0.5)  # eps = 0.25
    M = dom.resolution
    X, _ = grid2(M)
    phi, _, _ = dom.operators().potential(1.0 + np.cos(np.pi * X), np.ones((M, M)), 1e-10)
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
        sols[m] = dom.operators().potential(q, np.zeros_like(q), 1e-10)[0]
    coarse = sols[8]
    fine = sols[16].reshape(64, 2, 64, 2).mean(axis=(1, 3))
    assert rel_l2(coarse, fine) < 1e-3


# ---------------------------------------------------------------------------
# stepping


def test_zero_densities_forever():
    dom = full_domain(8, 4)
    z = np.zeros(dom.mask.shape)
    state = MacroState(u1=z.copy(), u2=z.copy(), u3=z.copy())
    cfg = MacroConfig(dt=1e-3, t_end=1e-3)
    for _ in range(3):
        state, _ = step_micro_pnp(state, dom, cfg)
        assert np.all(state.u1 == 0.0) and np.all(state.u2 == 0.0)
        assert np.all(state.u3 == 0.0)


@pytest.mark.parametrize("dt, k", [(1e-3, 3), (0.1, 3), (0.7, 3)])
def test_run_micro_makes_t_end_over_dt_steps(dt, k):
    # k dt / dt rounds to 3 + 4e-16 at dt = 0.1 and to 3 - 4e-16 at dt = 0.7
    dom = full_domain(4, 2)
    ones = np.ones(dom.mask.shape)
    init = MacroState(u1=ones, u2=ones, u3=np.zeros_like(ones))
    state, rows = run_micro(dom, init, MacroConfig(dt=dt, t_end=k * dt))
    assert len(rows) == k
    assert state.t == rows[-1]["t"] == pytest.approx(k * dt)


@pytest.mark.parametrize("bc", ["dirichlet", "noflux"])
def test_a_step_without_operators_gives_the_bits_of_the_runs(bc):
    # each step builds the grid's operators afresh, where the run steps on
    # the one set it built, whose solvers are warm from the earlier steps;
    # from the third step on, the steps start from the predictor
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 8)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    X, Y = grid2(dom.resolution)
    n0 = (1 + 0.3 * np.cos(np.pi * X) * np.sin(np.pi * Y)) * dom.mask
    cfg = MacroConfig(dt=1e-3, t_end=4e-3, bc=bc)

    def init():
        return MacroState(u1=n0.copy(), u2=1.0 * dom.mask, u3=np.zeros_like(n0))

    final, rows = run_micro(dom, init(), cfg)
    steps = list(march(lambda held, start: step_micro_pnp(held, dom, cfg, start=start),
                       init(), cfg.n_steps))
    assert [info["picard_iters"] for _, info in steps] == [row["picard_iters"] for row in rows]
    for name in ("u1", "u2", "u3"):
        assert getattr(steps[-1][0], name).tobytes() == getattr(final, name).tobytes()


def test_conservation_noflux():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    M = dom.resolution
    X, Y = grid2(M)
    n0 = (1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)) * dom.mask
    init = MacroState(u1=n0.copy(), u2=1.0 * dom.mask, u3=np.zeros_like(n0))
    _, rows = run_micro(dom, init, MacroConfig(dt=1e-3, t_end=5e-3, bc="noflux"))
    m1 = n0.mean()
    m2 = dom.mask.mean()
    for r in rows:
        assert abs(r["mass1"] - m1) <= 1e-10
        assert abs(r["mass2"] - m2) <= 1e-10


def random_mask_domain(mask, alpha):
    """The DNS grid at s = 1/2 of the cell with fluid ``mask``."""
    cell = UnitCell(dim=mask.ndim, resolution=mask.shape[0], fluid_mask=mask,
                    geometry_spec={"kind": "mask"})
    return MicroDomain(tiles=2, cell=cell, params=PermittivityParams(lam=1.0, alpha=alpha))


def dns_states(dom, ops, init, cfg):
    """The initial state and the accepted state of each step of cfg, on the
    grid's operators ``ops``."""
    yield init
    for state, _ in march(lambda held, start: step_micro_pnp(held, dom, cfg, start=start,
                                                             ops=ops),
                          init, cfg.n_steps):
        yield state


@settings(max_examples=60)
@given(random_masks(), st.floats(0.25, 100.0), st.floats(1e-4, 1e-2),
       st.sampled_from(["upwind", "central"]), st.integers(0, 2**32 - 1))
def test_noflux_dns_invariants_on_random_masks(mask, alpha, dt, drift, seed):
    # 3 no-flux steps from random densities on the fluid, whose potential
    # is the initial u3.  The masked diffusion solve stops at lin_tol, then
    # shifts its fluid values by the mean residual: each step conserves
    # mass to rounding
    assume(mask.any())
    dom = random_mask_domain(mask, alpha)
    cfg = MacroConfig(dt=dt, t_end=3 * dt, bc="noflux", drift=drift)
    rng = np.random.default_rng(seed)
    u1, u2 = ((1.0 + 0.5 * rng.random(dom.mask.shape)) * dom.mask for _ in range(2))
    ops = dom.operators()
    u3 = ops.potential(u1, u2, cfg.lin_tol)[0]
    states = list(dns_states(dom, ops, MacroState(u1=u1, u2=u2, u3=u3), cfg))
    assert len(states) == 4
    for old, new in zip(states, states[1:]):
        for name in ("u1", "u2"):
            mass, new_mass = getattr(old, name).sum(), getattr(new, name).sum()
            assert abs(new_mass - mass) <= 1e-13 * mass
            if drift == "upwind":
                assert (getattr(new, name)[dom.mask] > 0.0).all()
        assert free_energy(new, 1.0) <= free_energy(old, 1.0)
    # equal uniform densities are a fixed point of every step, exactly
    c = 1.0 + rng.random()
    uniform = MacroState(u1=c * dom.mask, u2=c * dom.mask, u3=np.zeros(dom.mask.shape))
    for state in dns_states(dom, ops, uniform, cfg):
        assert np.array_equal(state.u1, uniform.u1) and np.array_equal(state.u2, uniform.u2)
        assert not state.u3.any()


def test_densities_stay_zero_on_solid():
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 16)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    M = dom.resolution
    X, Y = grid2(M)
    n0 = (1 + 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)) * dom.mask
    state = MacroState(u1=n0, u2=1.0 * dom.mask, u3=np.zeros_like(n0))
    for _ in range(3):
        state, _ = step_micro_pnp(state, dom, MacroConfig(dt=1e-3, t_end=1e-3))
    solid = ~dom.mask
    assert np.all(state.u1[solid] == 0.0)
    assert np.all(state.u2[solid] == 0.0)


def test_refined_step_oracle():
    # same solver with dt/10 is the reference; backward-Euler time error
    # scales linearly in dt so the budget covers it comfortably
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 4))
    M = dom.resolution
    X, Y = grid2(M)
    n0 = (1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)) * dom.mask
    coarse, _ = run_micro(
        dom, MacroState(u1=n0.copy(), u2=1.0 * dom.mask, u3=np.zeros_like(n0)),
        MacroConfig(dt=1e-4, t_end=1e-2, bc="noflux"),
    )
    fine, _ = run_micro(
        dom, MacroState(u1=n0.copy(), u2=1.0 * dom.mask, u3=np.zeros_like(n0)),
        MacroConfig(dt=1e-5, t_end=1e-2, bc="noflux"),
    )
    err = compare_fields(coarse.u1, fine.u1, mask=dom.mask)
    assert err.l2_rel < 1e-4


def test_constant_coefficient_reduction():
    # full fluid cell, constant permittivity: the DNS and the upscaled model
    # are the same discrete system, so matched grids agree to solver noise
    dom = full_domain(8, 4)
    M = dom.resolution
    X, Y = grid2(M)
    n0 = 1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    tensors = EffectiveTensors(p=1.0, eps0=np.eye(2), M=np.eye(2),
                               Hhat=np.zeros((2, 2)))
    mstate = MacroState(u1=n0.copy(), u2=np.ones_like(n0), u3=np.zeros_like(n0))
    mcfg = MacroConfig(dt=1e-3, t_end=0.01)
    istate = MacroState(u1=n0.copy(), u2=np.ones_like(n0), u3=np.zeros_like(n0))
    for _ in range(10):
        mstate, _ = step_macro_pnp(mstate, tensors, mcfg)
        istate, _ = step_micro_pnp(istate, dom, mcfg)
    assert rel_l2(mstate.u1, istate.u1) < 1e-3
    assert rel_l2(mstate.u2, istate.u2) < 1e-3
    assert np.abs(mstate.u3 - istate.u3).max() < 1e-9


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
    assert np.allclose(recon.u3, phi_interp - phi_interp.mean(), atol=1e-14)
    assert np.allclose(recon.u1, interpolate_to_fine(macro.u1, dom.mask.shape), atol=1e-14)


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
    assert np.abs(recon.u3).max() < 1e-13
    assert np.allclose(recon.u1[dom.mask], 2.0)


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
