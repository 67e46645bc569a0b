"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pnp_upscale.cellcorrect import solve_potential_corrector
from pnp_upscale.cli import run_validation
from pnp_upscale.config import RunConfig
from pnp_upscale.macropnp import (
    GridOperators,
    MacroConfig,
    MacroState,
    check_local_equilibrium,
    free_energy,
    run_macro,
    step_macro_pnp,
)
from pnp_upscale.microdns import assemble_micro_domain, run_micro, step_micro_pnp
from pnp_upscale.unitcell import (
    PermittivityParams,
    UnitCell,
    build_unit_cell,
    permittivity_field,
)
from pnp_upscale.upscale import (
    EffectiveTensors,
    compute_effective_tensors,
    effective_permittivity,
    permittivity_bounds,
)

import oracles
from conftest import checkerboard_cell, rel_l2


@contextmanager
def verdict(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} PASS: {title} ({elapsed:.2f}s)")


def classical_tensors(dim, eps=1.0, p=1.0):
    return EffectiveTensors(dim=dim, p=p, eps0=eps * np.eye(dim), M=np.eye(dim),
                            Hhat=np.zeros((dim, dim)))


def grid2(m):
    c = (np.arange(m) + 0.5) / m
    return np.meshgrid(c, c, indexing="ij")


def test_01_homogeneous_reduction():
    with verdict(1, "homogeneous reduction: trivial tensors on the full cell"):
        start = time.perf_counter()
        cell = build_unit_cell({"kind": "full", "dim": 2}, 64)
        params = PermittivityParams(lam=0.1, alpha=0.01)  # kappa = 0.01 everywhere
        tensors, correctors = compute_effective_tensors(cell, params, tol=1e-10)
        elapsed = time.perf_counter() - start
        assert np.abs(correctors.xi3).max() <= 1e-9
        assert np.abs(correctors.eta).max() <= 1e-9
        assert np.abs(tensors.eps0 - 0.01 * np.eye(2)).max() <= 1e-9
        assert np.abs(tensors.M - np.eye(2)).max() <= 1e-9
        assert np.abs(tensors.Hhat).max() <= 1e-9
        assert elapsed < 1.0


def test_02_laminate_tensor():
    with verdict(2, "laminate effective permittivity diag(1.6, 2.5)"):
        start = time.perf_counter()
        cell = build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 2}, 128)
        kappa = permittivity_field(cell, PermittivityParams(lam=1.0, alpha=4.0))
        xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
        eps0 = effective_permittivity(cell, kappa, xi3)
        elapsed = time.perf_counter() - start
        target = np.diag([oracles.LAMINATE_Q, oracles.LAMINATE_TRANSVERSE])
        assert np.abs(eps0 - target).max() / np.abs(target).max() <= 1e-6
        assert elapsed < 5.0


def test_03_checkerboard_duality():
    with verdict(3, "checkerboard duality: eps0 -> 2.0 I under refinement"):
        params = PermittivityParams(lam=1.0, alpha=4.0)
        errs = []
        for m in (64, 128, 256):
            cell = checkerboard_cell(m)
            kappa = permittivity_field(cell, params)
            xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
            eps0 = effective_permittivity(cell, kappa, xi3)
            errs.append(np.abs(eps0 - 2.0 * np.eye(2)).max() / 2.0)
        assert errs[-1] <= 0.02
        assert errs[0] > errs[1] > errs[2]


def test_04_tensor_structure():
    with verdict(4, "flux/energy identity, spectral bounds, symmetry"):
        params = PermittivityParams(lam=1.0, alpha=4.0)
        rng = np.random.default_rng(12)
        blob = rng.random((32, 32)) < 0.75
        blob[0, :] = True  # keep one fluid channel; connectivity is irrelevant here
        geometries = [
            build_unit_cell({"kind": "full", "dim": 2}, 32),
            build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 2}, 32),
            build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 64),
            checkerboard_cell(32),
            UnitCell(dim=2, resolution=32, fluid_mask=blob, geometry_spec={"kind": "mask"}),
        ]
        for cell in geometries:
            kappa = permittivity_field(cell, params)
            xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
            # raises if the flux and energy quadratures disagree beyond 1e-8
            eps0 = effective_permittivity(cell, kappa, xi3)
            harm, arith = permittivity_bounds(kappa)
            eigs = np.linalg.eigvalsh(0.5 * (eps0 + eps0.T))
            slack = 1e-6 * arith
            assert eigs.min() >= harm - slack and eigs.max() <= arith + slack
            scale = np.abs(eps0).max()
            assert np.abs(eps0 - eps0.T).max() <= 1e-8 * scale


def test_05_macro_poisson_eigenfunction():
    with verdict(5, "anisotropic Neumann eigenfunction at second order"):
        start = time.perf_counter()
        errs = []
        for m in (32, 64, 128):
            X, _ = grid2(m)
            ops = GridOperators((m, m), 1.0, tensor=np.diag([1.6, 2.5]))
            u3, _, _ = ops.potential(1.0 + np.cos(np.pi * X), np.ones((m, m)), 1e-10)
            errs.append(np.abs(u3 - np.cos(np.pi * X) / (1.6 * np.pi**2)).max())
        elapsed = time.perf_counter() - start
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9
        # eigenvalue defect of the 3-point stencil: C = pi^2/12 * |u|, C h^2 bound
        h2 = (1.0 / 32) ** 2
        assert errs[0] <= 1.0 * h2
        assert elapsed < 5.0


def test_06_equal_density_symmetry_and_decay():
    with verdict(6, "equal densities: zero potential and heat-mode decay"):
        m, dt = 64, 1e-4
        X, Y = grid2(m)
        mode = np.sin(np.pi * X) * np.sin(np.pi * Y)
        state = MacroState(u1=mode.copy(), u2=mode.copy(), u3=np.zeros_like(mode))
        cfg = MacroConfig(dt=dt, t_end=10 * dt)
        target = np.exp(-2 * np.pi**2 * dt)
        for _ in range(10):
            prev = state.u1.sum()
            state, _ = step_macro_pnp(state, classical_tensors(2), cfg)
            assert np.abs(state.u3).max() <= 1e-10
            assert np.array_equal(state.u1, state.u2)
            factor = state.u1.sum() / prev
            assert abs(factor - target) / target <= 0.01


def test_07_picard_fixed_point():
    with verdict(7, "Picard contraction on the 1D benchmark"):
        M = 64
        x = (np.arange(M) + 0.5) / M
        counts = {}
        for dt in (1e-3, 5e-4):
            state = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M),
                               u3=np.zeros(M))
            cfg = MacroConfig(dt=dt, t_end=10 * dt, picard_tol=1e-10)
            worst = 0
            for _ in range(10):
                state, info = step_macro_pnp(state, classical_tensors(1), cfg)
                worst = max(worst, info.picard_iters)
                inc = info.increments
                assert all(inc[i + 1] < inc[i] for i in range(len(inc) - 1))
            counts[dt] = worst
        assert counts[1e-3] <= 10
        assert counts[5e-4] <= counts[1e-3]


def test_08_oracle_equivalence():
    with verdict(8, "1D run matches the refined explicit reference"):
        start = time.perf_counter()
        M, dt, T = 64, 5e-5, 0.05
        x = (np.arange(M) + 0.5) / M
        init = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M),
                          u3=np.zeros(M))
        cfg = MacroConfig(dt=dt, t_end=T, drift="central",
                          picard_tol=1e-11)
        final, _ = run_macro(cfg, classical_tensors(1), init)
        # reference: 4x finer grid, 10x finer steps, forward Euler + central
        ref1, ref2 = oracles.explicit_pnp_1d(4 * M, dt / 10, int(round(T / (dt / 10))))
        elapsed = time.perf_counter() - start
        assert rel_l2(final.u1, ref1.reshape(M, 4).mean(axis=1)) <= 1e-3
        assert rel_l2(final.u2, ref2.reshape(M, 4).mean(axis=1)) <= 1e-3
        assert elapsed < 30.0


def test_09_micro_macro_trivial_consistency():
    with verdict(9, "DNS equals the upscaled run for a trivial geometry"):
        cell = build_unit_cell({"kind": "full", "dim": 2}, 8)
        dom = assemble_micro_domain(cell, PermittivityParams(lam=1.0, alpha=1.0),
                                    Fraction(1, 8))
        M = dom.resolution
        X, Y = grid2(M)
        n0 = 1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        mstate = MacroState(u1=n0.copy(), u2=np.ones_like(n0), u3=np.zeros_like(n0))
        istate = MacroState(u1=n0.copy(), u2=np.ones_like(n0), u3=np.zeros_like(n0))
        mcfg = MacroConfig(dt=1e-3, t_end=0.01)
        for _ in range(10):
            mstate, _ = step_macro_pnp(mstate, classical_tensors(2), mcfg)
            istate, _ = step_micro_pnp(istate, dom, mcfg)
        assert rel_l2(mstate.u1, istate.u1) <= 1e-3
        assert rel_l2(mstate.u2, istate.u2) <= 1e-3


def test_10_s_convergence():
    with verdict(10, "scale-ratio sweep: reconstruction error decreases"):
        start = time.perf_counter()
        cfg = RunConfig(
            cell_kind="disc", cell_dim=2, cell_resolution=32, cell_radius=0.25,
            lam=1.0, alpha=4.0,
            macro_resolution=64, macro_dt=1e-3, macro_t_end=5e-3,
            macro_init="asymmetric", macro_init_amplitude=0.5,
            micro_s=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
        )
        rows = run_validation(cfg)
        elapsed = time.perf_counter() - start
        recon = [r["err_phi_recon_L2"] for r in rows]
        macro_only = [r["err_phi_L2"] for r in rows]
        assert recon[0] > recon[1] > recon[2]
        assert recon[2] < macro_only[2]
        assert elapsed < 600.0


def test_11_conservation_and_energy():
    with verdict(11, "no-flux mass conservation and energy decay"):
        # macro side
        M = 64
        x = (np.arange(M) + 0.5) / M
        init = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M),
                          u3=np.zeros(M))
        cfg = MacroConfig(dt=1e-3, t_end=0.05, bc="noflux")
        _, rows = run_macro(cfg, classical_tensors(1), init)
        m1, m2 = init.u1.mean(), init.u2.mean()
        for r in rows:
            assert abs(r["mass1"] - m1) <= 1e-10
            assert abs(r["mass2"] - m2) <= 1e-10
        series = [free_energy(init, 1.0)] + [r["free_energy"] for r in rows]
        assert max(np.diff(series)) <= 1e-8
        # micro side
        cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
        dom = assemble_micro_domain(cell, PermittivityParams(lam=1.0, alpha=4.0),
                                    Fraction(1, 4))
        Mf = dom.resolution
        X, Y = grid2(Mf)
        n0 = (1 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)) * dom.mask
        micro_init = MacroState(u1=n0.copy(), u2=1.0 * dom.mask, u3=np.zeros_like(n0))
        _, micro_rows = run_micro(dom, micro_init,
                                  MacroConfig(dt=1e-3, t_end=0.02, bc="noflux"))
        for r in micro_rows:
            assert abs(r["mass1"] - n0.mean()) <= 1e-10
            assert abs(r["mass2"] - dom.mask.mean()) <= 1e-10


def test_12_local_equilibrium_diagnostic():
    with verdict(12, "Boltzmann-related states have zero potential spread"):
        rng = np.random.default_rng(21)
        m = 64
        X, Y = grid2(m)
        for u3 in (
            rng.normal(size=(m, m)) * 0.5,
            np.sin(np.pi * X) * np.cos(2 * np.pi * Y),
            np.zeros((m, m)),
        ):
            state = MacroState(u1=np.exp(-u3), u2=np.exp(u3), u3=u3)
            assert check_local_equilibrium(state, 4) <= 1e-12
            assert check_local_equilibrium(state, 8) <= 1e-12
