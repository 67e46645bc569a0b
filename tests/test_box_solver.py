"""SpectralPCG on the box grids: the assembled operators against the
SuperLU oracles, its warm start, the 2D and 3D DNS sizes that SuperLU could
not reach, and the one-iteration solve of a constant coefficient on every
kind of grid."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import pnp_upscale
from pnp_upscale import _fv, _kernels, cellcorrect, cli
from pnp_upscale.cellcorrect import (
    SolverError,
    SpectralPCG,
    harmonic_face_coefficients,
    periodic_operator,
)
from pnp_upscale.macropnp import GridOperators, MacroConfig, MacroState
from pnp_upscale.microdns import assemble_micro_domain, run_micro
from pnp_upscale.unitcell import PermittivityParams, build_unit_cell
from pnp_upscale.upscale import compute_effective_tensors

import oracles


@pytest.fixture()
def box_iterations(monkeypatch):
    """Iteration counts returned by the box-grid solves of the test."""
    counts = []

    def counting(self, *args, _solve=SpectralPCG.solve, **kwargs):
        result = _solve(self, *args, **kwargs)
        if self.bc != "periodic":
            counts.append(result[2])
        return result

    monkeypatch.setattr(SpectralPCG, "solve", counting)
    return counts


def poisson_pair(shape, tensor=None, coef=None):
    """The program's Poisson solver of a box grid, its SuperLU oracle and
    the matrix, rebuilt from the operator the solver applies."""
    ops = GridOperators(shape, tensor=tensor, coef=coef)
    A = oracles.dia_matrix(ops.poisson.apply)
    return ops.poisson, _fv.PinnedNeumannSolver(A), A


def diffusion_pair(shape, dt, p, bc, mask=None):
    ops = GridOperators(shape, p, mask=mask)
    A = oracles.dia_matrix(ops.diffusion(dt, bc).apply)
    return ops.diffusion(dt, bc), _fv.FactorizedSolver(A), A


def in_double(solver, scale, shift=0.0):
    """``solver``'s system with its preconditioner in float64."""
    return SpectralPCG(solver.apply, solver.shape, 1.0 / solver.shape[0], scale,
                       shift, solver.bc, solver.mask, solver.norm_A)


def max_rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("shape", [(64,), (32, 32), (8, 8, 8)])
def test_constant_coefficient_solves_in_one_iteration(shape):
    # on an unmasked box grid the DCT/DST preconditioner is the inverse of a
    # constant-coefficient operator, so one CG step solves it and agrees with
    # the factorization (the periodic cell grid is checked in test_cellcorrect)
    rng = np.random.default_rng(len(shape))
    b = rng.standard_normal(int(np.prod(shape)))
    tensor = np.diag([0.5, 2.0, 7.0][: len(shape)])
    box, lu, _ = poisson_pair(shape, tensor=tensor)
    (x, _, it), (ref, _, _) = box.solve(b, 1e-10), lu.solve(b, 1e-10)
    assert it == 1 and abs(x.mean()) < 1e-12 * np.abs(x).max()
    assert max_rel(x, ref) < 1e-12
    for bc in ("noflux", "dirichlet"):
        box, lu, _ = diffusion_pair(shape, dt=1e-3, p=0.7, bc=bc)
        x, _, it = box.solve(b, 1e-10)
        assert (it, bc) == (1, bc)
        assert max_rel(x, lu.solve(b, 1e-10)[0]) < 1e-12


@st.composite
def random_masks(draw):
    """2D fluid masks with m <= 32 and 3D ones with m <= 8: solid boxes plus
    sparse solid voxels."""
    dim = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(4, 32 if dim == 2 else 8))
    solid = np.zeros((m,) * dim, dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        lo = [draw(st.integers(0, m - 1)) for _ in range(dim)]
        hi = [draw(st.integers(a + 1, m)) for a in lo]
        solid[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    solid |= noise.random(solid.shape) < draw(st.floats(0.0, 0.3))
    return ~solid


@settings(max_examples=60)
@given(random_masks(), st.floats(0.25, 100.0), st.floats(1e-4, 1e-1),
       st.sampled_from(["dirichlet", "noflux"]), st.integers(0, 2**32 - 1))
def test_random_masks_match_superlu(mask, alpha, dt, bc, seed):
    # the DNS solvers precondition in float32 and keep the oracle bounds.
    # On these small grids float64 CG converges superlinearly at high
    # contrast and float32 rounding of the residual spoils it: up to 27 -> 41
    # iterations in 600 random examples, so the count may grow by half
    # (test_single_precision_on_dns_grids pins the workload grids at +2)
    shape = mask.shape
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(mask.size)
    tol = 1e-10
    # whole-box Poisson with the high-contrast coefficient of a DNS grid
    box, lu, A = poisson_pair(shape, coef=np.where(mask, 1.0, alpha))
    assert box.inv_symbol.dtype == np.float32
    (x, cert, iters), (ref, _, _) = box.solve(b, tol), lu.solve(b, tol)
    double = in_double(box, np.ones(mask.ndim)).solve(b, tol)[2]
    assert iters <= double + 2 + double // 2
    bp = b - b.mean()
    backward = np.linalg.norm(A @ x - bp) / (
        lu.norm_A * np.linalg.norm(x) + np.linalg.norm(bp))
    assert backward <= tol and cert <= tol
    assert abs(x.mean()) <= 1e-12 * np.abs(x).max()
    # the backward error bounds the forward error by the condition number,
    # which grows with the contrast
    assert max_rel(x, ref) <= 1e-6
    # masked diffusion: solid cells carry identity rows
    box, lu, A = diffusion_pair(shape, dt, 1.0, bc, mask=mask)
    assert box.inv_symbol.dtype == np.float32
    (x, cert, iters), (ref, _, _) = box.solve(b, tol), lu.solve(b, tol)
    double = in_double(box, np.ones(mask.ndim), 1.0 / dt).solve(b, tol)[2]
    assert iters <= double + 2 + double // 2
    assert np.array_equal(x[~mask.ravel()], b[~mask.ravel()])
    assert np.linalg.norm(A @ x - b) <= tol * np.linalg.norm(b) and cert <= tol
    assert max_rel(x, ref) <= 1e-9


def disc_domain(dim, m, tiles, alpha=4.0):
    """The DNS grid of the r=0.25 disc (sphere in 3D) with ``tiles`` cells per axis."""
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": dim}, m)
    return assemble_micro_domain(cell, PermittivityParams(lam=1.0, alpha=alpha),
                                 Fraction(1, tiles))


@pytest.mark.parametrize("dim, m, tiles", [(2, 32, 2), (3, 8, 3)])
def test_single_precision_on_dns_grids(dim, m, tiles):
    # the DNS grids of the validation workloads (alpha = 4): the float32
    # preconditioner costs at most 2 iterations per solve over float64
    dom = disc_domain(dim, m, tiles)
    ops = dom.operators()
    shape, ones = dom.mask.shape, np.ones(dim)
    rng = np.random.default_rng(dim)
    pairs = [(ops.poisson, in_double(ops.poisson, ones))]
    for bc in ("dirichlet", "noflux"):
        pairs.append((ops.diffusion(1e-3, bc),
                      in_double(ops.diffusion(1e-3, bc), ones, 1e3)))
    for single, double in pairs:
        b = rng.standard_normal(shape)
        (x, _, iters), (ref, _, iters_double) = single.solve(b, 1e-10), double.solve(b, 1e-10)
        assert iters_double <= iters <= iters_double + 2
        assert max_rel(x, ref) <= 1e-8


def test_only_dns_solvers_precondition_in_single_precision(monkeypatch):
    # the DNS grid's per-cell operators precondition in float32; the macro
    # grid keeps float64, since its transform inverts the operator exactly,
    # and so do the cell problems, whose outputs are the stored tensors
    dom = disc_domain(2, 8, 2)
    ops = dom.operators()
    assert ops.poisson.inv_symbol.dtype == np.float32
    for bc in ("dirichlet", "noflux"):
        assert ops.diffusion(1e-3, bc).inv_symbol.dtype == np.float32
    macro = GridOperators((16, 16), 0.7, tensor=np.diag([0.5, 2.0]))
    assert macro.poisson.inv_symbol.dtype == np.float64
    for bc in ("dirichlet", "noflux"):
        assert macro.diffusion(1e-3, bc).inv_symbol.dtype == np.float64
    dtypes = []

    def recording(self, *args, _solve=SpectralPCG.solve, **kwargs):
        dtypes.append(self.inv_symbol.dtype)
        return _solve(self, *args, **kwargs)

    monkeypatch.setattr(SpectralPCG, "solve", recording)
    compute_effective_tensors(dom.cell, PermittivityParams(lam=1.0, alpha=4.0))
    # two xi3 and four zeta3 solves; eta is taken in closed form
    assert len(dtypes) == 6 and set(dtypes) == {np.dtype(np.float64)}


def contrast_mask(shape):
    """A fluid mask with a solid block and scattered solid voxels."""
    mask = np.ones(shape, dtype=bool)
    mask[(slice(shape[0] // 4, shape[0] // 2),) * len(shape)] = False
    mask &= np.random.default_rng(7).random(shape) > 0.1
    return mask


@pytest.mark.parametrize("shape", [(24, 24), (8, 8, 8)])
def test_warm_start_from_the_solution_takes_no_iteration(shape):
    mask = contrast_mask(shape)
    b = np.random.default_rng(3).standard_normal(mask.size)
    poisson, _, _ = poisson_pair(shape, coef=np.where(mask, 1.0, 40.0))
    diffusion, _, _ = diffusion_pair(shape, 1e-3, 1.0, "dirichlet", mask=mask)
    x, _, x_iters = poisson.solve(b, 1e-10)
    y, _, y_iters = diffusion.solve(b, 1e-10)
    assert min(x_iters, y_iters) > 0
    (xw, _, xw_iters), (yw, _, yw_iters) = (poisson.solve(b, 1e-10, x),
                                            diffusion.solve(b, 1e-10, y))
    assert (xw_iters, yw_iters) == (0, 0)
    assert max_rel(xw, x) < 1e-14
    assert np.array_equal(yw, y)


@pytest.mark.parametrize("shape", [(24, 24), (8, 8, 8)])
def test_warm_start_off_the_subspace_returns_the_cold_solution(shape):
    mask = contrast_mask(shape)
    solid = ~mask.ravel()
    rng = np.random.default_rng(5)
    b = rng.standard_normal(mask.size)
    tol = 1e-10
    # a nonzero mean: the singular system only fixes x up to a constant
    poisson, lu, A = poisson_pair(shape, coef=np.where(mask, 1.0, 40.0))
    x, _, _ = poisson.solve(b, tol)
    x0 = x + 0.1 * rng.standard_normal(x.size) + 3.0
    xw, _, _ = poisson.solve(b, tol, x0)
    assert abs(xw.mean()) <= 1e-12 * np.abs(xw).max()
    bp = b - b.mean()
    assert np.linalg.norm(A @ xw - bp) <= tol * (
        lu.norm_A * np.linalg.norm(xw) + np.linalg.norm(bp))
    assert max_rel(xw, x) <= 1e-6
    # junk on the solid cells: their identity rows pin them to the rhs
    diffusion, _, A = diffusion_pair(shape, 1e-3, 1.0, "noflux", mask=mask)
    y, _, _ = diffusion.solve(b, tol)
    y0 = y + 0.1 * rng.standard_normal(y.size)
    y0[solid] = 1e3
    yw, _, _ = diffusion.solve(b, tol, y0)
    assert np.array_equal(yw[solid], b[solid])
    assert np.linalg.norm(A @ yw - b) <= tol * np.linalg.norm(b)
    assert max_rel(yw, y) <= 1e-9
    # the start is copied, never overwritten
    assert (y0[solid] == 1e3).all()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", [(32, 32), (8, 8, 8)])
def test_warm_start_never_takes_more_iterations(shape, seed):
    # the start is the solution of a nearby system, as in a Picard loop
    mask = contrast_mask(shape)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(mask.size)
    near = b + 10.0 ** -rng.integers(1, 6) * rng.standard_normal(mask.size)
    for box in (poisson_pair(shape, coef=np.where(mask, 1.0, 40.0))[0],
                diffusion_pair(shape, 1e-2, 1.0, "dirichlet", mask=mask)[0]):
        x0, _, _ = box.solve(near, 1e-10)
        cold = box.solve(b, 1e-10)[2]
        warm = box.solve(b, 1e-10, x0)[2]
        assert warm <= cold


def reduction_systems(shape):
    """One solver of each certificate and preconditioner kind, by name: the
    periodic cell (float64 FFT), the macro Poisson (backward error, cross
    terms) and Dirichlet diffusion, and the DNS Poisson and masked no-flux
    diffusion (float32 DCT)."""
    mask = contrast_mask(shape)
    N = len(shape)
    h = 1.0 / shape[0]
    faces = harmonic_face_coefficients(np.where(mask, 1.0, 40.0))
    tensor = np.eye(N) + 0.3 * (np.ones((N, N)) - np.eye(N))
    macro = GridOperators(shape, 0.7, tensor=tensor)
    dns = GridOperators(shape, coef=np.where(mask, 1.0, 40.0), mask=mask)
    return {"periodic": SpectralPCG(periodic_operator(faces, h), shape,
                                    h, np.ones(N), bc="periodic"),
            "macro poisson": macro.poisson,
            "macro diffusion": macro.diffusion(1e-2, "dirichlet"),
            "dns poisson": dns.poisson,
            "dns diffusion": dns.diffusion(1e-2, "noflux")}


REDUCTION_SYSTEMS = reduction_systems((16, 16))


@pytest.fixture()
def pcg_calls(monkeypatch):
    """(tolerance, start certificate) of every call of the CG kernel."""
    calls = []

    def recording(apply, precondition, certify, b, x, r, tol, max_iter,
                  _pcg=cellcorrect.pcg):
        calls.append((tol, certify(r, x)))
        return _pcg(apply, precondition, certify, b, x, r, tol, max_iter)

    monkeypatch.setattr(cellcorrect, "pcg", recording)
    return calls


def solve_results_equal(a, b):
    return np.array_equal(a[0], b[0]) and a[1:] == b[1:]


@pytest.mark.parametrize("shape", [(24, 24), (8, 8, 8)])
def test_zero_reduction_is_the_plain_solve(shape, pcg_calls):
    # reduction = 0 hands the kernel the caller's tol, as before reduction
    # existed, so the solve is bitwise the plain one; so is any reduction
    # that the start's certificate times it leaves below tol
    rng = np.random.default_rng(11)
    tol = 1e-10
    for name, box in reduction_systems(shape).items():
        b = rng.standard_normal(shape)
        for x0 in (None, rng.standard_normal(shape)):
            pcg_calls.clear()
            plain = box.solve(b, tol, x0)
            assert [t for t, _ in pcg_calls] == [tol], name
            start = pcg_calls[0][1]
            for reduction in (0.0, 0.5 * tol / start):
                assert solve_results_equal(box.solve(b, tol, x0, reduction), plain), name
            assert [t for t, _ in pcg_calls] == [tol] * 3


@pytest.mark.parametrize("reduction", [0.5, 1e-3, 1e-7])
@pytest.mark.parametrize("shape", [(24, 24), (8, 8, 8)])
def test_solve_stops_at_the_reduced_certificate(shape, reduction, pcg_calls):
    rng = np.random.default_rng(13)
    tol = 1e-10
    for name, box in reduction_systems(shape).items():
        b = rng.standard_normal(shape)
        x0 = box.solve(b, tol)[0] + 1e-3 * rng.standard_normal(shape)
        pcg_calls.clear()
        x, cert, iters = box.solve(b, tol, x0, reduction)
        (target, start), = pcg_calls
        assert target == max(tol, reduction * start), name
        assert iters >= 1 and cert <= target, name
        # it stops at the first iterate that passes: one fewer is the cap
        box.max_iter, cap = iters - 1, box.max_iter
        try:
            with pytest.raises(SolverError, match="iteration cap"):
                box.solve(b, tol, x0, reduction)
        finally:
            box.max_iter = cap
    # the same stop from the assembled matrix, on the nonsingular Dirichlet grid
    box, _, A = diffusion_pair(shape, 1e-2, 0.7, "dirichlet")
    b = rng.standard_normal(A.shape[0])
    x0 = box.solve(b, tol)[0] + 1e-3 * rng.standard_normal(A.shape[0])
    x, cert, _ = box.solve(b, tol, x0, reduction)
    start = np.linalg.norm(A @ x0 - b) / np.linalg.norm(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= max(tol, reduction * start)


@settings(max_examples=40)
@given(st.sampled_from(["periodic", "macro poisson", "macro diffusion", "dns poisson",
                        "dns diffusion"]),
       st.floats(0.0, 1.0, exclude_max=True), st.integers(-13, 1),
       st.integers(0, 2**32 - 1))
def test_a_start_that_fails_tol_takes_an_iteration(name, reduction, offset, seed):
    # whatever the reduction, a start whose certificate is above tol makes
    # progress, and a start below it returns as it is
    box = REDUCTION_SYSTEMS[name]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(box.shape)
    x0 = box.solve(b, 1e-12)[0] + 10.0 ** offset * rng.standard_normal(box.shape)
    start = box.solve(b, np.inf, x0)[1]  # every start passes tol = inf
    x, cert, iters = box.solve(b, 1e-10, x0, reduction)
    if start > 1e-10:
        assert iters >= 1 and cert <= max(1e-10, reduction * start) < start
    else:
        assert (iters, cert) == (0, start)


@pytest.mark.parametrize("reduction", [-0.1, 1.0, np.nan])
def test_reduction_outside_the_unit_interval_is_rejected(reduction):
    with pytest.raises(ValueError, match="reduction"):
        REDUCTION_SYSTEMS["macro diffusion"].solve(np.ones((16, 16)), 1e-10, None, reduction)


def test_zero_rhs_returns_zeros():
    shape = (6, 6, 6)
    mask = np.ones(shape, dtype=bool)
    mask[2:4, 2:4, :] = False
    box, _, _ = poisson_pair(shape, coef=np.where(mask, 1.0, 4.0))
    # a constant charge projects to zero: the singular system's rhs is all
    # imbalance; a start does not matter
    for b in (np.zeros(mask.size), np.full(mask.size, 2.5)):
        for x0 in (None, np.ones(mask.size)):
            x, cert, iters = box.solve(b, 1e-10, x0)
            assert not x.any() and (cert, iters) == (0.0, 0)
    box, _, _ = diffusion_pair(shape, 1e-3, 1.0, "dirichlet", mask=mask)
    for x0 in (None, np.ones(mask.size)):
        x, cert, iters = box.solve(np.zeros(mask.size), 1e-10, x0)
        assert not x.any() and (cert, iters) == (0.0, 0)


def test_iteration_cap_and_breakdown_raise():
    shape = (8, 8, 8)
    mask = np.ones(shape, dtype=bool)
    mask[2:6, 2:6, 2:6] = False
    b = np.random.default_rng(0).standard_normal(mask.size)
    box, _, _ = poisson_pair(shape, coef=np.where(mask, 1.0, 100.0))
    box.max_iter = 2
    with pytest.raises(SolverError, match="iteration cap 2"):
        box.solve(b, 1e-10)
    box, _, _ = diffusion_pair(shape, 1e-3, 1.0, "noflux")
    box.apply = _fv.CompactDia(-box.apply.table, box.apply.offsets, box.apply.compact)
    with pytest.raises(SolverError, match="breakdown"):
        box.solve(b, 1e-10)


def non_finite_solvers():
    """One solver per boundary kind on an 8^2 grid, and the two oracles."""
    shape = (8, 8)
    ops = GridOperators(shape, tensor=np.eye(2))
    faces = harmonic_face_coefficients(np.ones(shape))
    periodic = SpectralPCG(periodic_operator(faces, ops.h), shape,
                           ops.h, np.ones(2), bc="periodic")
    _, pinned, _ = poisson_pair(shape, tensor=np.eye(2))
    _, factorized, _ = diffusion_pair(shape, 1e-3, 1.0, "dirichlet")
    return {"periodic": periodic, "noflux": ops.poisson,
            "dirichlet": ops.diffusion(1e-3, "dirichlet"),
            "pinned": pinned, "factorized": factorized}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["cold rhs", "warm rhs", "start"])
@pytest.mark.parametrize("system", ["periodic", "noflux", "dirichlet"])
def test_non_finite_input_raises(system, where, bad):
    # a NaN certificate compares false with the tolerance: the solve must
    # not pass it, or return its start (or zeros) after 0 iterations
    rng = np.random.default_rng(2)
    b = rng.standard_normal((8, 8))
    x0 = None if where == "cold rhs" else rng.standard_normal((8, 8))
    (x0 if where == "start" else b)[3, 5] = bad
    name = "start" if where == "start" else "right-hand side"
    with pytest.raises(SolverError, match=f"non-finite {name}"):
        non_finite_solvers()[system].solve(b, 1e-10, x0)


@pytest.mark.parametrize("where", ["cold rhs", "warm rhs", "start"])
@pytest.mark.parametrize("system", ["periodic", "noflux", "dirichlet"])
def test_non_finite_input_raises_under_a_reduction(system, where):
    rng = np.random.default_rng(4)
    b = rng.standard_normal((8, 8))
    x0 = None if where == "cold rhs" else rng.standard_normal((8, 8))
    (x0 if where == "start" else b)[2, 6] = np.nan
    name = "start" if where == "start" else "right-hand side"
    with pytest.raises(SolverError, match=f"non-finite {name}"):
        non_finite_solvers()[system].solve(b, 1e-10, x0, 1e-3)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("oracle", ["pinned", "factorized"])
def test_oracles_reject_non_finite_residual(oracle, bad):
    b = np.random.default_rng(3).standard_normal(64)
    b[11] = bad
    with pytest.raises(SolverError):
        non_finite_solvers()[oracle].solve(b, 1e-10)


def test_factorized_solver_certifies_its_residual():
    shape = (8, 8)
    b = np.random.default_rng(1).standard_normal(64)
    _, lu, _ = diffusion_pair(shape, 1e-3, 1.0, "noflux")
    x, cert, _ = lu.solve(b, 1e-10)
    assert np.linalg.norm(lu.A @ x - b) <= 1e-10 * np.linalg.norm(b) and cert <= 1e-10
    # factors of another matrix solve a different system
    other = _fv.assemble_diffusion_matrix(shape, 1.0 / 8, 1e-2, 1.0, "noflux")
    lu.lu = spla.splu(oracles.dia_matrix(other).tocsc())
    with pytest.raises(SolverError, match="relative residual"):
        lu.solve(b, 1e-10)


PACKAGE_SETUP = """\
import sys
import pnp_upscale
from pathlib import Path
pnp_upscale.load_config(sys.argv[1])
for spec in ({"kind": "disc", "radius": 0.25, "dim": 2},
             {"kind": "laminate", "fraction": 0.5, "dim": 3},
             {"kind": "mask", "mask": [[1, 1, 0, 1]] * 4}):
    assert pnp_upscale.build_unit_cell(spec, 4).fluid_connected
pnp_upscale.EffectiveTensors.from_json(Path(sys.argv[2]).read_text())
sys.exit(sorted(m for m in sys.modules if m.startswith("scipy")) or 0)
"""


def test_package_import_leaves_scipy_fft_out(tmp_path):
    # no scipy module loads before a box solver is built: not on importing
    # the package, reading a config, building and checking a cell, nor on
    # reading a tensors file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cell.kind = disc\ncell.radius = 0.25\n")
    tensors = tmp_path / "tensors.json"
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 8)
    effective, _ = compute_effective_tensors(cell, PermittivityParams(1.0, 4.0))
    tensors.write_text(effective.to_json())
    src = os.path.dirname(os.path.dirname(pnp_upscale.__file__))
    proc = subprocess.run([sys.executable, "-c", PACKAGE_SETUP, str(cfg), str(tensors)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture()
def no_cached_dia_kernel():
    """Clear the caches of ``_fv.dia_kernel`` and ``_kernels.load`` before and
    after the test, so that a kernel found earlier in the process cannot
    hide a blocked or missing one, and a kernel missing in the test is not
    kept for later ones."""
    _fv.dia_kernel.cache_clear()
    _kernels.load.cache_clear()
    yield
    _fv.dia_kernel.cache_clear()
    _kernels.load.cache_clear()


@pytest.mark.parametrize("module, build", [
    # the box transforms and the DIA kernel find their files through the scipy package
    ("scipy", lambda: SpectralPCG(np.copy, (4, 4), 0.25, np.ones(2), bc="noflux")),
])
def test_box_solver_without_scipy_is_a_solver_error(monkeypatch, no_cached_dia_kernel,
                                                    module, build):
    # a None entry in sys.modules makes the import fail as on a numpy-only install
    monkeypatch.setitem(sys.modules, module, None)
    with pytest.raises(SolverError, match=f"need {module}, but scipy cannot be imported"):
        build()


def test_box_solver_without_scipy_sparse_builds_and_solves(monkeypatch, no_cached_dia_kernel):
    # the DIA kernel loads by file, not through its package: with scipy.sparse
    # and the kernel's module blocked, the Poisson system still builds, takes
    # its norm by a kernel product and solves
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    monkeypatch.setitem(sys.modules, _kernels.SPARSETOOLS, None)
    ops = GridOperators((4, 4), tensor=np.eye(2))
    b = np.cos(np.arange(16.0)).reshape(4, 4)
    x, cert, _ = ops.poisson.solve(b, 1e-10)
    assert _fv.dia_kernel() is not None and cert <= 1e-10
    monkeypatch.undo()
    A = oracles.dia_matrix(ops.poisson.apply)
    assert np.linalg.norm(A @ x.ravel() - (b - b.mean()).ravel()) <= 1e-9 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# the DCT/DST kernel: pocketfft loaded by file, or scipy.fft


def hide_file(monkeypatch, name):
    """Make ``_kernels.find_file`` find no file for the extension ``name``,
    as on a scipy without it, and drop the kernels loaded before."""
    find_file = _kernels.find_file
    monkeypatch.setattr(_kernels, "find_file", lambda scipy_dir, wanted:
                        None if wanted == name else find_file(scipy_dir, wanted))
    _kernels.load.cache_clear()
    _fv.dia_kernel.cache_clear()


@pytest.fixture()
def force_scipy_fft(monkeypatch, no_cached_dia_kernel):
    """Call to route the box transforms through scipy.fft, as on a scipy
    whose pocketfft file cannot be found."""
    return lambda: hide_file(monkeypatch, _kernels.POCKETFFT)


def pocketfft():
    return _kernels.load(scipy.__path__[0], _kernels.POCKETFFT, _kernels.agrees)


def test_pocketfft_loads_by_file_and_passes_its_check():
    kernel = pocketfft()
    assert kernel is not None and kernel.__name__ == _kernels.POCKETFFT
    assert _kernels.agrees(kernel)


def test_a_wrong_kernel_fails_the_check():
    kernel = pocketfft()
    for wrong in (
        SimpleNamespace(dct=lambda x, *args: x.copy(), dst=kernel.dst),  # no transform
        SimpleNamespace(dct=kernel.dct, dst=lambda x, kind, axes, norm, *args:
                        kernel.dst(x, kind, axes, 0, *args)),  # not normalized
        SimpleNamespace(dct=kernel.dct, dst=lambda x, kind, axes, *args:
                        kernel.dst(x, kind, axes[:1], *args)),  # first axis only
        SimpleNamespace(dct=lambda x: x, dst=kernel.dst),  # another signature
        SimpleNamespace(dst=kernel.dst),  # no dct
    ):
        assert not _kernels.agrees(wrong)


LATER_SCIPY_FFT = """\
import sys
import scipy
from pnp_upscale import _kernels
kernel = _kernels.load(scipy.__path__[0], _kernels.POCKETFFT, _kernels.agrees)
assert "scipy.fft" not in sys.modules and "scipy.special" not in sys.modules
import scipy.fft
from scipy.fft._pocketfft import pypocketfft
assert pypocketfft is kernel
"""


def test_a_later_scipy_fft_import_gets_the_same_module():
    src = os.path.dirname(os.path.dirname(pnp_upscale.__file__))
    proc = subprocess.run([sys.executable, "-c", LATER_SCIPY_FFT],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def box_solves(shape, bc, single):
    """(x, certificate, iterations) of a masked diffusion solve with boundary
    kind ``bc`` and, for noflux, of the singular Poisson solve with a
    contrast coefficient, on the ``contrast_mask`` of ``shape``."""
    mask, h, ones = contrast_mask(shape), 1.0 / shape[0], np.ones(len(shape))
    b = np.random.default_rng(len(shape)).standard_normal(shape)
    A = _fv.assemble_diffusion_matrix(shape, h, 1e-3, 1.0, bc, mask=mask)
    solvers = [SpectralPCG(A, shape, h, ones, 1e3, bc, mask, single=single)]
    if bc == "noflux":
        A = _fv.assemble_neumann_operator(shape, h, coef=np.where(mask, 1.0, 4.0))
        solvers.append(SpectralPCG(A, shape, h, ones, single=single))
    return [solver.solve(b, 1e-10) for solver in solvers]


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("bc", ["noflux", "dirichlet"])
@pytest.mark.parametrize("shape", [(24, 24), (8, 8, 8)])
def test_scipy_fft_fallback_gives_the_same_bits(force_scipy_fft, shape, bc, single):
    kernel = box_solves(shape, bc, single)
    assert pocketfft() is not None
    force_scipy_fft()
    fallback = box_solves(shape, bc, single)
    assert pocketfft() is None
    for (x, cert, it), (y, cert_y, it_y) in zip(kernel, fallback, strict=True):
        assert it > 1 and (cert, it) == (cert_y, it_y)
        assert x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# the DIA kernel: _sparsetools loaded by file, or the numpy product


def sparsetools():
    return _kernels.load(scipy.__path__[0], _kernels.SPARSETOOLS, _fv._kernel_agrees)


def test_the_dia_kernel_loads_by_file_and_passes_its_check():
    module = sparsetools()
    assert module is not None and module.__name__ == _kernels.SPARSETOOLS
    assert _fv.dia_kernel() is module.dia_matvec


def test_a_wrong_dia_kernel_fails_the_check():
    kernel = sparsetools().dia_matvec

    def dropping(m, n, count, length, offsets, table, x, y):
        kernel(m, n, count - 1, length, offsets[1:], table[1:], x, y)

    def nudged(*args):
        kernel(*args)
        y = args[-1]
        y[:1] = np.nextafter(y[:1], np.inf)

    for wrong in (
        SimpleNamespace(),  # no dia_matvec
        SimpleNamespace(dia_matvec=lambda x: x),  # another signature
        SimpleNamespace(dia_matvec=dropping),  # drops an offset
        SimpleNamespace(dia_matvec=nudged),  # a sum differs in the last bit
    ):
        assert not _fv._kernel_agrees(wrong)


LATER_SCIPY_SPARSE = """\
import sys
from pnp_upscale import _fv
kernel = _fv.dia_kernel()
assert "scipy.sparse" not in sys.modules and "numpy.f2py" not in sys.modules
import scipy.sparse
from scipy.sparse._sparsetools import dia_matvec
assert dia_matvec is kernel
"""


def test_a_later_scipy_sparse_import_gets_the_same_module():
    src = os.path.dirname(os.path.dirname(pnp_upscale.__file__))
    proc = subprocess.run([sys.executable, "-c", LATER_SCIPY_SPARSE],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_validate_without_the_dia_kernel_gives_the_same_bits(monkeypatch, tmp_path,
                                                             no_cached_dia_kernel):
    # with no _sparsetools file the products go through _fv._numpy_product
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cell.kind = disc\ncell.resolution = 8\ncell.radius = 0.25\n"
                   "macro.resolution = 8\nmacro.dt = 1e-3\nmacro.t_end = 2e-3\n"
                   "micro.s = 1/2\n")
    runs = {}
    for kernel in (True, False):
        if not kernel:
            hide_file(monkeypatch, _kernels.SPARSETOOLS)
        out = tmp_path / str(kernel)
        assert cli.main(["validate", "--config", str(cfg), "--out", str(out / "report.csv")]) == 0
        assert (_fv.dia_kernel() is not None) == kernel
        runs[kernel] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(runs[True]) > 1 and runs[True] == runs[False]


def test_3d_dns_at_48_cubed_is_feasible(box_iterations):
    # SuperLU took 138 s and 3.4 GB to factorize this grid's Poisson operator
    dom = disc_domain(3, 8, 6)
    assert dom.mask.shape == (48, 48, 48)
    x = (np.arange(48) + 0.5) / 48
    bump = 1.0 + 0.3 * np.cos(np.pi * x)[:, None, None]
    init = MacroState(u1=bump * dom.mask, u2=1.0 * dom.mask,
                      u3=np.zeros(dom.mask.shape))
    t0 = time.perf_counter()
    state, rows = run_micro(dom, init, MacroConfig(dt=1e-3, t_end=1e-3, bc="noflux"))
    elapsed = time.perf_counter() - t0
    ops = dom.operators()
    assert isinstance(ops.poisson, SpectralPCG)
    assert isinstance(ops.diffusion(1e-3, "noflux"), SpectralPCG)
    assert rows[0]["picard_iters"] > 1
    # every solve certified itself; the counts stay small
    assert 0 < max(box_iterations) <= 40
    assert np.allclose(rows[0]["mass1"], float(init.u1.mean()), rtol=1e-9)
    assert not state.u1[~dom.mask].any()
    assert elapsed < 60.0


def test_2d_dns_at_512_squared_is_feasible(box_iterations):
    # one SuperLU step took 5.2 s and 800 MB peak RSS on this grid
    dom = disc_domain(2, 32, 16)
    assert dom.mask.shape == (512, 512)
    x = (np.arange(512) + 0.5) / 512
    bump = 1.0 + 0.3 * np.cos(np.pi * x)[:, None]
    init = MacroState(u1=bump * dom.mask, u2=1.0 * dom.mask,
                      u3=np.zeros(dom.mask.shape))
    t0 = time.perf_counter()
    state, rows = run_micro(dom, init, MacroConfig(dt=1e-3, t_end=1e-3, bc="noflux"))
    elapsed = time.perf_counter() - t0
    ops = dom.operators()
    assert isinstance(ops.poisson, SpectralPCG)
    assert isinstance(ops.diffusion(1e-3, "noflux"), SpectralPCG)
    assert rows[0]["picard_iters"] > 1
    assert 0 < max(box_iterations) <= 60
    assert np.allclose(rows[0]["mass1"], float(init.u1.mean()), rtol=1e-9)
    assert not state.u1[~dom.mask].any()
    assert elapsed < 60.0
