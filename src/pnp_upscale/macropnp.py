"""Time stepper for the upscaled porous-medium PNP system.

Per time step the nonlinear coupling is resolved by a fixed-point (Picard)
loop: given the current density iterates, solve the homogenized Poisson
equation for the potential, then advance each species with an implicit
diffusion solve whose drift flux is evaluated at the lagged iterate,

    p (u_r - u_r_old)/dt - p Lap u_r = -div( z_r v_r (Hhat - M) grad v3 ).

The loop contracts for small enough dt; hitting the iteration cap is
reported as advice to reduce the step.  Boundary conditions follow the
academic set (homogeneous Dirichlet densities, homogeneous Neumann
potential) with an all-no-flux variant for conservation studies.

``GridOperators`` and ``picard_step`` also drive the DNS in microdns: the
same scheme on the perforated fine grid, with drift tensor -I.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla
from scipy.special import xlogy

from ._fv import (
    _along,
    _face_slices,
    _significant_offdiag,
    assemble_diffusion_matrix,
    assemble_neumann_operator,
    cell_gradients,
    grid_matvec,
)
from .cellcorrect import SolverError, SpectralPCG
from .upscale import EffectiveTensors

logger = logging.getLogger(__name__)

Z_CHARGES = (1.0, -1.0)

NEGATIVE_DENSITY_TOL = -1e-12


@dataclass(eq=False)
class MacroState:
    """Macroscopic fields on the homogenized domain at time t."""

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        self.u3 = np.asarray(self.u3, dtype=float)
        if not (self.u1.shape == self.u2.shape == self.u3.shape):
            raise ValueError("u1, u2, u3 must share one grid")
        for f in (self.u1, self.u2, self.u3):
            if not np.isfinite(f).all():
                raise ValueError("macro state contains non-finite values")

    @classmethod
    def zero(cls, shape) -> "MacroState":
        z = np.zeros(shape)
        return cls(u1=z.copy(), u2=z.copy(), u3=z.copy(), t=0.0)


@dataclass
class StepConfig:
    """Picard-loop and discretization settings shared by the macro and DNS steppers."""

    picard_tol: float = 1e-9
    picard_cap: int = 50
    drift: str = "upwind"  # or "central"
    bc: str = "dirichlet"  # academic set; "noflux" conserves mass
    lin_tol: float = 1e-10

    def __post_init__(self):
        if self.drift not in ("upwind", "central"):
            raise ValueError(f"unknown drift scheme {self.drift!r}")
        if self.bc not in ("dirichlet", "noflux"):
            raise ValueError(f"unknown bc {self.bc!r}")


@dataclass(kw_only=True)
class MacroConfig(StepConfig):
    dt: float
    t_end: float
    lam2: float = 1.0  # scalar coefficient in the free-energy diagnostic
    loceq_window: int = 4

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        super().__post_init__()


@dataclass
class DiagnosticsRow:
    t: float
    mass1: float
    mass2: float
    charge: float
    free_energy: float
    picard_iters: int
    loceq_dev: float


@dataclass
class StepInfo:
    picard_iters: int
    increments: list = field(default_factory=list)
    min_density: float = 0.0


# ---------------------------------------------------------------------------
# operators and the Picard stepper


class GridOperators:
    """Operators of one square box grid on [0,1]^N, kept for a whole run.

    The Poisson operator is -div(tensor grad) for a constant symmetric
    ``tensor`` (the macro grid) or -div(coef(x) grad) for a per-cell
    ``coef`` (the DNS grid); its source is p (v1 - v2).  The
    implicit-diffusion operators (p/dt) I - p Lap are kept per (dt, bc).
    Each solver is built on first use.  Every grid, 2D or 3D, macro or DNS,
    solves with ``cellcorrect.SpectralPCG``, as the cell problems do; the
    Poisson preconditioner takes the scale diag(tensor) on the macro grid
    and 1 on the DNS grid, and its certificate is the backward error with
    ||A||_inf.  Nothing is factorized, so memory grows linearly with the
    cell count.  With a fluid ``mask`` the densities live on fluid cells
    only: diffusion and drift use only the faces between two fluid cells.
    """

    def __init__(self, shape, p: float = 1.0, *, tensor=None, coef=None,
                 mask=None):
        self.shape = tuple(shape)
        if len(set(self.shape)) != 1:
            raise ValueError(f"box grids must be square, got shape {self.shape}")
        N = len(self.shape)
        if tensor is not None:
            tensor = np.asarray(tensor, dtype=float)
            if tensor.shape != (N, N):
                raise ValueError(f"eps0 must be {N}x{N} for a {N}D grid")
            asym = np.abs(tensor - tensor.T).max()
            if asym > 1e-8 * max(np.abs(tensor).max(), 1e-300):
                raise ValueError("eps0 is not symmetric")
            eigs = np.linalg.eigvalsh(0.5 * (tensor + tensor.T))
            if eigs.min() <= 0.0:
                raise ValueError(f"eps0 is not positive definite (eigenvalues {eigs})")
        self.h = 1.0 / self.shape[0]
        self.p = p
        self.tensor = tensor
        self.coef = coef
        self.mask = mask
        self.solid = None if mask is None else ~mask
        self.open_faces = None if mask is None else [
            mask[lo] & mask[hi] for lo, hi in _face_slices(N)]
        self._diffusion: dict = {}

    @cached_property
    def poisson(self) -> SpectralPCG:
        A = assemble_neumann_operator(self.shape, self.h, tensor=self.tensor,
                                      coef=self.coef)
        scale = np.ones(len(self.shape)) if self.tensor is None else np.diag(self.tensor)
        return SpectralPCG(grid_matvec(A), self.shape, self.h, scale,
                           norm_A=spla.norm(A, np.inf))

    def diffusion(self, dt: float, bc: str) -> SpectralPCG:
        key = (float(dt), bc)
        solver = self._diffusion.get(key)
        if solver is None:
            A = assemble_diffusion_matrix(self.shape, self.h, dt, self.p, bc,
                                          mask=self.mask)
            solver = SpectralPCG(grid_matvec(A), self.shape, self.h,
                                 np.full(len(self.shape), self.p), shift=self.p / dt,
                                 bc=bc, mask=self.mask)
            self._diffusion[key] = solver
        return solver

    def potential(self, v1: np.ndarray, v2: np.ndarray, tol: float,
                  x0: np.ndarray | None = None) -> np.ndarray:
        """Mean-zero solution of the Neumann Poisson problem with source p (v1 - v2).

        The source is projected to mean zero for compatibility; the removed
        mean charge is logged.  ``x0`` is the CG start, typically the
        previous Picard iterate's potential.
        """
        q = self.p * (np.asarray(v1, dtype=float) - np.asarray(v2, dtype=float))
        if q.shape != self.shape:
            raise ValueError(f"charge grid {q.shape} does not match the grid {self.shape}")
        imbalance = float(q.mean())
        if imbalance != 0.0:
            logger.debug("Poisson: removed mean charge %.3e", imbalance)
        return self.poisson.solve(q, tol, x0)[0]


def solve_macro_poisson(u1: np.ndarray, u2: np.ndarray, eps0: np.ndarray,
                        p: float, tol: float = 1e-10) -> np.ndarray:
    """Homogenized Poisson solve: -div(eps0 grad u3) = p (u1 - u2).

    Homogeneous Neumann potential; the source is projected to mean zero for
    compatibility (the removed mean charge is logged) and the solution is the
    mean-zero representative.  Builds a fresh solver on every call: steppers
    hold their own ``GridOperators``.
    """
    u1 = np.asarray(u1, dtype=float)
    return GridOperators(u1.shape, p, tensor=eps0).potential(u1, u2, tol)


def _drift_divergence(v: np.ndarray, u3: np.ndarray, A: np.ndarray, h: float,
                      z: float, bc: str, scheme: str,
                      open_faces=None) -> np.ndarray:
    """div of the advective flux z * v * (A grad u3), face-based.

    Upwinding follows the sign of the face velocity z * (A grad u3).n; the
    central option averages the two cell densities.  Dirichlet boundaries see
    exterior density zero, the no-flux variant zeroes all boundary fluxes.
    With ``open_faces`` (per-axis boolean face masks) the flux through closed
    faces is zero.
    """
    N = v.ndim
    div = np.zeros_like(v)
    offdiag = _significant_offdiag(A)
    grads = cell_gradients(u3, h) if offdiag else None
    for d, (lo, hi) in enumerate(_face_slices(N)):
        vel = z * A[d, d] * (u3[hi] - u3[lo]) / h
        if offdiag:
            for d2 in range(N):
                if d2 == d or A[d, d2] == 0.0:
                    continue
                vel = vel + z * A[d, d2] * 0.5 * (grads[d2][lo] + grads[d2][hi])
        if scheme == "upwind":
            vup = np.where(vel > 0.0, v[lo], v[hi])
        else:
            vup = 0.5 * (v[lo] + v[hi])
        F = vel * vup
        if open_faces is not None:
            F = np.where(open_faces[d], F, 0.0)
        div[lo] += F / h
        div[hi] -= F / h
        if bc == "dirichlet" and offdiag:
            # normal potential gradient vanishes (Neumann), so only the
            # tangential cross-terms drive flux through the domain boundary
            for side, sign in ((0, -1.0), (v.shape[d] - 1, +1.0)):
                face = _along(N, d, side)
                velb = np.zeros_like(v[face], dtype=float)
                for d2 in range(N):
                    if d2 == d or A[d, d2] == 0.0:
                        continue
                    velb = velb + z * A[d, d2] * grads[d2][face]
                outflow = velb * sign > 0.0  # leaving the domain
                if scheme == "upwind":
                    F_b = np.where(outflow, velb * v[face], 0.0)
                else:
                    F_b = velb * 0.5 * v[face]
                div[face] += sign * F_b / h
    return div


def picard_step(ops: GridOperators, v, base, A: np.ndarray, dt: float,
                cfg: StepConfig):
    """Fixed-point loop of one implicit step on the grid of ``ops``.

    ``v`` holds the two densities at the start of the step, ``base`` the
    previous-step terms of the two right-hand sides, ``A`` the drift tensor.
    Each iteration solves the potential from the lagged densities, then the
    implicit diffusion of each species with the lagged drift, until the max
    L2 increment drops below cfg.picard_tol.  Every CG solve after the first
    potential starts from the previous iterate: the potential from the last
    u3, species r from the lagged v[r], so solves get cheaper as the loop
    contracts.  A warm solve stops once its certificate passes, so an
    increment may understate the true one by up to the solve's certified
    error.  The grid's solvers are built on first use, the Poisson solver
    first: its assembly needs the most scratch memory.  Reaching the cap
    raises with advice to reduce dt.  Returns ([u1, u2], u3, StepInfo).
    """
    increments: list[float] = []
    iters = 0
    u3 = None
    for iters in range(1, cfg.picard_cap + 1):
        u3 = ops.potential(v[0], v[1], cfg.lin_tol, u3)
        new = []
        for r, z in enumerate(Z_CHARGES):
            rhs = base[r] - _drift_divergence(v[r], u3, A, ops.h, z, cfg.bc,
                                              cfg.drift, ops.open_faces)
            if ops.solid is not None:
                rhs[ops.solid] = 0.0
            new.append(ops.diffusion(dt, cfg.bc).solve(rhs, cfg.lin_tol, v[r])[0])
        inc = max(
            float(np.sqrt(np.mean((new[r] - v[r]) ** 2))) for r in range(2)
        )
        increments.append(inc)
        v = new
        if inc <= cfg.picard_tol:
            break
    else:
        raise SolverError(
            f"Picard loop did not contract within {cfg.picard_cap} iterations "
            f"(last increment {increments[-1]:.3e}); reduce dt"
        )
    u3 = ops.potential(v[0], v[1], cfg.lin_tol, u3)
    min_density = float(min(v[0].min(), v[1].min()))
    if cfg.drift == "upwind" and min_density < NEGATIVE_DENSITY_TOL:
        raise SolverError(
            f"negative density {min_density:.3e} under the upwind scheme"
        )
    return v, u3, StepInfo(picard_iters=iters, increments=increments,
                           min_density=min_density)


def step_macro_pnp(state: MacroState, tensors: EffectiveTensors,
                   cfg: MacroConfig, ops: GridOperators | None = None):
    """One accepted time step; returns (new_state, StepInfo).

    ``ops`` are the grid's operators, ``GridOperators(shape, tensors.p,
    tensor=tensors.eps0)``; without them the step builds its own.
    """
    if ops is None:
        ops = GridOperators(state.u1.shape, tensors.p, tensor=tensors.eps0)
    p = tensors.p
    A_drift = np.asarray(tensors.Hhat, dtype=float) - np.asarray(tensors.M, dtype=float)
    base = [p / cfg.dt * state.u1, p / cfg.dt * state.u2]
    v, u3, info = picard_step(ops, [state.u1, state.u2], base, A_drift, cfg.dt, cfg)
    return MacroState(u1=v[0], u2=v[1], u3=u3, t=state.t + cfg.dt), info


def _density_energy(state: MacroState) -> float:
    """Voxel quadrature of sum_r u_r (log u_r - 1) + (u1 - u2) u3, 0 log 0 = 0."""
    if (state.u1 < 0).any() or (state.u2 < 0).any():
        raise ValueError("free energy needs nonnegative densities")
    ent = xlogy(state.u1, state.u1) - state.u1 + xlogy(state.u2, state.u2) - state.u2
    inter = (state.u1 - state.u2) * state.u3
    return float((ent + inter).sum()) * (1.0 / state.u1.size)


def free_energy(state: MacroState, lam2: float) -> float:
    """Classical free-energy diagnostic by voxel quadrature.

    F = int( sum_r u_r (log u_r - 1) + (u1 - u2) u3 - lam2 |grad u3|^2 ),
    with the 0 log 0 = 0 convention.  The gradient term uses face
    differences over interior faces.
    """
    return _density_energy(state) - lam2 * _gradient_quadrature(state.u3)


def free_energy_effective(state: MacroState, eps0: np.ndarray) -> float:
    """Variant with the anisotropic field energy (grad u3).eps0 (grad u3)."""
    vol = 1.0 / state.u1.size
    grads = cell_gradients(state.u3, 1.0 / state.u1.shape[0])
    eps0 = np.asarray(eps0, dtype=float)
    quad = sum(
        float((grads[i] * eps0[i, k] * grads[k]).sum()) * vol
        for i in range(state.u3.ndim)
        for k in range(state.u3.ndim)
    )
    return _density_energy(state) - quad


def _gradient_quadrature(u3: np.ndarray) -> float:
    h = 1.0 / u3.shape[0]
    vol = 1.0 / u3.size
    total = 0.0
    for lo, hi in _face_slices(u3.ndim):
        g = (u3[hi] - u3[lo]) / h
        total += float((g * g).sum()) * vol
    return total


def check_local_equilibrium(state: MacroState, window: int) -> float:
    """Max spread of the chemical potential log u_r + z_r u3 over voxel blocks.

    Quantifies how badly the per-cell equilibrium assumption behind the
    upscaled model is violated.  Blocks start every ``window`` cells along
    each axis; the last block of an axis is cut short when ``window`` does
    not divide the grid.  Blocks containing nonpositive density are skipped;
    the skipped count is reported through the module logger.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    dev = 0.0
    skipped = 0
    starts = [np.arange(0, s, window) for s in state.u1.shape]

    def blockwise(ufunc, a):
        for axis, idx in enumerate(starts):
            a = ufunc.reduceat(a, idx, axis=axis)
        return a

    for z, u in zip(Z_CHARGES, (state.u1, state.u2)):
        mu = np.log(np.where(u > 0.0, u, 1.0)) + z * state.u3
        bad = blockwise(np.logical_or, u <= 0.0)
        spread = blockwise(np.maximum, mu) - blockwise(np.minimum, mu)
        skipped += int(bad.sum())
        if not bad.all():
            dev = max(dev, float(spread[~bad].max()))
    if skipped:
        logger.warning(
            "local-equilibrium check skipped %d blocks with nonpositive density",
            skipped,
        )
    return dev


def run_macro(cfg: MacroConfig, tensors: EffectiveTensors, init: MacroState,
              snapshot_times=()):
    """March from t=0 to t_end, one diagnostics row per accepted step.

    Returns (snapshots, rows) where snapshots is a list of (t, MacroState)
    at the configured times plus the final state.  The grid's operators and
    solvers are built once for the whole run.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    if n_steps < 1:
        raise ValueError("t_end shorter than one step")
    ops = GridOperators(init.u1.shape, tensors.p, tensor=tensors.eps0)
    vol = 1.0 / init.u1.size
    state = init
    rows: list[DiagnosticsRow] = []
    snapshots: list[tuple[float, MacroState]] = []
    pending = sorted(snapshot_times)
    for _ in range(n_steps):
        state, info = step_macro_pnp(state, tensors, cfg, ops=ops)
        rows.append(
            DiagnosticsRow(
                t=state.t,
                mass1=float(state.u1.sum()) * vol,
                mass2=float(state.u2.sum()) * vol,
                charge=float((state.u1 - state.u2).sum()) * vol,
                free_energy=free_energy(state, cfg.lam2),
                picard_iters=info.picard_iters,
                loceq_dev=check_local_equilibrium(state, cfg.loceq_window),
            )
        )
        while pending and state.t >= pending[0] - 0.5 * cfg.dt:
            snapshots.append((state.t, state))
            pending.pop(0)
    snapshots.append((state.t, state))
    return snapshots, rows
