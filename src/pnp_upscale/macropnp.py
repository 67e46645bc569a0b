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

The first two iterations of each loop solve their linear systems
inexactly, to a relative reduction (``FORCING``); an iterate is accepted only
from an iteration solved to the full tolerance.

``GridOperators``, ``picard_step`` and ``march`` also drive the DNS in
microdns: the same scheme on the perforated fine grid, with drift tensor -I.
Both runs hold their fields in ``MacroState`` and step on one
``MacroConfig``, whose defaults and checks are the config file's; ``march``
is their time loop and sets where each step's Picard loop starts.

``run_macro`` returns one diagnostics row per step, a dict whose keys are
its CSV columns.  Its ``free_energy`` is the functional of the effective
model, p < sum_r u_r (log u_r - 1) + (u1 - u2) u3 / 2 >, whose second term
is 1/2 <u3, A u3> for the assembled Poisson operator A at an accepted state:
the field energy 1/2 <grad u3 . eps0 grad u3> where A is symmetric, and
only that of A's symmetric part where significant cross terms make
A != A^T (ROADMAP item 18).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ._fv import (
    _along,
    _face_slices,
    _significant_offdiag,
    assemble_diffusion_matrix,
    assemble_neumann_operator,
    cell_gradients,
)
from .cellcorrect import SolverError, SpectralPCG
from .config import KEYS, RunConfig, key_defect, run_setting, snapshot_defect, step_count_defect
from .upscale import EffectiveTensors

logger = logging.getLogger(__name__)

Z_CHARGES = (1.0, -1.0)

NEGATIVE_DENSITY_TOL = -1e-12

#: the first FORCED_ITERATIONS Picard iterations of a step stop each solve
#: at FORCING times its start's certificate (or at lin_tol, if looser)
FORCING = 1e-3
FORCED_ITERATIONS = 2
#: a Picard loop whose increment has grown in this many iterations in a row,
#: or is not finite, is taken to diverge
DIVERGENCE_RUN = 3


@dataclass(eq=False)
class MacroState:
    """Fields of one box grid at time t: u1 = n+, u2 = n- and the potential
    u3 = phi, of the homogenized domain (macro) or of the fine grid (DNS)."""

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
                raise ValueError("state contains non-finite values")

    @classmethod
    def zero(cls, shape) -> "MacroState":
        z = np.zeros(shape)
        return cls(u1=z.copy(), u2=z.copy(), u3=z.copy(), t=0.0)


@dataclass(kw_only=True)
class MacroConfig:
    """Time step, run length and Picard-loop settings of a macro or DNS run.
    Each field names the config-file key that sets it, passes that key's
    check and, but for dt and t_end, takes its ``RunConfig`` default."""

    dt: float = field(metadata={"key": "macro.dt"})
    t_end: float = field(metadata={"key": "macro.t_end"})
    picard_tol: float = run_setting("macro.picard_tol")
    picard_cap: int = run_setting("macro.picard_cap")
    drift: str = run_setting("macro.drift")  # or "central"
    bc: str = run_setting("macro.bc")  # academic set; "noflux" conserves mass
    lin_tol: float = run_setting("solver.tol")
    loceq_window: int = run_setting("macro.loceq_window")

    def __post_init__(self):
        for f in fields(self):
            if defect := key_defect(f.metadata["key"], getattr(self, f.name)):
                raise ValueError(f"{f.name}: {defect}")
        if defect := step_count_defect(self.dt, self.t_end):
            raise ValueError(defect)

    @classmethod
    def from_run(cls, cfg: RunConfig) -> "MacroConfig":
        """The settings of the config file's run ``cfg``, each read from its key."""
        return cls(**{f.name: getattr(cfg, KEYS[f.metadata["key"]].name) for f in fields(cls)})

    @property
    def n_steps(self) -> int:
        """Steps of a run from t=0 to t_end."""
        return int(round(self.t_end / self.dt))


@dataclass
class StepInfo:
    """How one step's Picard loop went: per iteration its increment and the
    CG iterations of its (Poisson, species 1, species 2) solves."""

    picard_iters: int
    increments: list = field(default_factory=list)
    cg_iters: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# operators and the Picard stepper


class GridOperators:
    """Operators of one square box grid on [0,1]^N, kept for a whole run.

    The Poisson operator is -div(tensor grad) for a constant N x N
    ``tensor``, an eps0 that ``EffectiveTensors`` has checked (the macro
    grid), or -div(coef(x) grad) for a per-cell ``coef`` (the DNS grid);
    its source is p (v1 - v2).  The implicit-diffusion operators
    (p/dt) I - p Lap are kept per (dt, bc).
    Each solver is built on first use, so a caller holds one object per
    grid for as long as it solves on it.  Every grid, 2D or 3D, macro or
    DNS, solves with ``cellcorrect.SpectralPCG``, as the cell problems do:
    each solve returns (x, certificate, iterations) and takes the relative
    stop ``reduction`` of the forced Picard iterations.  The
    Poisson preconditioner takes the scale diag(tensor) on the macro grid
    and 1 on the DNS grid, and its certificate is the backward error with
    ||A||_inf.  The per-cell operators of the DNS grid, the Poisson with
    ``coef`` and the diffusion with ``mask``, apply their preconditioner in
    float32, which halves the transform cost; the macro grid keeps float64,
    whose transform inverts its constant-coefficient operators exactly, so
    they solve in one iteration.  Nothing is factorized, so memory grows
    linearly with the cell count.  Each solver applies the ``_fv.CompactDia``
    that assembly builds, which stores each face coefficient of a symmetric
    operator once; the Poisson's ``norm_A`` is a product of that holder, and
    ``coef`` is dropped once the Poisson operator is built.  With a
    fluid ``mask`` the densities live on fluid cells only: diffusion and
    drift use only the faces between two fluid cells.
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
        single = self.coef is not None
        self.coef = None  # the operator's table holds all the solves need of it
        scale = np.ones(len(self.shape)) if self.tensor is None else np.diag(self.tensor)
        return SpectralPCG(A, self.shape, self.h, scale, norm_A=A.norm_inf(), single=single)

    def diffusion(self, dt: float, bc: str) -> SpectralPCG:
        key = (float(dt), bc)
        solver = self._diffusion.get(key)
        if solver is None:
            A = assemble_diffusion_matrix(self.shape, self.h, dt, self.p, bc,
                                          mask=self.mask)
            solver = SpectralPCG(A, self.shape, self.h,
                                 np.full(len(self.shape), self.p), shift=self.p / dt,
                                 bc=bc, mask=self.mask, single=self.mask is not None)
            self._diffusion[key] = solver
        return solver

    def potential(self, v1: np.ndarray, v2: np.ndarray, tol: float,
                  x0: np.ndarray | None = None, reduction: float = 0.0):
        """Mean-zero solution of the Neumann Poisson problem with source p (v1 - v2),
        as the (x, certificate, iterations) of ``SpectralPCG.solve``.

        The source is projected to mean zero for compatibility; the removed
        mean charge is logged.  ``x0`` is the CG start, typically the
        previous Picard iterate's potential, and ``reduction`` the solve's
        relative stop.
        """
        q = self.p * (np.asarray(v1, dtype=float) - np.asarray(v2, dtype=float))
        if q.shape != self.shape:
            raise ValueError(f"charge grid {q.shape} does not match the grid {self.shape}")
        imbalance = float(q.mean())
        if imbalance != 0.0:
            logger.debug("Poisson: removed mean charge %.3e", imbalance)
        return self.poisson.solve(q, tol, x0, reduction)


def _drift_divergences(v, u3: np.ndarray, A: np.ndarray, h: float, bc: str,
                       scheme: str, open_faces=None) -> list:
    """[div of z_r * v_r * (A grad u3) for r = 1, 2], the advective flux of
    both species, face-based, in one pass over the faces.

    Per axis the face velocity (A grad u3).n is computed once and zeroed on
    the closed faces (``open_faces``, per-axis boolean face masks) once.
    Upwinding follows the sign of z_r times it: species 1 takes its upstream
    cell where it is positive, species 2 where it is negative; the central
    option averages the two cell densities.  Species 2's flux is species
    1's form divided by -h, exact since z = -1.  Dirichlet boundaries see
    exterior density zero; the normal potential gradient vanishes on the
    boundary (Neumann), so only the tangential cross terms of a real
    off-diagonal in ``A`` drive flux through it.  The no-flux variant zeroes
    all boundary fluxes.
    """
    N = u3.ndim
    offdiag = _significant_offdiag(A)
    grads = cell_gradients(u3, h) if offdiag else None
    div = [np.zeros_like(w) for w in v]
    for d, (lo, hi) in enumerate(_face_slices(N)):
        cross = [d2 for d2 in range(N) if d2 != d and A[d, d2] != 0.0] if offdiag else []
        vel = u3[hi] - u3[lo]
        vel *= A[d, d]
        vel /= h
        for d2 in cross:
            vel += A[d, d2] * 0.5 * (grads[d2][lo] + grads[d2][hi])
        if open_faces is not None:
            vel *= open_faces[d]
        if scheme == "upwind":
            # a face with vel = 0 carries no flux whichever cell is upstream
            positive = vel > 0.0
        for w, out, z in zip(v, div, Z_CHARGES):
            if scheme == "upwind":
                F = np.where(positive, *((w[lo], w[hi]) if z > 0 else (w[hi], w[lo])))
            else:
                F = w[lo] + w[hi]
                F *= 0.5
            F *= vel
            F /= z * h
            out[lo] += F
            out[hi] -= F
        if bc != "dirichlet" or not offdiag:
            continue
        for side, sign in ((0, -1.0), (u3.shape[d] - 1, +1.0)):
            face = _along(N, d, side)
            velb = np.zeros_like(u3[face], dtype=float)
            for d2 in cross:
                velb = velb + A[d, d2] * grads[d2][face]
            for w, out, z in zip(v, div, Z_CHARGES):
                if scheme == "upwind":
                    outflow = z * velb * sign > 0.0  # leaving the domain
                    F_b = np.where(outflow, velb * w[face], 0.0)
                else:
                    F_b = velb * 0.5 * w[face]
                out[face] += sign * F_b / (z * h)
    return div


def linear_predictor(v, u3, v_prev, u3_prev):
    """Start of the next Picard loop from the last two accepted steps: the
    linear extrapolation [[2 v - v_prev per species], 2 u3 - u3_prev], a
    list that ``picard_step`` can empty.

    Each u3 must be the potential of its step's densities, so that the
    extrapolated potential is, by linearity, that of the extrapolated
    densities, from which the first Picard iteration solves its potential.
    The densities may go negative; ``picard_step`` clips them at zero
    before its drift reads them."""
    return [[2.0 * a - b for a, b in zip(v, v_prev)], 2.0 * u3 - u3_prev]


def take(held):
    """The state in the one-element list ``held``, which is emptied, or
    ``held`` itself.  A list hands a state over: CPython keeps a call's
    arguments on the caller's stack until the call returns, an emptied list
    keeps nothing."""
    return held.pop() if isinstance(held, list) else held


def march(step, init, n_steps: int):
    """Yield the (state, info) of each of ``n_steps`` accepted steps from ``init``.

    ``init`` is the initial state or a list holding it (``take``).
    ``step(held, start)`` makes one step from the state in the list
    ``held``, which it empties, with its Picard loop starting at ``start``:
    None, or a [[u1, u2], u3] list that ``picard_step`` empties.  The first
    step starts from the initial state (its first potential from its u3),
    the second from the first accepted state, whose potential is that of its
    densities; every later step from the linear predictor of the last two
    accepted states.  So no frame here keeps the initial state past the
    first step or a start past its Picard loop's first iteration; only the
    state a step starts from lives through it, for the predictor after it.
    """
    held, start, prev = [take(init)], None, None
    for _ in range(n_steps):
        new, info = step(held, start)
        # the initial u3 need not be the potential of its densities: no predictor from it
        start = None if prev is None else linear_predictor(
            [new.u1, new.u2], new.u3, [prev.u1, prev.u2], prev.u3)
        held, prev = [new], new
        yield new, info


def balance_columns(state: MacroState) -> dict:
    """The t, mass1, mass2 and charge columns of a run's diagnostics row."""
    vol = 1.0 / state.u1.size
    return {
        "t": state.t,
        "mass1": float(state.u1.sum()) * vol,
        "mass2": float(state.u2.sum()) * vol,
        "charge": float((state.u1 - state.u2).sum()) * vol,
    }


def picard_step(ops: GridOperators, start: list, previous, A: np.ndarray, cfg: MacroConfig):
    """Fixed-point loop of one implicit step on the grid of ``ops``.

    ``start`` is the list [v, u3] of the first lagged densities [v1, v2]
    and the CG start of the first potential, which the loop empties, so
    that no frame keeps the start past iteration 1.  The steppers pass the
    step's initial state or a predictor from the last two accepted states;
    the loop converges to the same fixed point either way.
    ``previous(r)`` forms species r's previous-step term p u_r / dt, from
    the densities of the state the step steps from, which the stepper holds
    anyway, each time a right-hand side needs it; ``A`` is the drift
    tensor.  Each iteration solves the potential from the lagged
    densities, computes both species' drift from it in one pass over the
    faces, then solves the implicit diffusion of each species with it.
    Iteration 1 solves its potential from the start densities as given,
    whose potential a predicted start's u3 is, then clips them at zero, a
    copy of each species that has a negative value, so that the drift and
    the diffusion solves read nonnegative densities, as the upwind drift
    needs.
    Every CG solve starts from the previous iterate: the potential from the
    last u3, species r from the lagged v[r], so solves get cheaper as the
    loop contracts.

    The solves are inexact while the lagged densities are far from the
    fixed point: in the first ``FORCED_ITERATIONS`` iterations each solve
    stops once its certificate has fallen by ``FORCING`` from its start (or
    at ``lin_tol``, if that is looser), the forcing terms of inexact Newton
    methods (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19 (1982)
    400).  An iterate is accepted only from an iteration whose three solves
    certified ``lin_tol`` and whose max RMS increment is at most
    ``cfg.picard_tol``, the stop of a loop that solves every system to
    ``lin_tol``; the iteration at ``cfg.picard_cap`` is never forced.  A
    warm solve stops once its certificate passes, so an increment may still
    understate the true one by up to the solve's certified error.  The
    grid's solvers are built on first use, the Poisson solver first, as
    each iteration solves the potential first; its assembly, whose peak is
    the largest of the grid's matrices, then runs before any diffusion
    matrix is held.  Each iteration logs one debug
    record.  Reaching the cap raises with advice to reduce dt, and so does a
    loop that diverges: an increment that is not finite, or that has grown
    in ``DIVERGENCE_RUN`` iterations in a row, raises at once and does not
    wait for the values to overflow.  A solve that fails right after a grown
    increment, as one does once the values overflow, raises the same
    divergence error, chained to the solver's.  Each species' right-hand
    side is released once its solve has returned.  Returns
    ([u1, u2], u3, StepInfo), where u3 is the potential of the returned
    densities.
    """
    v, u3 = start
    start.clear()
    increments: list[float] = []
    cg_iters: list[tuple] = []
    iters = growing = 0

    def diverged():
        shown = ", ".join(f"{x:.3e}" for x in increments[-DIVERGENCE_RUN - 1:])
        return SolverError(f"Picard loop diverged: increments {shown} at iteration {iters}; "
                           "reduce dt")

    for iters in range(1, cfg.picard_cap + 1):
        forced = iters <= FORCED_ITERATIONS and iters < cfg.picard_cap
        reduction = FORCING if forced else 0.0
        try:
            u3, cert, it = ops.potential(v[0], v[1], cfg.lin_tol, u3, reduction)
            if iters == 1:
                v = [np.maximum(w, 0.0) if w.min() < 0.0 else w for w in v]
            rhs = _drift_divergences(v, u3, A, ops.h, cfg.bc, cfg.drift, ops.open_faces)
            for r in range(2):  # by index: no loop variable keeps a right-hand side
                np.subtract(previous(r), rhs[r], out=rhs[r])
                if ops.solid is not None:
                    rhs[r][ops.solid] = 0.0
            diffusion = ops.diffusion(cfg.dt, cfg.bc)
            solved = [diffusion.solve(rhs.pop(0), cfg.lin_tol, w, reduction) for w in v]
        except SolverError as exc:
            if growing:  # the values grew into the failure: name the loop
                raise diverged() from exc
            raise
        new = [x for x, _, _ in solved]
        # np.max, unlike max, keeps a NaN of either species
        inc = float(np.max([np.sqrt(np.mean((new[r] - v[r]) ** 2)) for r in range(2)]))
        growing = growing + 1 if increments and inc > increments[-1] else 0
        increments.append(inc)
        cg_iters.append((it,) + tuple(n for _, _, n in solved))
        logger.debug("Picard iteration %d: increment %.3e, forced %s, CG iterations %s",
                     iters, inc, forced, cg_iters[-1])
        if not np.isfinite(inc) or growing >= DIVERGENCE_RUN:
            raise diverged()
        v = new
        if inc <= cfg.picard_tol and max(cert, *(c for _, c, _ in solved)) <= cfg.lin_tol:
            break
    else:
        raise SolverError(
            f"Picard loop did not contract within {cfg.picard_cap} iterations "
            f"(last increment {increments[-1]:.3e}); reduce dt"
        )
    u3 = ops.potential(v[0], v[1], cfg.lin_tol, u3)[0]
    min_density = float(min(v[0].min(), v[1].min()))
    if cfg.drift == "upwind" and min_density < NEGATIVE_DENSITY_TOL:
        raise SolverError(
            f"negative density {min_density:.3e} under the upwind scheme"
        )
    return v, u3, StepInfo(picard_iters=iters, increments=increments, cg_iters=cg_iters)


def step_macro_pnp(state, tensors: EffectiveTensors, cfg: MacroConfig,
                   ops: GridOperators | None = None, start=None):
    """One accepted time step; returns (new_state, StepInfo).

    ``state`` is the state to step from, or a list holding it (``take``);
    the step keeps its densities, for the previous-step terms, and drops its
    potential once the Picard loop has read it.  ``ops``
    are the grid's operators, ``GridOperators(shape, tensors.p,
    tensor=tensors.eps0)``; without them the step builds its own; the step
    reads the porosity from them.  ``start`` is the [[u1, u2], u3] start of
    the Picard loop, as ``linear_predictor`` makes it; without it the loop
    starts from the state.
    """
    state = take(state)
    if ops is None:
        ops = GridOperators(state.u1.shape, tensors.p, tensor=tensors.eps0)
    A_drift = np.asarray(tensors.Hhat, dtype=float) - np.asarray(tensors.M, dtype=float)
    u, t = [state.u1, state.u2], state.t + cfg.dt
    if start is None:
        start = [list(u), state.u3]
    del state
    v, u3, info = picard_step(ops, start, lambda r: ops.p / cfg.dt * u[r], A_drift, cfg)
    return MacroState(u1=v[0], u2=v[1], u3=u3, t=t), info


def _xlogx(u: np.ndarray) -> np.ndarray:
    """u log u with 0 log 0 = 0, for nonnegative u: log 1 = 0 at u = 0."""
    return u * np.log(np.where(u > 0, u, 1.0))


def free_energy(state: MacroState, p: float) -> float:
    """Free energy of the effective model by voxel quadrature,

        F = p < sum_r u_r (log u_r - 1) + (u1 - u2) u3 / 2 >,

    with the 0 log 0 = 0 convention.  For a state whose u3 is the mean-zero
    potential of the charge p (u1 - u2), as every accepted state's is, the
    second term is 1/2 <u3, A u3> for the assembled Poisson operator A, so
    neither eps0 nor a gradient is needed.  That is the field energy
    1/2 <grad u3 . eps0 grad u3> of a symmetric A; with significant cross
    terms A != A^T, and the term is the energy of A's symmetric part
    (A + A^T)/2 only, while the steps solve with A itself.
    """
    if (state.u1 < 0).any() or (state.u2 < 0).any():
        raise ValueError("free energy needs nonnegative densities")
    density = _xlogx(state.u1) - state.u1 + _xlogx(state.u2) - state.u2
    density += 0.5 * (state.u1 - state.u2) * state.u3
    return p * float(density.sum()) / state.u1.size


def _block_reduce(ufunc, a: np.ndarray, window: int) -> np.ndarray:
    """Binary ``ufunc`` reduced over blocks of ``window`` cells per axis.
    Per axis, each offset in a block is folded into the blocks that reach
    it through strided views, so a short last block needs no padding; each
    block combines its cells in order, with the bits of ``ufunc.reduceat``
    for exact ufuncs (max, min, logical or)."""
    for axis in range(a.ndim):
        out = a[_along(a.ndim, axis, slice(0, None, window))].copy()
        for offset in range(1, min(window, a.shape[axis])):
            part = a[_along(a.ndim, axis, slice(offset, None, window))]
            head = out[_along(a.ndim, axis, slice(0, part.shape[axis]))]
            ufunc(head, part, out=head)
        a = out
    return a


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
    for z, u in zip(Z_CHARGES, (state.u1, state.u2)):
        mu = np.log(np.where(u > 0.0, u, 1.0)) + z * state.u3
        bad = _block_reduce(np.logical_or, u <= 0.0, window)
        spread = _block_reduce(np.maximum, mu, window) - _block_reduce(np.minimum, mu, window)
        skipped += int(bad.sum())
        if not bad.all():
            dev = max(dev, float(spread[~bad].max()))
    if skipped:
        logger.warning(
            "local-equilibrium check skipped %d blocks with nonpositive density",
            skipped,
        )
    return dev


def run_macro(cfg: MacroConfig, tensors: EffectiveTensors, init, snapshot_times=(),
              write_snapshot=None):
    """March from t=0 to t_end, one diagnostics row per accepted step.

    ``init`` is the initial state, or a list holding it that the run
    empties (``take``).  Each of ``snapshot_times`` names its nearest step
    (the earlier at a tie, to 1e-9 of a step; the first or the last at the
    window's ends), whose state goes to ``write_snapshot(state)`` as the run
    reaches it, once however many times name it; the run keeps no
    reference to it past the steps that start from it.  Returns (final
    state, rows); each row is a dict of the columns t, mass1, mass2, charge,
    free_energy, picard_iters and loceq_dev, in that order.  The grid's
    operators and solvers are built once for the whole run; ``march``
    starts the steps.
    """
    if snapshot_times and write_snapshot is None:
        raise ValueError("snapshot_times need a write_snapshot callable")
    for t in snapshot_times:
        defect = snapshot_defect(t, cfg.dt, cfg.t_end)
        if defect:
            raise ValueError(defect)
    wanted = {min(max(int(np.ceil(t / cfg.dt - 0.5 - 1e-9)), 1), cfg.n_steps)
              for t in snapshot_times}
    init = [take(init)]
    ops = GridOperators(init[0].u1.shape, tensors.p, tensor=tensors.eps0)
    rows = []
    steps = march(lambda held, start: step_macro_pnp(held, tensors, cfg, ops=ops, start=start),
                  init, cfg.n_steps)
    for k, (state, info) in enumerate(steps, start=1):
        rows.append({
            **balance_columns(state),
            "free_energy": free_energy(state, tensors.p),
            "picard_iters": info.picard_iters,
            "loceq_dev": check_local_equilibrium(state, cfg.loceq_window),
        })
        if k in wanted:
            write_snapshot(state)
    return state, rows
