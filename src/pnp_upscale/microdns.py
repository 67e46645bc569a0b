"""Direct numerical simulation of the oscillating-coefficient PNP system.

The microscopic domain tiles the reference cell s^-1 times per axis, so the
fine voxel grid lines up exactly with the cell voxel grid and the composite
mask equals the periodic tiling bit for bit.  The potential is solved on the
whole box with the high-contrast coefficient (interface continuity holds
weakly through the conservative discretization); the densities live on the
fluid voxels with no-flux on the solid interface.

Also here: two-scale reconstruction of fine fields from a macroscopic state
plus the cell correctors, and the field comparison report used by the
validation sweep.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# The DNS assembles through macropnp.GridOperators; these names stay
# attributes of this module because perfbench/tracing.py wraps them here.
from ._fv import assemble_diffusion_matrix, assemble_neumann_operator  # noqa: F401
from .cellcorrect import CorrectorSet
from .macropnp import (GridOperators, MacroState, StepConfig, Z_CHARGES,
                       linear_predictor, picard_step)
from .unitcell import PermittivityParams, UnitCell

logger = logging.getLogger(__name__)

DEFAULT_CELL_BUDGET = 1 << 20  # 1024**2 fine voxels


@dataclass(eq=False)
class MicroDomain:
    """Perforated fine grid at scale ratio s (s^-1 an integer).

    ``ops`` holds the grid's operators: the whole-box Poisson operator with
    the high-contrast coefficient, and the diffusion operators on the fluid
    voxels, each built on first use.
    """

    s: float
    tiles: int
    cell: UnitCell
    mask: np.ndarray
    eps: np.ndarray
    ops: GridOperators = field(init=False, repr=False)

    def __post_init__(self):
        self.ops = GridOperators(self.mask.shape, coef=self.eps, mask=self.mask)

    @property
    def dim(self) -> int:
        return self.cell.dim

    @property
    def resolution(self) -> int:
        return self.mask.shape[0]


@dataclass(eq=False)
class MicroState:
    """Fine-grid fields: densities on fluid voxels (zero on solid), mean-zero potential."""

    nplus: np.ndarray
    nminus: np.ndarray
    phi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.nplus = np.asarray(self.nplus, dtype=float)
        self.nminus = np.asarray(self.nminus, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if not (self.nplus.shape == self.nminus.shape == self.phi.shape):
            raise ValueError("micro fields must share one grid")


class BudgetError(MemoryError):
    """Requested fine grid exceeds the configured budget."""


def assemble_micro_domain(cell: UnitCell, params: PermittivityParams, s,
                          max_cells: int = DEFAULT_CELL_BUDGET) -> MicroDomain:
    """Tile the cell mask s^-1 times per axis and build the fine coefficient."""
    frac = Fraction(s).limit_denominator(10**9)
    if frac.numerator != 1 or frac.denominator < 1:
        raise ValueError(f"scale ratio must be 1/integer, got {s}")
    tiles = frac.denominator
    fine_res = tiles * cell.resolution
    n = fine_res**cell.dim
    if n > max_cells:
        raise BudgetError(
            f"fine grid needs {n} voxels ({fine_res} per axis), budget is {max_cells}"
        )
    mask = np.tile(cell.fluid_mask, (tiles,) * cell.dim)
    eps = np.where(mask, params.fluid_value, params.alpha).astype(float)
    return MicroDomain(s=float(frac), tiles=tiles, cell=cell, mask=mask, eps=eps)


def solve_micro_poisson(dom: MicroDomain, nplus: np.ndarray, nminus: np.ndarray,
                        tol: float = 1e-10) -> np.ndarray:
    """-div(eps(x/s) grad phi) = nplus - nminus, homogeneous Neumann, mean zero."""
    return dom.ops.potential(nplus, nminus, tol)


def step_micro_pnp(state: MicroState, dom: MicroDomain, dt: float,
                   cfg: StepConfig, start=None):
    """One IMEX step of the microscopic system; returns (state, StepInfo as a dict).

    The same Picard stepper as the macroscopic model, with the physical
    drift velocity -z grad phi (drift tensor -I) restricted to fluid faces.
    Boundary faces carry no advective flux: the potential is Neumann there,
    so the normal velocity vanishes.  ``start`` is the ([nplus, nminus], phi)
    start of the Picard loop, as ``macropnp.linear_predictor`` makes it;
    without it the loop starts from ``state``, its first potential from
    ``state.phi``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    base = [state.nplus / dt, state.nminus / dt]
    v, phi = start if start is not None else ([state.nplus, state.nminus], state.phi)
    v, phi, info = picard_step(dom.ops, v, phi, base, -np.eye(dom.dim), dt, cfg)
    new_state = MicroState(nplus=v[0], nminus=v[1], phi=phi, t=state.t + dt)
    return new_state, dataclasses.asdict(info)


def run_micro(dom: MicroDomain, init: MicroState, dt: float, n_steps: int,
              cfg: StepConfig):
    """March the DNS n_steps; returns (final state, diagnostics rows).

    Steps start as in ``macropnp.run_macro``: the first from ``init``, the
    second from the first accepted state, every later one from the linear
    predictor of the last two accepted states.  Only the predictor outlives
    the older state, so a step keeps one extra set of fields alive.
    """
    vol = 1.0 / dom.mask.size
    state = init
    start = None
    rows = []
    for k in range(n_steps):
        new, info = step_micro_pnp(state, dom, dt, cfg, start=start)
        # init.phi need not be the potential of init's densities: no predictor from it
        start = linear_predictor([new.nplus, new.nminus], new.phi,
                                 [state.nplus, state.nminus], state.phi) if k else None
        state = new
        rows.append(
            {
                "t": state.t,
                "mass1": float(state.nplus.sum()) * vol,
                "mass2": float(state.nminus.sum()) * vol,
                "charge": float((state.nplus - state.nminus).sum()) * vol,
                "picard_iters": info["picard_iters"],
            }
        )
    return state, rows


# ---------------------------------------------------------------------------
# two-scale reconstruction and comparison


def interpolate_to_fine(field_c: np.ndarray, fine_shape) -> np.ndarray:
    """Bilinear/trilinear interpolation from macro cell centers to fine centers.

    Separable: per axis, the fine center's coordinate in coarse cell units is
    clamped to the coarse centers (the edge value holds beyond them), and one
    pair of ``take`` along that axis blends its two neighbours.  This is
    ``scipy.ndimage.map_coordinates`` with ``order=1, mode="nearest"`` up to
    rounding.
    """
    out = np.asarray(field_c, dtype=float)
    for axis, (M, Mf) in enumerate(zip(out.shape, fine_shape)):
        x = np.clip((np.arange(Mf) + 0.5) * (1.0 / Mf) / (1.0 / M) - 0.5, 0.0, M - 1)
        lo = np.minimum(x.astype(np.intp), max(M - 2, 0))
        hi = np.minimum(lo + 1, M - 1)
        w = (x - lo).reshape((-1,) + (1,) * (out.ndim - axis - 1))
        out = (1.0 - w) * np.take(out, lo, axis=axis) + w * np.take(out, hi, axis=axis)
    return out


def reconstruct_two_scale(macro: MacroState, correctors: CorrectorSet,
                          dom: MicroDomain) -> MicroState:
    """Fine-grid fields from the macro solution and the cell correctors.

    phi  = u3 - s sum_k xi_k(x/s) d_k u3 + s^2 sum_kl zeta_kl(x/s) d^2_kl u3
    n_r  = u_r - s z_r u_r sum_k eta_k(x/s) d_k u3        (zero on solid)

    Correctors are sampled at the wrapped fine coordinate, which is an exact
    index map because the fine grid tiles the cell grid; macro derivatives
    are central differences interpolated to the fine centers.
    """
    fine_shape = dom.mask.shape
    s = dom.s
    tiles = (dom.tiles,) * dom.dim
    hc = 1.0 / macro.u3.shape[0]

    if macro.u3.shape[0] < 2:
        raise ValueError("macro grid too coarse to differentiate")
    grads = [np.gradient(macro.u3, hc, axis=k, edge_order=1) for k in range(dom.dim)]
    gfine = [interpolate_to_fine(g, fine_shape) for g in grads]

    phi = interpolate_to_fine(macro.u3, fine_shape)
    for k in range(dom.dim):
        phi = phi - s * np.tile(correctors.xi3[k], tiles) * gfine[k]
    if correctors.zeta3 is not None:
        for k in range(dom.dim):
            for l in range(dom.dim):
                hess = np.gradient(grads[k], hc, axis=l, edge_order=1)
                phi = phi + s * s * np.tile(correctors.zeta3[k, l], tiles) * interpolate_to_fine(
                    hess, fine_shape
                )
    else:
        logger.warning("second-order corrector missing: s^2 term skipped")
    phi = phi - phi.mean()

    densities = []
    for z, u in zip(Z_CHARGES, (macro.u1, macro.u2)):
        uf = interpolate_to_fine(u, fine_shape)
        corr = np.zeros_like(uf)
        if correctors.eta is None:
            raise ValueError("density reconstruction needs the eta correctors")
        for k in range(dom.dim):
            corr += np.tile(correctors.eta[k], tiles) * gfine[k]
        nf = (uf - s * z * uf * corr) * dom.mask
        densities.append(nf)

    return MicroState(nplus=densities[0], nminus=densities[1], phi=phi, t=macro.t)


@dataclass
class FieldErrors:
    l2_abs: float
    l2_rel: float
    linf_abs: float
    linf_rel: float


def compare_fields(a: np.ndarray, b: np.ndarray,
                   mask: np.ndarray | None = None) -> FieldErrors:
    """L2 and Linf errors of a against the reference b over the masked region.

    The L2 norm carries the voxel volume weight, so a constant offset c on
    the unit domain reports an absolute L2 error of exactly |c|.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"grid mismatch: {a.shape} vs {b.shape}")
    if mask is not None:
        if mask.shape != a.shape:
            raise ValueError("mask grid mismatch")
        sel = np.asarray(mask, dtype=bool)
    else:
        sel = np.ones(a.shape, dtype=bool)
    vol = 1.0 / a.size
    diff = a[sel] - b[sel]
    ref = b[sel]
    l2_abs = float(np.sqrt((diff**2).sum() * vol))
    l2_ref = float(np.sqrt((ref**2).sum() * vol))
    linf_abs = float(np.abs(diff).max()) if diff.size else 0.0
    linf_ref = float(np.abs(ref).max()) if ref.size else 0.0
    return FieldErrors(
        l2_abs=l2_abs,
        l2_rel=l2_abs / l2_ref if l2_ref > 0 else (0.0 if l2_abs == 0.0 else np.inf),
        linf_abs=linf_abs,
        linf_rel=linf_abs / linf_ref if linf_ref > 0 else (0.0 if linf_abs == 0.0 else np.inf),
    )
