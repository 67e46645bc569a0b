"""Direct numerical simulation of the oscillating-coefficient PNP system.

The microscopic domain tiles the reference cell s^-1 times per axis, so the
fine voxel grid lines up exactly with the cell voxel grid; ``MicroDomain``
keeps the cell and the tile count and derives s, the mask and the
coefficient, the cell's tiled bit for bit.  The potential is solved on the
whole box with the high-contrast coefficient (interface continuity holds
weakly through the conservative discretization); the densities live on the
fluid voxels with no-flux on the solid interface.  The DNS marches as the
macro run does, through ``macropnp.march`` with a ``MacroConfig``, and
holds its fields in ``MacroState``: u1 = n+, u2 = n- and u3 = phi.

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
from .config import RunConfig, scale_ratio_defect, tile_count_defect
from .macropnp import (GridOperators, MacroConfig, MacroState, Z_CHARGES,
                       balance_columns, march, picard_step, take)
from .unitcell import PermittivityParams, UnitCell, permittivity_field

logger = logging.getLogger(__name__)

DEFAULT_CELL_BUDGET = RunConfig.micro_budget


@dataclass(eq=False)
class MicroDomain:
    """Perforated fine grid of ``tiles`` cells per axis, at scale ratio
    s = 1/tiles: ``tile`` repeats a cell-grid field, such as the fluid
    ``mask``, over it.

    ``ops`` holds the grid's operators: the whole-box Poisson operator with
    the high-contrast coefficient, and the diffusion operators on the fluid
    voxels, each built on first use.  The coefficient ``eps``, the cell's
    ``permittivity_field`` tiled, is not stored: it is computed when asked,
    and the operators drop theirs once the Poisson operator is assembled.
    """

    tiles: int
    cell: UnitCell
    params: PermittivityParams
    mask: np.ndarray = field(init=False, repr=False)
    ops: GridOperators = field(init=False, repr=False)

    def __post_init__(self):
        if defect := tile_count_defect(self.tiles):
            raise ValueError(defect)
        self.mask = self.tile(self.cell.fluid_mask)
        self.ops = GridOperators(self.mask.shape, coef=self.eps, mask=self.mask)

    def tile(self, a: np.ndarray) -> np.ndarray:
        return np.tile(a, (self.tiles,) * self.dim)

    @property
    def eps(self) -> np.ndarray:
        return self.tile(permittivity_field(self.cell, self.params))

    @property
    def s(self) -> float:
        return 1.0 / self.tiles

    @property
    def dim(self) -> int:
        return self.cell.dim

    @property
    def resolution(self) -> int:
        return self.mask.shape[0]


class BudgetError(MemoryError):
    """Requested fine grid exceeds the configured budget."""


def assemble_micro_domain(cell: UnitCell, params: PermittivityParams, s,
                          max_cells: int = DEFAULT_CELL_BUDGET) -> MicroDomain:
    """Tile the cell mask s^-1 times per axis and build the fine coefficient."""
    frac = Fraction(s).limit_denominator(10**9)
    if defect := scale_ratio_defect(frac, s):
        raise ValueError(defect)
    tiles = frac.denominator
    fine_res = tiles * cell.resolution
    n = fine_res**cell.dim
    if n > max_cells:
        raise BudgetError(
            f"fine grid needs {n} voxels ({fine_res} per axis), budget is {max_cells}"
        )
    return MicroDomain(tiles=tiles, cell=cell, params=params)


def step_micro_pnp(state, dom: MicroDomain, cfg: MacroConfig, start=None):
    """One IMEX step of cfg.dt of the microscopic system; returns (state,
    StepInfo as a dict).

    The same Picard stepper as the macroscopic model, with the physical
    drift velocity -z grad phi (drift tensor -I) restricted to fluid faces.
    Boundary faces carry no advective flux: the potential is Neumann there,
    so the normal velocity vanishes.  ``state`` and ``start`` are handed
    over as in ``macropnp.step_macro_pnp``: the state, or a one-element list
    holding it that the step empties, and the [[n+, n-], phi] start of the
    Picard loop, as ``macropnp.linear_predictor`` makes it, which the loop
    empties; without a start the loop starts from the state, its first
    potential from the state's u3.
    """
    state = take(state)
    base = [state.u1 / cfg.dt, state.u2 / cfg.dt]
    t = state.t + cfg.dt
    if start is None:
        start = [[state.u1, state.u2], state.u3]
    del state
    v, phi, info = picard_step(dom.ops, start, base, -np.eye(dom.dim), cfg)
    return MacroState(u1=v[0], u2=v[1], u3=phi, t=t), dataclasses.asdict(info)


def run_micro(dom: MicroDomain, init, cfg: MacroConfig):
    """March the DNS from t=0 to cfg.t_end with ``macropnp.march``; returns
    (final state, diagnostics rows).  ``init`` is the initial state, or a
    one-element list holding it, which the run empties, so that it does not
    outlive the first step."""
    rows = []
    for state, info in march(lambda held, start: step_micro_pnp(held, dom, cfg, start=start),
                             init, cfg.n_steps):
        rows.append({**balance_columns(state), "picard_iters": info["picard_iters"]})
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
                          dom: MicroDomain) -> MacroState:
    """Fine-grid fields (u1 = n+, u2 = n-, u3 = phi) from the macro solution
    and the cell correctors.

    phi  = u3 - s sum_k xi_k(x/s) d_k u3 + s^2 sum_kl zeta_kl(x/s) d^2_kl u3
    n_r  = u_r - s z_r u_r sum_k eta_k(x/s) d_k u3        (zero on solid)

    Correctors are sampled at the wrapped fine coordinate, which is an exact
    index map because the fine grid tiles the cell grid (``dom.tile``);
    macro derivatives are central differences interpolated to the fine
    centers.
    """
    fine_shape = dom.mask.shape
    s = dom.s
    hc = 1.0 / macro.u3.shape[0]

    if macro.u3.shape[0] < 2:
        raise ValueError("macro grid too coarse to differentiate")
    if correctors.eta is None:
        raise ValueError("density reconstruction needs the eta correctors")
    grads = [np.gradient(macro.u3, hc, axis=k, edge_order=1) for k in range(dom.dim)]
    gfine = [interpolate_to_fine(g, fine_shape) for g in grads]

    phi = interpolate_to_fine(macro.u3, fine_shape)
    for k in range(dom.dim):
        phi = phi - s * dom.tile(correctors.xi3[k]) * gfine[k]
    if correctors.zeta3 is not None:
        for k in range(dom.dim):
            for l in range(dom.dim):
                hess = np.gradient(grads[k], hc, axis=l, edge_order=1)
                phi = phi + s * s * dom.tile(correctors.zeta3[k, l]) * interpolate_to_fine(
                    hess, fine_shape
                )
    else:
        logger.warning("second-order corrector missing: s^2 term skipped")
    phi = phi - phi.mean()

    corr = np.zeros(fine_shape)  # sum_k eta_k(x/s) d_k u3, shared by both species
    for k in range(dom.dim):
        corr += dom.tile(correctors.eta[k]) * gfine[k]
    densities = []
    for z, u in zip(Z_CHARGES, (macro.u1, macro.u2)):
        uf = interpolate_to_fine(u, fine_shape)
        densities.append((uf - s * z * uf * corr) * dom.mask)

    return MacroState(u1=densities[0], u2=densities[1], u3=phi, t=macro.t)


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
    if mask is not None and mask.shape != a.shape:
        raise ValueError("mask grid mismatch")
    sel = np.ones(a.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
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
