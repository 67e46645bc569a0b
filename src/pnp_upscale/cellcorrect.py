"""Periodic corrector cell problems on the reference cell.

Three families of problems are solved here, all of the form
-div(c(y) grad u) = f with periodic boundary conditions and the mean-zero
normalization that makes the singular operator uniquely solvable:

  * potential correctors, one per coordinate direction, driven by the
    permittivity contrast: div(kappa (grad xi - e_j)) = 0 on the whole cell;
  * density-corrector shapes eta^j on the fluid region, with natural no-flux
    conditions on the solid interface, driven by -grad xi;
  * second-order potential correctors zeta^{kl}, whose right-hand side mixes
    the first-order correctors with the effective permittivity.

Discretization is cell-centered finite volumes with harmonic face averaging
of the coefficient, which reproduces the 1D laminate effective coefficient
exactly.  The singular systems are solved by CG preconditioned with the
inverse of the constant-coefficient periodic Laplacian, applied by FFT (the
Moulinec-Suquet reference medium with CG acceleration), so the iteration
count depends on the coefficient contrast and not on the resolution.  The
right-hand side and every preconditioned residual are projected onto the
mean-zero subspace; on the fluid region the projection also zeroes the solid
part, which restricts the same preconditioner to the fluid.  The search
directions stay in the subspace, so the iterate is projected once, at the
end.  The system is consistent iff the right-hand side sums to zero.  The CG
loop (``pcg``) and the spectral symbol (``inverse_symbol``) also serve the
box-grid solver of ``_fv``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .unitcell import GeometryError, UnitCell

logger = logging.getLogger(__name__)

#: |discrete mean| <= MEAN_ZERO_RTOL * max|field| certifies the representative
MEAN_ZERO_RTOL = 1e-10

#: |sum(rhs)| <= COMPAT_RTOL * ||rhs|| is required of the singular system
COMPAT_RTOL = 1e-10

DEFAULT_TOL = 1e-10
ITER_CAP_FACTOR = 50  # iteration cap = factor * resolution


class SolverError(RuntimeError):
    """Linear solve failed: incompatible system or iteration cap reached."""


@dataclass(eq=False)
class PeriodicEllipticProblem:
    """-div(coefficient grad u) = rhs on the periodic cell.

    ``domain_mask`` restricts the problem to the fluid region; faces adjacent
    to masked-out voxels carry zero flux (natural interface condition).
    """

    coefficient: np.ndarray
    rhs: np.ndarray
    domain_mask: np.ndarray | None = None

    def __post_init__(self):
        coef = np.asarray(self.coefficient, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if coef.shape != rhs.shape:
            raise ValueError(f"coefficient {coef.shape} vs rhs {rhs.shape} shape mismatch")
        if not np.isfinite(rhs).all():
            raise ValueError("rhs contains non-finite values")
        active = self.domain_mask if self.domain_mask is not None else slice(None)
        if not np.isfinite(coef[active]).all() or (coef[active] <= 0).any():
            raise ValueError("coefficient must be strictly positive on the active region")
        self.coefficient = coef
        self.rhs = rhs


@dataclass(eq=False)
class CorrectorSet:
    """Mean-zero corrector fields on one reference cell.

    xi3:   (dim, m, ...)      potential correctors on the whole cell
    eta:   (dim, m, ...)      density-corrector shapes, zero-stored on solid
    zeta3: (dim, dim, m, ...) second-order potential correctors, optional
    residuals: final relative linear-solver residual per field
    """

    xi3: np.ndarray
    eta: np.ndarray | None = None
    zeta3: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# finite-volume plumbing (periodic wraparound)


def harmonic_face_coefficients(coef: np.ndarray, mask: np.ndarray | None = None):
    """Per-axis face transmissibilities.

    faces[d][idx] is the harmonic mean of the coefficient in cells idx and
    idx + e_d (periodic).  With a mask, faces touching a masked-out cell are
    zeroed, which realizes the no-flux interface condition.
    """
    faces = []
    for d in range(coef.ndim):
        nb = np.roll(coef, -1, axis=d)
        kf = 2.0 * coef * nb / (coef + nb)
        if mask is not None:
            kf = np.where(mask & np.roll(mask, -1, axis=d), kf, 0.0)
        faces.append(kf)
    return faces


def apply_periodic_operator(u: np.ndarray, faces, h: float) -> np.ndarray:
    """-div(c grad u) with the face transmissibilities from above."""
    out = np.zeros_like(u)
    for d, kf in enumerate(faces):
        out += kf * (u - np.roll(u, -1, axis=d))
        out += np.roll(kf, 1, axis=d) * (u - np.roll(u, 1, axis=d))
    out /= h * h
    return out


def face_gradient(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(u[idx + e_axis] - u[idx]) / h on the periodic face grid."""
    return (np.roll(u, -1, axis=axis) - u) / h


def inverse_symbol(angles, h: float, scale, shift: float = 0.0) -> np.ndarray:
    """1 / eigenvalue of a constant-coefficient shift I - sum_d scale_d d_dd.

    ``angles`` holds the 1D mode angles of each axis; mode k has the
    eigenvalue shift + sum_d scale_d (2 - 2 cos(angle_d)) / h^2.  The angles
    are 2 pi k / m on the ``rfftn`` half-spectrum of a periodic grid, pi k / m
    for zero-flux faces (DCT-II) and pi (k + 1) / m for ghost-cell Dirichlet
    faces (DST-II).  A zero eigenvalue, the nullspace, maps to zero.
    """
    sym = shift + sum(c * (2.0 - 2.0 * np.cos(a)) / (h * h)
                      for c, a in zip(scale, np.ix_(*angles)))
    inv = np.zeros_like(sym)
    np.divide(1.0, sym, out=inv, where=sym > 0.0)
    return inv


def pcg(apply, precondition, certify, b: np.ndarray, x: np.ndarray, r: np.ndarray,
        tol: float, max_iter: int):
    """Preconditioned CG from the iterate x with residual r = b - apply(x).

    ``precondition`` must keep z in the subspace the system lives on (the
    projection is its caller's business), so the search directions stay in
    it.  ``certify(r, x)`` is the stopping measure; once the recurrence
    residual passes it, the true residual b - apply(x) must pass too, or CG
    restarts from the true residual.  Returns (x, certificate, iterations);
    raises ``SolverError`` on breakdown or after ``max_iter`` iterations.
    """
    if not r.any():
        return x, 0.0, 0
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, max_iter + 1):
        Ap = apply(p)
        pAp = float(np.vdot(p, Ap))
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise SolverError("CG breakdown: operator lost positive definiteness")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if certify(r, x) <= tol:
            r = b - apply(x)
            res = certify(r, x)
            if res <= tol:
                return x, res, it
            # the recurrence drifted from the true residual: restart from it
            z = precondition(r)
            p = z.copy()
            rz = float(np.vdot(r, z))
            continue
        z = precondition(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    res = certify(b - apply(x), x)
    raise SolverError(
        f"CG reached the iteration cap {max_iter} at residual {res:.3e} (tol {tol:.1e})"
    )


def _pcg(faces, b: np.ndarray, h: float, mask: np.ndarray | None,
         tol: float, max_iter: int):
    """Projected preconditioned CG for the singular periodic system.

    Returns (solution, relative residual, iterations).  The preconditioner
    is the inverse periodic Laplacian followed by the projection onto the
    mean-zero subspace, which with a mask also zeroes the solid part.  The
    right-hand side is projected once and the search directions stay in the
    subspace, so only the final iterate is projected again.
    """
    # a 0/1 weight instead of boolean indexing: two dense passes per call
    w = np.ones(b.shape) if mask is None else mask.astype(float)
    nact = float(w.sum())

    def project(v):
        v -= np.vdot(v, w) / nact
        v *= w
        return v

    axes = tuple(range(b.ndim))
    half = b.shape[:-1] + (b.shape[-1] // 2 + 1,)
    inv_symbol = inverse_symbol(
        [2.0 * np.pi * np.arange(n) / m for n, m in zip(half, b.shape)], h,
        np.ones(b.ndim))

    def precondition(r):
        return project(np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv_symbol,
                                     s=b.shape, axes=axes))

    bnorm = float(np.linalg.norm(b))
    bp = project(b.copy())
    x, res, it = pcg(lambda v: apply_periodic_operator(v, faces, h), precondition,
                     lambda r, x: float(np.linalg.norm(r)) / bnorm,
                     bp, np.zeros_like(b), bp.copy(), tol, max_iter)
    return project(x), res, it


def check_mean_zero(u: np.ndarray, mask: np.ndarray | None = None) -> None:
    scale = float(np.abs(u).max())
    if scale == 0.0:
        return
    mean = float(u[mask].mean()) if mask is not None else float(u.mean())
    if abs(mean) > MEAN_ZERO_RTOL * scale:
        raise SolverError(f"mean-zero violation: |mean| = {abs(mean):.3e}, scale {scale:.3e}")


# ---------------------------------------------------------------------------
# solvers


def solve_periodic_elliptic(problem: PeriodicEllipticProblem, tol: float = DEFAULT_TOL,
                            max_iter: int | None = None) -> np.ndarray:
    u, _res, _it = _solve_periodic(problem, tol, max_iter)
    return u


def _solve_periodic(problem: PeriodicEllipticProblem, tol: float,
                    max_iter: int | None = None):
    if tol <= 0:
        raise ValueError("tol must be positive")
    mask = problem.domain_mask
    rhs = problem.rhs
    m = rhs.shape[0]
    if max_iter is None:
        max_iter = ITER_CAP_FACTOR * m
    active_sum = float(rhs[mask].sum()) if mask is not None else float(rhs.sum())
    nrm = float(np.linalg.norm(rhs))
    if abs(active_sum) > COMPAT_RTOL * nrm + 1e-300:
        raise SolverError(
            f"singular system incompatible: |sum(rhs)| = {abs(active_sum):.3e} "
            f"exceeds {COMPAT_RTOL:.0e} * ||rhs|| = {COMPAT_RTOL * nrm:.3e}"
        )
    faces = harmonic_face_coefficients(problem.coefficient, mask)
    h = 1.0 / m
    u, res, it = _pcg(faces, rhs, h, mask, tol, max_iter)
    check_mean_zero(u, mask)
    logger.debug("periodic elliptic solve: %d iterations, residual %.3e", it, res)
    return u, res, it


def solve_potential_corrector(cell: UnitCell, kappa: np.ndarray,
                              tol: float = DEFAULT_TOL):
    """First-order potential correctors, one mean-zero field per direction.

    Each field solves div(kappa (grad xi_j - e_j)) = 0 on the periodic cell;
    the right-hand side is the discrete divergence of the face-averaged
    coefficient, so it sums to zero by telescoping.

    Returns (fields, residuals) with fields of shape (dim, m, ...).
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != cell.fluid_mask.shape:
        raise ValueError("kappa shape does not match the cell grid")
    if (kappa <= 0).any():
        raise ValueError("kappa must be strictly positive")
    faces = harmonic_face_coefficients(kappa)
    h = cell.h

    results = []
    for j in range(cell.dim):
        rhs = (np.roll(faces[j], 1, axis=j) - faces[j]) / h
        results.append(_solve_periodic(PeriodicEllipticProblem(kappa, rhs), tol))
    fields = np.stack([r[0] for r in results])
    residuals = [r[1] for r in results]
    return fields, residuals


def solve_density_corrector_shape(cell: UnitCell, xi3: np.ndarray,
                                  tol: float = DEFAULT_TOL):
    """Geometry factor of the density correctors, on the fluid region.

    eta^j solves (grad eta, grad phi)_{Y^s} = -(grad xi_j, grad phi)_{Y^s}
    with no-flux on the solid interface.  The full density corrector for a
    species with charge z and local density u is recovered as z * u * eta^j;
    only the geometry factor is stored.
    """
    if not cell.fluid_connected:
        raise GeometryError(
            "fluid region is disconnected under periodic wraparound; "
            "the perforated cell problem decouples"
        )
    mask = cell.fluid_mask
    ones = np.ones_like(mask, dtype=float)
    faces = harmonic_face_coefficients(ones, mask)
    h = cell.h

    results = []
    for j in range(cell.dim):
        rhs = -apply_periodic_operator(np.asarray(xi3[j], dtype=float), faces, h)
        problem = PeriodicEllipticProblem(ones, rhs, domain_mask=mask)
        results.append(_solve_periodic(problem, tol))
    fields = np.stack([r[0] for r in results])
    residuals = [r[1] for r in results]
    return fields, residuals


#: relative compatibility defect allowed in the second-order right-hand side
SECOND_ORDER_COMPAT_RTOL = 1e-8


def second_order_rhs(cell: UnitCell, kappa: np.ndarray, xi3: np.ndarray,
                     eps0: np.ndarray, k: int, l: int) -> np.ndarray:
    """Right-hand side density for the (k,l) second-order potential corrector.

    Three contributions: the constant -eps0[k,l]; the weak-form divergence of
    the face-averaged kappa*xi_l in direction k; and the cell average of the
    k-direction face flux of the corrected coordinate y_l - xi_l.  The last
    term integrates to exactly the flux-form eps0[k,l], so the total sums to
    zero whenever eps0 was assembled from the same correctors.
    """
    h = cell.h
    faces_k = harmonic_face_coefficients(kappa)[k]
    # face value of kappa*xi_l: harmonic kappa times the centered xi average,
    # which stays consistent across coefficient jumps
    mu = faces_k * 0.5 * (xi3[l] + np.roll(xi3[l], -1, axis=k))
    div_weak = (np.roll(mu, 1, axis=k) - mu) / h
    q = faces_k * ((1.0 if k == l else 0.0) - face_gradient(xi3[l], k, h))
    flux_avg = 0.5 * (q + np.roll(q, 1, axis=k))
    return -eps0[k, l] + div_weak + flux_avg


def solve_second_order_potential_corrector(cell: UnitCell, kappa: np.ndarray,
                                           xi3: np.ndarray, eps0: np.ndarray,
                                           tol: float = DEFAULT_TOL):
    """Second-order potential correctors zeta^{kl}, mean-zero on the cell.

    The right-hand side is compatible by construction of eps0; the defect is
    asserted (not assumed) and an inconsistent eps0 is reported as an error.

    Returns (fields, residuals) with fields of shape (dim, dim, m, ...).
    """
    kappa = np.asarray(kappa, dtype=float)
    eps0 = np.asarray(eps0, dtype=float)
    N = cell.dim
    if eps0.shape != (N, N):
        raise ValueError(f"eps0 must be {N}x{N}")

    results = []
    for k in range(N):
        for l in range(N):
            rhs = second_order_rhs(cell, kappa, xi3, eps0, k, l)
            # the volume mean of the rhs measures how much the supplied
            # eps0[k,l] deviates from the flux form implied by the correctors
            defect = abs(float(rhs.mean())) / max(float(np.abs(eps0).max()), 1e-300)
            if defect > SECOND_ORDER_COMPAT_RTOL:
                raise SolverError(
                    f"second-order rhs ({k},{l}) incompatible: relative defect "
                    f"{defect:.3e}; eps0 is inconsistent with the supplied "
                    "correctors"
                )
            rhs -= rhs.mean()
            results.append(_solve_periodic(PeriodicEllipticProblem(kappa, rhs), tol))
    fields = np.stack([r[0] for r in results]).reshape((N, N) + kappa.shape)
    residuals = [r[1] for r in results]
    return fields, residuals
