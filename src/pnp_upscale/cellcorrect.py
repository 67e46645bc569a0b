"""Periodic corrector cell problems on the reference cell.

Three families of problems are solved here, all of the form
-div(c(y) grad u) = f with periodic boundary conditions and the mean-zero
normalization that makes the singular operator uniquely solvable:

  * potential correctors, one per coordinate direction, driven by the
    permittivity contrast: div(kappa (grad xi - e_j)) = 0 on the whole cell;
  * density-corrector shapes eta^j on the fluid region, with natural no-flux
    conditions on the solid interface, driven by -grad xi.  Their discrete
    solution is -(xi_j - <xi_j>_fluid) on the fluid, taken in closed form
    and certified by its residual (``solve_density_corrector_shape``);
  * second-order potential correctors zeta^{kl}, whose right-hand side mixes
    the first-order correctors with the effective permittivity.

Discretization is cell-centered finite volumes with harmonic face averaging
of the coefficient, which reproduces the 1D laminate effective coefficient
exactly.  The singular systems are solved by ``SpectralPCG``: CG
preconditioned with the inverse of the constant-coefficient periodic
Laplacian, applied by FFT (the Moulinec-Suquet reference medium with CG
acceleration), so the iteration count depends on the coefficient contrast
and not on the resolution.  One ``solve_periodic`` call builds the faces,
operator and solver of one coefficient once and solves a whole family.
The right-hand side and every preconditioned residual are projected onto
the mean-zero subspace, and on a masked problem the masked-out part is
zeroed, which restricts the same preconditioner to the fluid; the search
directions stay in the subspace, so the iterate is projected once, at the
end.  The system is consistent iff the right-hand side sums to zero.  The
same class, with a DCT or DST for the FFT (scipy's pocketfft, loaded by
``_kernels``), solves every box grid (``macropnp.GridOperators``), in
float32 on the DNS grids only (the cell outputs are the stored tensors),
which the flexible CG kernel ``pcg`` tolerates.  Every solve stops at a
certificate, or raises ``SolverError`` at a stall (``STALL_WINDOW``) or its
iteration cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import RunConfig, tolerance_defect
from .unitcell import GeometryError, UnitCell

logger = logging.getLogger(__name__)

#: |discrete mean| <= MEAN_ZERO_RTOL * max|field| certifies the representative
MEAN_ZERO_RTOL = 1e-10

#: |sum(rhs)| <= COMPAT_RTOL * ||rhs|| is required of the singular system
COMPAT_RTOL = 1e-10

DEFAULT_TOL = RunConfig.solver_tol
ITER_CAP_FACTOR = 50  # iteration cap = factor * resolution

#: CG stops as stagnated once its certificate has not halved in this many iterations
STALL_WINDOW = 100


class SolverError(RuntimeError):
    """Linear solve failed: incompatible system, stagnation, iteration cap
    or certificate, or no scipy for a box-grid solver."""


@dataclass(eq=False)
class CorrectorSet:
    """Mean-zero corrector fields on one reference cell.

    xi3:   (dim, m, ...)      potential correctors on the whole cell
    eta:   (dim, m, ...)      density-corrector shapes, zero-stored on solid
    zeta3: (dim, dim, m, ...) second-order potential correctors, optional
    residuals: final relative residual per field, of the CG solve or, for
               eta, of the closed form
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


def periodic_operator(faces, h: float):
    """u -> -div(c grad u) with the face transmissibilities from above.

    An application forms one face flux per axis, c (u[idx + e_d] - u[idx]),
    from two slice pairs in one reused buffer, without rolling u, takes it
    from the cell behind the face and adds it to the cell ahead, in ``out``
    if given (as ``_fv.CompactDia`` does) or a new array.  Each
    product and sum is the one of the two-difference stencil
    c (u - u[idx + e_d]) + c[idx - e_d] (u - u[idx - e_d]), bit for bit."""
    # per axis: all cells but the last, all but the first, the first, the last
    cuts = [tuple((slice(None),) * d + (s,) for s in
                  (slice(0, -1), slice(1, None), slice(0, 1), slice(-1, None)))
             for d in range(len(faces))]

    def apply(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros_like(u)
        else:
            out.fill(0.0)
        flux = np.empty_like(u)
        for kf, (head, tail, first, last) in zip(faces, cuts):
            np.subtract(u[tail], u[head], out=flux[head])
            np.subtract(u[first], u[last], out=flux[last])
            out -= np.multiply(kf, flux, out=flux)
            out[tail] += flux[head]
            out[first] += flux[last]
        out /= h * h
        return out

    return apply


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
    """Flexible preconditioned CG from the iterate x with residual r = b - apply(x).

    ``precondition`` must keep z in the subspace the system lives on (the
    projection is its caller's business), so the search directions stay in
    it.  It may be inexact, such as a transform in single precision: beta
    is the Polak-Ribiere z+ . (r+ - r) / (z . r), which keeps CG convergent
    under a slightly non-symmetric or varying preconditioner (Golub & Ye,
    SIAM J. Sci. Comput. 21 (1999) 1305; Notay, ibid. 22 (2000) 1444) and
    equals the z+ . r+ / (z . r) of plain PCG in exact arithmetic.  It is
    computed as -alpha z+ . Ap, since r+ - r = -alpha Ap: one dot product
    more per iteration and no stored residual.  ``certify(r, x)`` is the
    stopping measure; once the recurrence residual passes it, the true
    residual b - apply(x), written into r, must pass too, or CG restarts
    from it.  x, r and p change in place (alpha p and alpha Ap through one
    scratch array) with the bits of x + alpha p and z + beta p.
    ``precondition(r, out)`` returns z, written into ``out`` or a new array,
    never into r: the first z goes into a new array, which becomes p, and
    every later one into the scratch array, which is free from r's update to
    the next iteration's.  ``apply(u, out)`` writes A p, and the restart's
    A x, into one buffer that this kernel owns.  Returns
    (x, certificate, iterations); raises ``SolverError`` on breakdown (p.Ap
    or z.r not finite once values overflow; p.Ap not positive; z.r not
    positive while the certificate is above tol), when the certificate has
    not halved in ``STALL_WINDOW`` iterations, or after ``max_iter``
    iterations.
    """
    if not r.any():
        return x, 0.0, 0

    def positive_rz(z):
        # z.r > 0 for r != 0 under a positive definite preconditioner; it
        # is lost when r, or z, falls below what the floats resolve
        rz = float(np.vdot(r, z))
        if not np.isfinite(rz):
            raise SolverError(f"CG breakdown: z.r = {rz} is not finite; the values overflowed")
        if rz <= 0.0:
            raise SolverError(
                f"CG breakdown: z.r = {rz:.3e} before the certificate reached the "
                f"tolerance {tol:.1e}, which may be below what this grid can certify"
            )
        return rz

    p = precondition(r, np.empty_like(x))  # the first z, which nothing else holds
    rz = positive_rz(p)
    scaled = np.empty_like(x)  # alpha p, then alpha Ap, then z
    Ap = np.empty_like(x)  # A p, and A x at a restart, whose beta = 0 needs no A p
    mark, mark_it = np.inf, 0  # the last certificate that halved its predecessor
    for it in range(1, max_iter + 1):
        apply(p, Ap)
        pAp = float(np.vdot(p, Ap))
        if not np.isfinite(pAp):
            raise SolverError(f"CG breakdown: p.Ap = {pAp} is not finite; the values overflowed")
        if pAp <= 0.0:
            raise SolverError("CG breakdown: operator lost positive definiteness")
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(Ap, alpha, out=scaled)
        res = certify(r, x)
        restart = res <= tol
        if restart:
            np.subtract(b, apply(x, Ap), out=r)
            res = certify(r, x)
            if res <= tol:
                return x, res, it
            # the recurrence drifted from the true residual: restart from it
        if res <= 0.5 * mark:
            mark, mark_it = res, it
        elif it - mark_it >= STALL_WINDOW:
            raise SolverError(
                f"CG stagnated: certificate {mark:.3e} not halved in {STALL_WINDOW} "
                f"iterations; the tolerance {tol:.1e} may be below what this grid "
                f"can certify"
            )
        z = precondition(r, scaled)
        rz_new = positive_rz(z)
        beta = 0.0 if restart else -alpha * float(np.vdot(z, Ap)) / rz
        p *= beta
        p += z
        rz = rz_new
    res = certify(b - apply(x), x)
    raise SolverError(f"CG reached the iteration cap {max_iter} at residual {res:.3e} "
                      f"(tol {tol:.1e})")


class SpectralPCG:
    """Projected CG on one grid, preconditioned by the inverse of the
    constant-coefficient operator shift I - sum_d scale_d d_dd.

    ``apply(u, out=None)`` writes A u into ``out`` or a new array.  The
    boundary kind ``bc`` picks the transform that diagonalizes the
    preconditioner (``inverse_symbol``): ``numpy.fft.rfftn`` for
    ``periodic``, the orthonormal type-2 DCT for ``noflux`` and the type-2
    DST for ``dirichlet`` ghost-cell faces (``_kernels.box_transforms``:
    scipy's pocketfft kernel, loaded by file and checked when the first box
    solver is built, else through ``scipy.fft`` with the same bits).
    With ``single`` the transforms and the symbol run in float32, which
    halves the cost of a 256^2 DST pair; the residual is cast down before
    them (both write into that cast) and the result back up after, into the
    buffer ``pcg`` hands over (a float64 inverse transform writes there
    itself), and everything else (the projection, the iterate, the matvec, the
    certificate, the restart and ``check_mean_zero``) stays float64, so only
    the convergence rate of the flexible ``pcg`` feels the rounding, not the
    result.  Without a shift a periodic or no-flux system is singular.  One
    projection follows every preconditioner application: the mean over the
    active cells out when singular, the cells outside ``mask`` zeroed by a
    product with it (a float copy is kept only for a singular mean; a
    regular masked float32 result is cast up in that product).  A
    singular system's right-hand side and result are projected as well, and
    the result passes ``check_mean_zero``.  Masked-out cells take their
    values from the right-hand side (identity rows on the box; zero after a
    singular projection).  A shifted no-flux solve that iterates ends by
    adding one constant to x on the active cells, where each column of the
    operator sums to the shift: the active sum of its residual, the mass a
    diffusion step loses, drops to rounding.

    ``solve(b, tol, x0, reduction)`` returns (x, certificate, iterations),
    x shaped as b.  It starts from ``x0`` brought into the subspace (zero
    without one).  The certificate is ||A x - b|| / (norm_A ||x|| + ||b||)
    for the projected b: the relative residual, or the backward error when
    ``norm_A`` is ||A||.  The solve stops once the certificate is at most
    max(tol, reduction * the start's certificate), after 0 iterations if
    the start passes; with ``reduction`` in (0, 1), the inexact solves of an
    outer loop, a start that fails ``tol`` always takes an iteration.
    ``reduction`` = 0 is the plain stop at ``tol``.  Breakdown, or
    ``max_iter`` = ``ITER_CAP_FACTOR`` * side iterations of ``pcg``, raises
    ``SolverError``, and so does a non-finite right-hand side or start.
    """

    def __init__(self, apply, shape, h: float, scale, shift: float = 0.0,
                 bc: str = "noflux", mask=None, norm_A: float = 0.0,
                 single: bool = False):
        if bc not in ("periodic", "noflux", "dirichlet"):
            raise ValueError(f"unknown bc {bc!r}")
        self.apply = apply
        self.shape = tuple(shape)
        self.bc = bc
        self.shift = shift
        self.singular = shift == 0.0 and bc != "dirichlet"
        self.norm_A = norm_A
        self.max_iter = ITER_CAP_FACTOR * self.shape[0]
        self.mask = None if mask is None else np.asarray(mask, dtype=bool).reshape(self.shape)
        if self.mask is not None:
            # dense passes instead of boolean indexing; the masked mean of a
            # singular system dots with a float weight (same bits as the mask)
            self.weight = self.mask.astype(float) if self.singular else self.mask
            self.active = float(np.count_nonzero(self.mask))
        if bc == "periodic":
            axes = tuple(range(len(self.shape)))
            half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
            angles = [2.0 * np.pi * np.arange(n) / m for n, m in zip(half, self.shape)]
            self._forward = partial(np.fft.rfftn, axes=axes)
            self._inverse = partial(np.fft.irfftn, s=self.shape, axes=axes)
        else:
            dirichlet = bc == "dirichlet"
            angles = [np.pi * (np.arange(m) + int(dirichlet)) / m for m in self.shape]
            # imported here, so that the cell problems do not compile it
            from ._kernels import box_transforms

            self._forward, self._inverse = box_transforms(
                "dst" if dirichlet else "dct", len(self.shape), overwrite=single)
        self.inv_symbol = inverse_symbol(angles, h, scale, shift).astype(
            np.float32 if single else float, copy=False)

    def _mean(self, v: np.ndarray):
        return v.mean() if self.mask is None else np.vdot(v, self.weight) / self.active

    def _project(self, v: np.ndarray) -> np.ndarray:
        if self.singular:
            v -= self._mean(v)
        if self.mask is not None:
            v *= self.weight
        return v

    def _precondition(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        # a residual past the float32 range casts to inf without a warning:
        # pcg reports the overflow through its non-finite z.r check
        with np.errstate(over="ignore"):
            z = r.astype(self.inv_symbol.dtype, copy=False)
        # single transforms overwrite their own float32 cast; a float64 z is r
        z = self._forward(z)
        z *= self.inv_symbol
        if self.inv_symbol.dtype == float:
            return self._project(self._inverse(z, out=out))
        z = self._inverse(z)
        if self.mask is not None and not self.singular:
            return np.multiply(z, self.mask, out=out)  # the projection
        out[...] = z
        return self._project(out)

    def solve(self, b: np.ndarray, tol: float, x0: np.ndarray | None = None,
              reduction: float = 0.0):
        if not 0.0 <= reduction < 1.0:
            raise ValueError(f"reduction must lie in [0, 1), got {reduction}")
        shape_b = np.shape(b)
        b = np.asarray(b, dtype=float).reshape(self.shape)
        for name, v in (("right-hand side", b), ("start", x0)):
            if v is not None and not np.isfinite(v).all():
                raise SolverError(f"{self.bc} elliptic solve: non-finite {name}")
        if self.singular:
            b = self._project(b.copy())
        bnorm = float(np.linalg.norm(b))
        if x0 is None or bnorm == 0.0:
            x = np.zeros(self.shape)
        else:
            x = np.array(x0, dtype=float).reshape(self.shape)
            if self.singular:
                x -= self._mean(x)
        if self.mask is not None:
            np.copyto(x, b, where=~self.mask)
        r = self.apply(x)
        np.subtract(b, r, out=r)

        def certify(r, x):
            res = float(np.linalg.norm(r))
            if self.norm_A:
                return res / (self.norm_A * float(np.linalg.norm(x)) + bnorm)
            return res / bnorm

        res, it = (certify(r, x) if r.any() else 0.0), 0
        tol = max(tol, reduction * res)
        if not res <= tol:  # a NaN certificate must not pass
            x, res, it = pcg(self.apply, self._precondition, certify, b, x, r, tol,
                             self.max_iter)
            if self.bc == "noflux" and not self.singular:
                active = True if self.mask is None else self.mask
                count = x.size if self.mask is None else self.active
                np.add(x, float(r.sum(where=active)) / (self.shift * count), out=x, where=active)
        if self.singular:
            check_mean_zero(self._project(x), self.mask)
        logger.debug("%s elliptic solve: %d iterations, residual %.3e", self.bc, it, res)
        return x.reshape(shape_b), res, it


def check_mean_zero(u: np.ndarray, mask: np.ndarray | None = None) -> None:
    scale = float(np.abs(u).max())
    if scale == 0.0:
        return
    mean = float(u[mask].mean()) if mask is not None else float(u.mean())
    if abs(mean) > MEAN_ZERO_RTOL * scale:
        raise SolverError(f"mean-zero violation: |mean| = {abs(mean):.3e}, scale {scale:.3e}")


# ---------------------------------------------------------------------------
# solvers


def solve_periodic(coefficient: np.ndarray, rhs, tol: float,
                   domain_mask: np.ndarray | None = None):
    """-div(coefficient grad u) = f on the periodic cell, for each f in ``rhs``.

    ``rhs`` is a family of right-hand sides shaped as the coefficient (a
    stacked array or any iterable of them).  The harmonic faces, the
    periodic operator and its ``SpectralPCG`` are built once and solve
    every member in turn.  ``domain_mask`` restricts the problem to the
    fluid region; faces adjacent to masked-out voxels carry zero flux
    (natural interface condition).  Each member must match the coefficient's
    shape, be finite and sum to zero over the active region (``COMPAT_RTOL``).

    Returns (fields, residuals, iterations): the stacked mean-zero fields and
    the certificate and CG iteration count of each solve.
    """
    if defect := tolerance_defect(tol):
        raise ValueError(defect)
    coef = np.asarray(coefficient, dtype=float)
    active = domain_mask if domain_mask is not None else slice(None)
    if not np.isfinite(coef[active]).all() or (coef[active] <= 0).any():
        raise ValueError("coefficient must be strictly positive on the active region")
    h = 1.0 / coef.shape[0]
    faces = harmonic_face_coefficients(coef, domain_mask)
    solver = SpectralPCG(periodic_operator(faces, h), coef.shape, h, np.ones(coef.ndim),
                         bc="periodic", mask=domain_mask)
    fields, residuals, iterations = [], [], []
    for f in rhs:
        f = np.asarray(f, dtype=float)
        if coef.shape != f.shape:
            raise ValueError(f"coefficient {coef.shape} vs rhs {f.shape} shape mismatch")
        if not np.isfinite(f).all():
            raise ValueError("rhs contains non-finite values")
        active_sum = float(f[active].sum())
        nrm = float(np.linalg.norm(f))
        if abs(active_sum) > COMPAT_RTOL * nrm + 1e-300:
            raise SolverError(
                f"singular system incompatible: |sum(rhs)| = {abs(active_sum):.3e} "
                f"exceeds {COMPAT_RTOL:.0e} * ||rhs|| = {COMPAT_RTOL * nrm:.3e}")
        u, res, it = solver.solve(f, tol)
        fields.append(u)
        residuals.append(res)
        iterations.append(it)
    return np.stack(fields), residuals, iterations


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
    rhs = ((np.roll(f, 1, axis=j) - f) / cell.h for j, f in enumerate(faces))
    return solve_periodic(kappa, rhs, tol)[:2]


def solve_density_corrector_shape(cell: UnitCell, xi3: np.ndarray,
                                  tol: float = DEFAULT_TOL):
    """Geometry factor of the density correctors, on the fluid region.

    eta^j solves (grad eta, grad phi)_{Y^s} = -(grad xi_j, grad phi)_{Y^s}
    with no-flux on the solid interface; discretely L_f eta = -L_f xi_j,
    where L_f is the periodic operator with the faces touching the solid
    closed.  L_f reads fluid values only, so L_f (eta + xi_j) = 0 on the
    fluid, whose only solutions on a periodically connected fluid are the
    constants.  The mean-zero solution is therefore
    eta^j = -(xi_j - <xi_j>_fluid) on the fluid and 0 on the solid, taken
    in closed form with no linear solve.  Its certificate is the relative
    residual ||L_f eta - rhs|| / ||rhs|| of the discrete problem, one
    operator application per direction.  The full density corrector for a
    species with charge z and local density u is recovered as z * u * eta^j;
    only the geometry factor is stored.

    Returns (fields, residuals) with fields of shape (dim, m, ...).  Raises
    ``GeometryError`` on a disconnected fluid, ``SolverError`` when a
    certificate exceeds ``tol``.
    """
    if not cell.fluid_connected:
        raise GeometryError(
            "fluid region is disconnected under periodic wraparound; "
            "the perforated cell problem decouples"
        )
    if defect := tolerance_defect(tol):
        raise ValueError(defect)
    mask = cell.fluid_mask
    apply = periodic_operator(harmonic_face_coefficients(np.ones(mask.shape), mask), cell.h)
    fields, residuals = [], []
    for xi in xi3[:cell.dim]:
        xi = np.asarray(xi, dtype=float)
        rhs = -apply(xi)
        eta = np.zeros(mask.shape)
        res = 0.0
        if rhs.any():
            eta[mask] = xi[mask].mean() - xi[mask]
            res = float(np.linalg.norm(apply(eta) - rhs)) / float(np.linalg.norm(rhs))
        if not res <= tol:  # a NaN certificate must not pass
            raise SolverError(
                f"density corrector residual {res:.3e} exceeds tol {tol:.1e}"
            )
        check_mean_zero(eta, mask)
        fields.append(eta)
        residuals.append(res)
    return np.stack(fields), residuals


#: relative compatibility defect allowed in the second-order right-hand side
SECOND_ORDER_COMPAT_RTOL = 1e-8


def second_order_rhs(cell: UnitCell, faces_k: np.ndarray, xi3: np.ndarray,
                     eps0: np.ndarray, k: int, l: int) -> np.ndarray:
    """Right-hand side density for the (k,l) second-order potential corrector.

    Three contributions: the constant -eps0[k,l]; the weak-form divergence of
    the face-averaged kappa*xi_l in direction k; and the cell average of the
    k-direction face flux of the corrected coordinate y_l - xi_l.  The last
    term integrates to exactly the flux-form eps0[k,l], so the total sums to
    zero whenever eps0 was assembled from the same correctors.  ``faces_k``
    holds kappa's harmonic faces normal to axis k,
    ``harmonic_face_coefficients(kappa)[k]``.
    """
    h = cell.h
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

    faces = harmonic_face_coefficients(kappa)
    family = []
    for k in range(N):
        for l in range(N):
            rhs = second_order_rhs(cell, faces[k], xi3, eps0, k, l)
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
            family.append(rhs)
    fields, residuals, _ = solve_periodic(kappa, family, tol)
    return fields.reshape((N, N) + kappa.shape), residuals
