"""Shared finite-volume plumbing for box domains (no periodic wrap).

Cell-centered grids on [0,1]^N with M cells per axis.  Used by the
macroscopic solver (constant-tensor coefficients) and the microscopic DNS
(variable scalar coefficient, perforated masks).  All matrices are assembled
once per operator and factorized with SuperLU; solves are deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cellcorrect import SolverError


def _face_index_pairs(shape, axis):
    """Flat indices (lo, hi) of the cells on either side of interior faces."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    key = [slice(None)] * len(shape)
    key[axis] = slice(0, -1)
    lo = idx[tuple(key)].ravel()
    key[axis] = slice(1, None)
    hi = idx[tuple(key)].ravel()
    return lo, hi


def _tangential_stencil(shape, axis, h):
    """Per-cell derivative stencil along ``axis``: central inside, one-sided
    at the two boundary layers.  Returns flat (plus, minus, weight) arrays so
    that du[c] = weight[c] * (u[plus[c]] - u[minus[c]])."""
    coords = np.indices(shape)
    c = coords[axis]
    m = shape[axis]
    cp = np.minimum(c + 1, m - 1)
    cm = np.maximum(c - 1, 0)
    weight = 1.0 / ((cp - cm) * h)
    plus_coords = [coords[d] if d != axis else cp for d in range(len(shape))]
    minus_coords = [coords[d] if d != axis else cm for d in range(len(shape))]
    plus = np.ravel_multi_index(plus_coords, shape).ravel()
    minus = np.ravel_multi_index(minus_coords, shape).ravel()
    return plus, minus, weight.ravel()


def _significant_offdiag(tensor):
    t = np.asarray(tensor, dtype=float)
    off = np.abs(t - np.diag(np.diag(t))).max()
    return off > 1e-12 * max(np.abs(t).max(), 1e-300)


def assemble_neumann_operator(shape, h, tensor=None, coef=None) -> sp.csr_matrix:
    """-div(T grad u) or -div(c(x) grad u) with zero-flux boundary faces.

    Exactly one of ``tensor`` (constant symmetric matrix) or ``coef``
    (per-cell scalar field, harmonic face averaging) must be given.  The
    operator is singular with constant nullspace; row and column sums vanish.
    """
    n = int(np.prod(shape))
    N = len(shape)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r).ravel())
        cols.append(np.asarray(c).ravel())
        vals.append(np.asarray(v, dtype=float).ravel())

    cross = tensor is not None and _significant_offdiag(tensor)
    if cross:
        stencils = [_tangential_stencil(shape, d, h) for d in range(N)]

    for d in range(N):
        lo, hi = _face_index_pairs(shape, d)
        if tensor is not None:
            c_face = np.full(lo.shape, float(tensor[d, d]) / (h * h))
        else:
            cf = np.asarray(coef, dtype=float).ravel()
            a, b = cf[lo], cf[hi]
            c_face = 2.0 * a * b / (a + b) / (h * h)
        add(lo, lo, c_face)
        add(hi, hi, c_face)
        add(lo, hi, -c_face)
        add(hi, lo, -c_face)
        if cross:
            for d2 in range(N):
                if d2 == d or tensor[d, d2] == 0.0:
                    continue
                plus, minus, w = stencils[d2]
                # flux q += T[d,d2] * mean of the two cell-centered tangential
                # derivatives; row lo gets -q/h, row hi gets +q/h
                coeff = float(tensor[d, d2]) * 0.5 / h
                for cells, sign in ((lo, -1.0), (hi, +1.0)):
                    for ends in (lo, hi):
                        add(cells, plus[ends], sign * coeff * w[ends])
                        add(cells, minus[ends], -sign * coeff * w[ends])

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


class PinnedNeumannSolver:
    """Direct solver for the consistent singular Neumann system.

    The right-hand side is projected to mean zero (the removed imbalance is
    returned), one degree of freedom is pinned to make the matrix regular,
    and the mean of the solution is subtracted afterwards.  For a compatible
    right-hand side the pinned solution solves the original singular system
    exactly; the certificate is the normwise backward error
    ||A x - b|| / (||A|| ||x|| + ||b||), whose rounding floor does not grow
    with the h^-2 scale of the operator.
    """

    def __init__(self, A: sp.csr_matrix):
        self.A = A.tocsr()
        self.norm_A = spla.norm(self.A, np.inf)
        # row 0 becomes e_0; the other rows keep every stored entry, explicit
        # zeros included (eliminate_zeros would drop those too)
        n = self.A.shape[0]
        e0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n))
        self.Ap = sp.vstack([e0, self.A[1:]], format="csr")
        self.lu = spla.splu(self.Ap.tocsc())

    def solve(self, b: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
        b = np.asarray(b, dtype=float).ravel()
        imbalance = float(b.mean())
        bp = b - imbalance
        nrm = float(np.linalg.norm(bp))
        if nrm == 0.0:
            return np.zeros_like(bp), imbalance
        rhs = bp.copy()
        rhs[0] = 0.0
        x = self.lu.solve(rhs)
        x += self.lu.solve(rhs - self.Ap @ x)  # one refinement sweep
        x -= x.mean()
        res = float(np.linalg.norm(self.A @ x - bp))
        res /= self.norm_A * float(np.linalg.norm(x)) + nrm
        if res > tol:
            raise SolverError(
                f"Neumann solve backward error {res:.3e} exceeds tol {tol:.1e}"
            )
        return x, imbalance


class FactorizedSolver:
    """splu wrapper for the nonsingular implicit-diffusion matrices."""

    def __init__(self, A: sp.csr_matrix):
        self.lu = spla.splu(A.tocsc())

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(np.asarray(b, dtype=float).ravel())


def assemble_diffusion_matrix(shape, h, dt, p, bc, mask=None) -> sp.csr_matrix:
    """(p/dt) I - p Lap  with the requested density boundary condition.

    bc = 'dirichlet' adds the ghost-cell penalty 2p/h^2 per boundary face
    (homogeneous value); bc = 'noflux' adds nothing.  With a mask, only
    fluid-fluid faces are assembled and masked-out cells get identity rows,
    keeping their values pinned at zero.
    """
    if bc not in ("dirichlet", "noflux"):
        raise ValueError(f"unknown bc {bc!r}")
    n = int(np.prod(shape))
    N = len(shape)
    diag = np.full(n, p / dt)
    if mask is not None:
        mflat = np.asarray(mask, dtype=bool).ravel()
        diag = np.where(mflat, p / dt, 1.0)
    rows, cols, vals = [], [], []
    c = p / (h * h)
    for d in range(N):
        lo, hi = _face_index_pairs(shape, d)
        if mask is not None:
            mflat = np.asarray(mask, dtype=bool).ravel()
            keep = mflat[lo] & mflat[hi]
            lo, hi = lo[keep], hi[keep]
        np.add.at(diag, lo, c)
        np.add.at(diag, hi, c)
        rows.extend([lo, hi])
        cols.extend([hi, lo])
        vals.extend([np.full(lo.shape, -c), np.full(hi.shape, -c)])
        if bc == "dirichlet":
            idx = np.arange(n).reshape(shape)
            for side in (0, shape[d] - 1):
                key = [slice(None)] * N
                key[d] = side
                cells = idx[tuple(key)].ravel()
                if mask is not None:
                    mflat = np.asarray(mask, dtype=bool).ravel()
                    cells = cells[mflat[cells]]
                np.add.at(diag, cells, 2.0 * c)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


def cell_gradients(u: np.ndarray, h: float):
    """Cell-centered gradient, central inside and one-sided at the edges."""
    if u.shape[0] == 1:  # degenerate axis; np.gradient needs >= 2 points
        return [np.zeros_like(u) for _ in range(u.ndim)]
    return [np.gradient(u, h, axis=d, edge_order=1) for d in range(u.ndim)]
