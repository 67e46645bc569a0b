"""Shared finite-volume plumbing for box domains (no periodic wrap).

Cell-centered grids on [0,1]^N with M cells per axis, for the macroscopic
solver (constant tensors) and the microscopic DNS (variable scalar
coefficient, perforated masks).  One face layout serves every grid:
``_face_slices`` gives, per axis, the lo and hi cells of the M-1 interior
faces, so a box face array is the periodic cell's
(``cellcorrect.harmonic_face_coefficients``) without its wrap face; the
drift and the free energy walk the same faces.  Every matrix is
-div(c grad u) + diag u from ``face_operator``: c is the harmonic mean of
the permittivity on the DNS grid, eps0[d,d] plus its cross terms on the
macro grid, and p on open fluid faces (0 on closed ones) for the
densities, whose diagonal adds p/dt and the Dirichlet ghost-cell penalty.
Each matrix is assembled once and solved by ``cellcorrect.SpectralPCG``,
the solver of the periodic cell problems, with a constant-coefficient box
preconditioner diagonalized by DCT-II or DST-II, in float32 on the DNS
grids and float64 on the macro grid.  The SuperLU solvers
``PinnedNeumannSolver`` and ``FactorizedSolver`` are its test oracles only,
with the same solve contract; no grid of the program factorizes.
scipy.sparse loads inside ``face_operator`` and the oracles, so importing
this module, and the package, needs numpy only; scipy comes in when the
first box matrix is built, and its absence is a ``SolverError``
(``cellcorrect.import_scipy``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .cellcorrect import SolverError, harmonic_face_coefficients, import_scipy

if TYPE_CHECKING:
    import scipy.sparse as sp


def _along(N: int, d: int, key):
    """Index tuple applying ``key`` on axis d and taking all of every other axis."""
    return tuple(key if k == d else slice(None) for k in range(N))


def _face_slices(N: int):
    """(lo, hi) index tuples selecting the two cells of each interior face, per axis."""
    return [(_along(N, d, slice(0, -1)), _along(N, d, slice(1, None))) for d in range(N)]


def _index_dtype(n: int):
    """Flat cell index type of an n-cell grid: int32, which scipy's sparse
    matrices store anyway, up to 2**31 cells, and int64 beyond."""
    return np.int32 if n < 2**31 else np.int64


def _cell_indices(shape) -> np.ndarray:
    n = int(np.prod(shape))
    return np.arange(n, dtype=_index_dtype(n)).reshape(shape)


def _tangential_stencil(shape, axis, h):
    """Per-cell derivative stencil along ``axis``: central inside, one-sided
    at the two boundary layers.  Returns flat (plus, minus, weight) arrays so
    that du[c] = weight[c] * (u[plus[c]] - u[minus[c]])."""
    idx = _cell_indices(shape)
    c = np.arange(shape[axis])
    cp, cm = np.minimum(c + 1, shape[axis] - 1), np.maximum(c - 1, 0)
    weight = np.take(1.0 / ((cp - cm) * h), np.indices(shape)[axis])
    return (np.take(idx, cp, axis=axis).ravel(), np.take(idx, cm, axis=axis).ravel(),
            weight.ravel())


def _significant_offdiag(tensor):
    t = np.asarray(tensor, dtype=float)
    off = np.abs(t - np.diag(np.diag(t))).max()
    return off > 1e-12 * max(np.abs(t).max(), 1e-300)


def face_operator(shape, h, faces, diag=0.0, wall=None, tensor=None) -> sp.csr_matrix:
    """CSR matrix of -div(c grad u) + diag u on a box grid, by face fluxes.

    ``faces[d]`` is the transmissibility c on the interior faces of axis d
    (a scalar, or an array in the ``_face_slices`` layout); a zero face is
    closed and stores no entry.  ``diag`` (scalar or per cell) starts the
    diagonal.  ``wall`` (per cell) is the transmissibility through each
    boundary face to a zero exterior value, the ghost-cell Dirichlet
    penalty; without it the boundary faces carry no flux.  The significant
    off-diagonals of a constant ``tensor`` add to each face flux T[d,d2]
    times the mean of its two cells' d2-derivatives (central inside,
    one-sided at the edges).  Per axis the diagonal gains the faces, then
    the wall.  The cell indices are int32 below 2**31 cells, so scipy need
    not convert them.
    """
    sp = import_scipy("scipy.sparse")
    N = len(shape)
    idx = _cell_indices(shape)
    diag = np.array(np.broadcast_to(diag, shape), dtype=float)
    # diag.ravel() is a view: the faces below still add to it
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [diag.ravel()]
    cross = tensor is not None and _significant_offdiag(tensor)
    stencils = [_tangential_stencil(shape, d, h) for d in range(N)] if cross else None
    for d, (lo, hi) in enumerate(_face_slices(N)):
        t = np.broadcast_to(faces[d], idx[lo].shape) / (h * h)
        diag[lo] += t
        diag[hi] += t
        if wall is not None:
            for side in (0, -1):
                cells = _along(N, d, side)
                diag[cells] += wall[cells] / (h * h)
        keep = t != 0.0
        a, b, t = idx[lo][keep], idx[hi][keep], t[keep]
        rows += [a, b]
        cols += [b, a]
        vals += [-t, -t]
        for d2 in range(N):
            if not cross or d2 == d or tensor[d, d2] == 0.0:
                continue
            plus, minus, w = stencils[d2]
            # flux q += T[d,d2] * mean of the two cell-centered tangential
            # derivatives; row a gets -q/h, row b gets +q/h
            coeff = float(tensor[d, d2]) * 0.5 / h
            for cells, sign in ((a, -1.0), (b, +1.0)):
                for ends in (a, b):
                    rows += [cells, cells]
                    cols += [plus[ends], minus[ends]]
                    vals += [sign * coeff * w[ends], -sign * coeff * w[ends]]
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(idx.size, idx.size),
    )
    return A.tocsr()


def assemble_neumann_operator(shape, h, tensor=None, coef=None) -> sp.csr_matrix:
    """-div(T grad u) or -div(c(x) grad u) with zero-flux boundary faces.

    Exactly one of ``tensor`` (constant symmetric matrix: faces T[d,d] plus
    its cross terms) or ``coef`` (per-cell scalar field: harmonic face
    means) must be given.  The operator is singular with constant nullspace;
    row and column sums vanish.
    """
    if tensor is not None:
        tensor = np.asarray(tensor, dtype=float)
        return face_operator(shape, h, np.diag(tensor), tensor=tensor)
    periodic = harmonic_face_coefficients(np.asarray(coef, dtype=float).reshape(shape))
    faces = [f[lo] for f, (lo, _) in zip(periodic, _face_slices(len(shape)))]
    return face_operator(shape, h, faces)


def grid_matvec(A: sp.csr_matrix):
    """u -> A u on grid-shaped arrays: the ``apply`` of ``SpectralPCG``."""
    return lambda u: (A @ u.ravel()).reshape(u.shape)


class PinnedNeumannSolver:
    """Direct solver for the consistent singular Neumann system: the test
    oracle for the box Poisson solves of ``cellcorrect.SpectralPCG``.

    ``solve(b, tol)`` keeps that solver's contract and returns (x,
    certificate, 0), a direct solve counting no iterations.  The right-hand
    side is projected to mean zero, one degree of freedom is pinned to make
    the matrix regular, and the mean of the solution is subtracted
    afterwards.  For a compatible right-hand side the pinned solution solves
    the original singular system exactly; the certificate is the normwise
    backward error ||A x - b|| / (||A|| ||x|| + ||b||), whose rounding floor
    does not grow with the h^-2 scale of the operator.
    """

    def __init__(self, A: sp.csr_matrix):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self.A = A.tocsr()
        self.norm_A = spla.norm(self.A, np.inf)
        # row 0 becomes e_0; the other rows keep every stored entry, explicit
        # zeros included (eliminate_zeros would drop those too)
        n = self.A.shape[0]
        e0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n))
        self.Ap = sp.vstack([e0, self.A[1:]], format="csr")
        self.lu = spla.splu(self.Ap.tocsc())

    def solve(self, b: np.ndarray, tol: float):
        b = np.asarray(b, dtype=float).ravel()
        bp = b - b.mean()
        nrm = float(np.linalg.norm(bp))
        if nrm == 0.0:
            return np.zeros_like(bp), 0.0, 0
        rhs = bp.copy()
        rhs[0] = 0.0
        x = self.lu.solve(rhs)
        x += self.lu.solve(rhs - self.Ap @ x)  # one refinement sweep
        x -= x.mean()
        res = float(np.linalg.norm(self.A @ x - bp))
        res /= self.norm_A * float(np.linalg.norm(x)) + nrm
        if not res <= tol:  # NaN fails too
            raise SolverError(
                f"Neumann solve backward error {res:.3e} exceeds tol {tol:.1e}"
            )
        return x, res, 0


class FactorizedSolver:
    """splu wrapper for the nonsingular implicit-diffusion matrices: the test
    oracle for the diffusion solves of ``cellcorrect.SpectralPCG``.

    The factorization solves to rounding; ``solve(b, tol)`` certifies it by
    the relative residual ||A x - b|| / ||b|| <= tol, as ``SpectralPCG``
    does for the same matrices, raises ``SolverError`` otherwise, and
    returns (x, relative residual, 0).
    """

    def __init__(self, A: sp.csr_matrix):
        import scipy.sparse.linalg as spla

        self.A = A.tocsr()
        self.lu = spla.splu(self.A.tocsc())

    def solve(self, b: np.ndarray, tol: float):
        b = np.asarray(b, dtype=float).ravel()
        x = self.lu.solve(b)
        res = float(np.linalg.norm(self.A @ x - b))
        bnorm = float(np.linalg.norm(b))
        if not res <= tol * bnorm:
            raise SolverError(
                f"diffusion solve relative residual {res / bnorm:.3e} exceeds tol {tol:.1e}"
            )
        return x, res / bnorm if bnorm else 0.0, 0


def assemble_diffusion_matrix(shape, h, dt, p, bc, mask=None) -> sp.csr_matrix:
    """(p/dt) I - p Lap  with the requested density boundary condition.

    bc = 'dirichlet' adds the ghost-cell penalty 2p/h^2 per boundary face of
    a fluid cell (homogeneous value); bc = 'noflux' adds nothing.  With a
    mask, only fluid-fluid faces are open and masked-out cells get identity
    rows, keeping their values pinned at zero.
    """
    if bc not in ("dirichlet", "noflux"):
        raise ValueError(f"unknown bc {bc!r}")
    fluid = np.asarray(np.ones(shape) if mask is None else mask, dtype=bool).reshape(shape)
    faces = [p * (fluid[lo] & fluid[hi]) for lo, hi in _face_slices(len(shape))]
    wall = 2.0 * p * fluid if bc == "dirichlet" else None
    return face_operator(shape, h, faces, np.where(fluid, p / dt, 1.0), wall)


def cell_gradients(u: np.ndarray, h: float):
    """Cell-centered gradient, central inside and one-sided at the edges."""
    if u.shape[0] == 1:  # degenerate axis; np.gradient needs >= 2 points
        return [np.zeros_like(u) for _ in range(u.ndim)]
    return [np.gradient(u, h, axis=d, edge_order=1) for d in range(u.ndim)]
