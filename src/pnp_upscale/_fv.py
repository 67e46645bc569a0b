"""Shared finite-volume plumbing for box domains (no periodic wrap).

Cell-centered grids on [0,1]^N with M cells per axis, for the macroscopic
solver (constant tensors) and the microscopic DNS (variable scalar
coefficient, perforated masks).  One face layout serves every grid:
``_face_slices`` gives, per axis, the lo and hi cells of the M-1 interior
faces, so a box face array is the periodic cell's
(``cellcorrect.harmonic_face_coefficients``) without its wrap face; the
drift walks the same faces.  Every operator is
-div(c grad u) + diag u from ``face_operator``: c is the harmonic mean of
the permittivity on the DNS grid, eps0[d,d] plus its cross terms on the
macro grid, and p on open fluid faces (0 on closed ones) for the
densities, whose diagonal adds p/dt and the Dirichlet ghost-cell penalty.
``face_operator`` writes the entries into one dense table, a row per
stencil offset and a column per cell, and rolls each row by its flat offset
into the diagonal (DIA) storage of the operator, whose products sum each
row in the column order of CSR; a symmetric operator, one without cross
terms, keeps only the diagonal and the rows below it.  That table is the
``CompactDia`` that ``cellcorrect.SpectralPCG``, the solver of the periodic
cell problems, applies and takes ||A||_inf from, with a
constant-coefficient box preconditioner diagonalized by DCT-II or DST-II,
in float32 on the DNS grids and float64 on the macro grid.  The SuperLU
solvers ``PinnedNeumannSolver`` and ``FactorizedSolver`` are its test
oracles only, with the same solve contract, on ``scipy.sparse`` matrices
that the tests rebuild from a holder; no grid of the program factorizes.
Assembly needs numpy only.  scipy's DIA kernel, ``dia_matvec``, loads by
file at the first product, and its pocketfft DCT/DST kernel when the first
box solver is built, both through ``_kernels``; no run imports
``scipy.sparse``.  So importing this module, and the package, needs numpy
only; without scipy the first box solver is a ``SolverError``
(``_kernels.import_scipy``).
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .cellcorrect import SolverError, harmonic_face_coefficients
from .upscale import SYMMETRY_RTOL

if TYPE_CHECKING:
    import scipy.sparse as sp


def _along(N: int, d: int, key):
    """Index tuple applying ``key`` on axis d and taking all of every other axis."""
    return tuple(key if k == d else slice(None) for k in range(N))


def _face_slices(N: int):
    """(lo, hi) index tuples selecting the two cells of each interior face, per axis."""
    return [(_along(N, d, slice(0, -1)), _along(N, d, slice(1, None))) for d in range(N)]


def _tangential_weights(shape, axis, h):
    """Weights w of the cell-centered derivative along ``axis``, shaped to
    broadcast along it: du = w (u[+1] - u[-1]) inside, one-sided with the
    cell itself at the two boundary layers."""
    c = np.arange(shape[axis])
    cp, cm = np.minimum(c + 1, shape[axis] - 1), np.maximum(c - 1, 0)
    return (1.0 / ((cp - cm) * h)).reshape([-1 if k == axis else 1 for k in range(len(shape))])


def _significant_offdiag(tensor):
    """Whether an off-diagonal of ``tensor`` exceeds ``SYMMETRY_RTOL`` (1e-8)
    of its largest entry, the asymmetry that ``upscale.eps0_defect``
    accepts: below it a cross term is at the certified accuracy of the cell
    solves, and the grid assembles and drifts without cross terms."""
    t = np.asarray(tensor, dtype=float)
    off = np.abs(t - np.diag(np.diag(t))).max()
    return off > SYMMETRY_RTOL * max(np.abs(t).max(), 1e-300)


def _shift(e: tuple, d: int, k: int) -> tuple:
    """Stencil offset e moved by k cells along axis d."""
    return e[:d] + (e[d] + k,) + e[d + 1:]


def _add_derivative(rows, cells, end, d2, v):
    """Add v times the d2-derivative stencil of the neighbour at offset
    ``end`` to the entries of ``cells``: +v for its next cell along d2, -v
    for its previous one, or for itself where that cell would leave the grid."""
    N = len(end)
    for step, inner, edge in ((1, slice(0, -1), slice(-1, None)),
                              (-1, slice(1, None), slice(0, 1))):
        for part, e in ((inner, _shift(end, d2, step)), (edge, end)):
            sel = _along(N, d2, part)
            target = rows[e][cells][sel]
            target += step * v[sel]


def _stencil_table(shape, h, faces, diag, wall, tensor, offsets) -> np.ndarray:
    """The entries of ``face_operator``: row k holds, per cell, its entry for
    the neighbour at stencil offset ``offsets[k]``.  The rows above the
    diagonal are written only if ``offsets`` has them."""
    N = len(shape)
    table = np.zeros((len(offsets), int(np.prod(shape))))
    rows = {e: row.reshape(shape) for e, row in zip(offsets, table)}
    zero = (0,) * N
    D = rows[zero]
    D[...] = diag
    for d, (lo, hi) in enumerate(_face_slices(N)):
        # -t, the hi cell's entry for its lo neighbour and the lo cell's for its hi one
        down = rows[_shift(zero, d, -1)][hi]
        np.divide(faces[d], -(h * h), out=down)
        if _shift(zero, d, 1) in rows:
            rows[_shift(zero, d, 1)][lo] = down
        D[lo] -= down
        D[hi] -= down
        if wall is not None:
            for side in (0, -1):
                cells = _along(N, d, side)
                D[cells] += wall[cells] / (h * h)
    if tensor is None:
        return table
    for d, (lo, hi) in enumerate(_face_slices(N)):
        is_open = np.asarray(faces[d]) != 0.0
        for d2 in range(N):
            if d2 == d or tensor[d, d2] == 0.0:
                continue
            # flux q = T[d,d2] * the mean of the d2-derivatives of the face's
            # lo cell a and hi cell b; row a gets -q/h, row b +q/h
            v = float(tensor[d, d2]) * 0.5 / h * _tangential_weights(shape, d2, h) * is_open
            for cells, row, value in ((lo, zero, -v), (hi, _shift(zero, d, -1), v)):
                for end in (row, _shift(row, d, 1)):  # the derivative at a, then at b
                    _add_derivative(rows, cells, end, d2, value)
    return table


def face_operator(shape, h, faces, diag=0.0, wall=None, tensor=None) -> CompactDia:
    """The ``CompactDia`` of -div(c grad u) + diag u on a box grid, by face fluxes.

    ``faces[d]`` is the transmissibility c on the interior faces of axis d
    (a scalar, or an array in the ``_face_slices`` layout); a zero face is
    closed.  ``diag`` (scalar or per cell) starts the diagonal.  ``wall``
    (per cell) is the transmissibility through each boundary face to a zero
    exterior value, the ghost-cell Dirichlet penalty; without it the
    boundary faces carry no flux.  The significant off-diagonals of a
    constant ``tensor`` add to each open face's flux T[d,d2] times the mean
    of its two cells' d2-derivatives (central inside, one-sided at the
    edges).  Per axis the diagonal gains the faces, then the wall; the cross
    terms come after all axes.

    The entries go into one dense table with a row per stencil offset e
    (in {-1,0,1}^N, at most one nonzero component, two with cross terms)
    and a column per cell.  Rolling row e by its flat offset k moves cell
    i's entry for cell i + k to column i + k: the table becomes the DIA
    storage of the operator.  The roll wraps only the zeros of neighbours
    outside the grid.  The flat offsets increase, so a product sums each row
    in column order, as CSR does.  Without significant cross terms the
    operator is symmetric, and only the diagonal and the rows below it are
    written: the holder is compact.  With them, a side of 2 after the first
    axis can fold two cross-term offsets onto one flat offset or swap their
    order; such rows are summed per flat offset and sorted, exactly, as a
    cell has at most one in-grid neighbour per flat offset.
    """
    shape = tuple(shape)
    N, n = len(shape), int(np.prod(shape))
    cross = tensor is not None and _significant_offdiag(tensor)
    zero = (0,) * N
    offsets = [e for e in itertools.product((-1, 0, 1), repeat=N)
               if np.count_nonzero(e) <= (2 if cross else 1) and (cross or e <= zero)]
    table = _stencil_table(shape, h, faces, diag, wall, tensor if cross else None, offsets)
    strides = [int(np.prod(shape[d + 1:])) for d in range(N)]
    flat = np.array([np.dot(e, strides) for e in offsets])
    for row, k in zip(table, flat):
        row[:] = np.roll(row, k)
    if np.any(np.diff(flat) <= 0):  # folded or out of order: a side of 2
        flat, fold = np.unique(flat, return_inverse=True)
        folded = np.zeros((len(flat), n))
        np.add.at(folded, fold, table)
        table = folded
    return CompactDia(table, flat, compact=not cross)


def assemble_neumann_operator(shape, h, tensor=None, coef=None) -> CompactDia:
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


def _kernel_product(kernel, blocks, x: np.ndarray, y: np.ndarray) -> None:
    """y = A x through scipy's DIA kernel, block by block into the zeroed y."""
    y.fill(0.0)
    for table, offsets, k in blocks:
        m = x.size - k
        kernel(m, m, len(offsets), table.shape[1], offsets, table, x[k:], y[:m])


def _numpy_product(blocks, x: np.ndarray, y: np.ndarray) -> None:
    """y = A x in numpy, block by block into the zeroed y, each block's DIA
    product summed row by row in offset order: ``dia_matvec``'s loop."""
    y.fill(0.0)
    for table, offsets, k in blocks:
        m = x.size - k
        for row, j in zip(table, offsets.tolist()):
            first, last = max(0, j), min(m + j, m)
            y[first - j:last - j] += row[first:last] * x[k + first:k + last]


def _kernel_agrees(module) -> bool:
    """The blocked products of ``module.dia_matvec`` equal ``_numpy_product``
    bit for bit, on a 12-cell compact operator and a full one."""
    n, rng = 12, np.random.default_rng(0)
    offsets = np.array([-3, -1, 0, 1, 3])
    holders = [CompactDia(rng.standard_normal((3, n)), offsets[:3], compact=True),
               CompactDia(rng.standard_normal((5, n)), offsets, compact=False)]
    x, y, expected = rng.standard_normal(n), np.empty(n), np.empty(n)
    try:
        for holder in holders:
            _kernel_product(module.dia_matvec, holder.blocks, x, y)
            _numpy_product(holder.blocks, x, expected)
            if y.tobytes() != expected.tobytes():
                return False
    except (AttributeError, TypeError, ValueError, RuntimeError):
        return False
    return True


@cache
def dia_kernel():
    """scipy's DIA product kernel, ``dia_matvec`` of ``_sparsetools`` loaded by
    file (``_kernels.load``), or None when the file is missing, fails to load
    or fails ``_kernel_agrees``.  Without scipy, ``SolverError``."""
    from ._kernels import SPARSETOOLS, import_scipy, load

    module = load(import_scipy("scipy").__path__[0], SPARSETOOLS, _kernel_agrees)
    return None if module is None else module.dia_matvec


class CompactDia:
    """A box-grid operator of ``face_operator`` in DIA storage, and its
    product u -> A u on grid-shaped arrays, the ``apply`` of ``SpectralPCG``.

    ``table`` holds the rows of the storage at the increasing flat
    ``offsets``: the entry of the row at k in column j is A[j - k, j].  A
    ``compact`` operator is symmetric, and its table holds only the
    diagonal and the rows below it: the row at +k is the row at -k moved k
    places, A[i, i+k] = A[i+k, i], and the zero padding lines up, so each
    row above the diagonal is a view of its mirror.  A product zeroes its
    output, adds the lower block, then each upper row in increasing offset
    order: the sums of the full DIA product in its order, so the same bits.
    Otherwise, as for the cross-term Poisson, the table is the whole
    storage and one block.  Products go through scipy's DIA kernel
    (``dia_kernel``) or, when that is missing or fails its check, through
    ``_numpy_product``, with the same bits.
    ``out``, if given, is a C-contiguous float array of u's size, which the
    product overwrites and returns; the kernel checks no sizes, so a call
    checks both before it.
    """

    def __init__(self, table: np.ndarray, offsets: np.ndarray, compact: bool):
        self.n = n = table.shape[1]
        self.table, self.offsets, self.compact = table, offsets, compact
        # (table, offsets, shift k): a product adds the table's DIA product
        # with x[k:] to y[:n-k]
        self.blocks = [(table, offsets, 0)]
        if compact:
            lower, diagonal = dict(zip(offsets.tolist(), table)), np.zeros(1, dtype=offsets.dtype)
            self.blocks += [(lower[-k][None, :n - k], diagonal, k)
                            for k in (-offsets[offsets < 0])[::-1].tolist()]

    def __call__(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(u.shape)
        x, y = np.ascontiguousarray(u, dtype=float).reshape(-1), out.reshape(-1)
        if not (x.size == y.size == self.n and out.dtype == float and out.flags.c_contiguous):
            raise ValueError(f"a product of an operator on {self.n} cells needs u and a "
                             f"C-contiguous float out of that size")
        kernel = dia_kernel()  # loaded here, so that assembly needs numpy only
        if kernel is None:
            _numpy_product(self.blocks, x, y)
        else:
            _kernel_product(kernel, self.blocks, x, y)
        return out

    def norm_inf(self) -> float:
        """||A||_inf, the largest entry of |A| 1, by the product of |A|'s
        holder with ones: the sums of scipy's ``abs(A).sum(axis=1)``, which
        is the DIA product of |A| with ones."""
        magnitude = CompactDia(np.abs(self.table), self.offsets, self.compact)
        return float(magnitude(np.ones(self.n)).max())


class PinnedNeumannSolver:
    """Direct solver for the consistent singular Neumann system: the test
    oracle for the box Poisson solves of ``cellcorrect.SpectralPCG``, on a
    ``scipy.sparse`` matrix of the operator.

    ``solve(b, tol)`` keeps that solver's contract and returns (x,
    certificate, 0), a direct solve counting no iterations.  The right-hand
    side is projected to mean zero, one degree of freedom is pinned to make
    the matrix regular, and the mean of the solution is subtracted
    afterwards.  For a compatible right-hand side the pinned solution solves
    the original singular system exactly; the certificate is the normwise
    backward error ||A x - b|| / (||A|| ||x|| + ||b||), whose rounding floor
    does not grow with the h^-2 scale of the operator.
    """

    def __init__(self, A: sp.spmatrix):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self.A = A.tocsr()
        self.norm_A = spla.norm(self.A, np.inf)
        # row 0 becomes e_0; the other rows keep every stored entry
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

    def __init__(self, A: sp.spmatrix):
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


def assemble_diffusion_matrix(shape, h, dt, p, bc, mask=None) -> CompactDia:
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
