"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's solver paths: dense
linear algebra, quadrature-based Poisson solves, explicit time stepping,
closed-form laminate algebra, a Jacobi-preconditioned CG with its own
stencil loop, a brute-force flood fill, and the box-grid matrices assembled
cell pair by cell pair into COO triplets only.  The scipy routines and the
per-value formatting that the package replaced with numpy code stay here
as references for it.
"""

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import map_coordinates
from scipy.special import xlogy

# --- 1D equal laminate with coefficients 1 and 4 ---------------------------
#
# A unit flux through the layers is divided by the coefficient, so the
# corrected-coordinate flux q satisfies 1 = q * mean(1/kappa), i.e. q is the
# harmonic mean 2*1*4/(1+4) = 1.6.  Inside a layer the corrector gradient is
# 1 - q/kappa: 1 - 1.6/1 = -0.6 and 1 - 1.6/4 = +0.6.  Averaging kappa along
# the layers gives the transverse value (1+4)/2 = 2.5.
LAMINATE_Q = 1.6
LAMINATE_GRAD_LOW = -0.6
LAMINATE_GRAD_HIGH = 0.6
LAMINATE_TRANSVERSE = 2.5


def laminate_xi_profile(y):
    """Closed-form first-order corrector of the equal 1/4 laminate.

    Piecewise linear with slope -0.6 on [0, 1/2) and +0.6 on [1/2, 1),
    periodic, continuous and mean-zero.
    """
    y = np.asarray(y, dtype=float) % 1.0
    return np.where(y < 0.5, 0.15 - 0.6 * y, 0.6 * y - 0.45)


def laminate_zeta11_profile(y, fine=8192):
    """Second-order corrector profile for (k,l) = (1,1) on the laminate.

    In 1D the flux of the corrected coordinate is constant and equals the
    effective coefficient, so the second-order right-hand side collapses to
    the divergence of kappa*xi; integrating once gives zeta' = xi (the
    integration constant vanishes because xi has mean zero).  The profile is
    the mean-zero antiderivative of the closed-form xi, evaluated here by
    fine midpoint quadrature.
    """
    yf = (np.arange(fine) + 0.5) / fine
    xif = laminate_xi_profile(yf)
    Z = np.cumsum(xif) / fine - xif / (2 * fine)
    Z -= Z.mean()
    return np.interp(np.asarray(y, dtype=float) % 1.0, yf, Z)


def dense_periodic_solve_1d(kappa_line, rhs):
    """Mean-zero solution of -(kappa u')' = rhs on the periodic line.

    Dense assembly (harmonic face averages) and a constrained least-squares
    solve; independent of the package's CG solvers.
    """
    kappa_line = np.asarray(kappa_line, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    m = kappa_line.size
    h = 1.0 / m
    faces = 2 * kappa_line * np.roll(kappa_line, -1) / (kappa_line + np.roll(kappa_line, -1))
    A = np.zeros((m, m))
    for i in range(m):
        j = (i + 1) % m
        A[i, i] += faces[i] / h**2
        A[j, j] += faces[i] / h**2
        A[i, j] -= faces[i] / h**2
        A[j, i] -= faces[i] / h**2
    aug = np.vstack([A, np.ones(m)])
    b = np.concatenate([rhs, [0.0]])
    u, *_ = np.linalg.lstsq(aug, b, rcond=None)
    return u - u.mean()


def explicit_pnp_1d(M, dt, n_steps, amp=0.5):
    """Brute-force reference for the 1D two-species benchmark.

    Classical tensors (p = 1, unit permittivity and mobility, no
    concentration-proportional term), homogeneous Dirichlet densities and
    Neumann potential.  Forward Euler in time, central differences in space;
    the potential comes from direct integration of the charge, not from a
    linear solver.
    """
    h = 1.0 / M
    x = (np.arange(M) + 0.5) * h
    u1 = 1.0 + amp * np.sin(np.pi * x)
    u2 = np.ones_like(x)
    for _ in range(n_steps):
        q = u1 - u2
        q = q - q.mean()
        flux = -np.cumsum(q) * h  # du3/dx at right faces; zero at both walls
        u3 = np.concatenate(([0.0], np.cumsum(flux[:-1]) * h))
        u3 -= u3.mean()
        new = []
        for z, u in ((1.0, u1), (-1.0, u2)):
            lap = np.empty_like(u)
            lap[1:-1] = (u[:-2] - 2 * u[1:-1] + u[2:]) / h**2
            lap[0] = (u[1] - 3 * u[0]) / h**2  # ghost value -u for wall 0
            lap[-1] = (u[-2] - 3 * u[-1]) / h**2
            vel = -z * np.diff(u3) / h
            F = vel * 0.5 * (u[:-1] + u[1:])
            div = np.zeros_like(u)
            div[:-1] += F / h
            div[1:] -= F / h
            new.append(u + dt * (lap - div))
        u1, u2 = new
    return u1, u2


def local_equilibrium_loop(u1, u2, u3, window):
    """Block-by-block loop over both species, the reference for the
    vectorized local-equilibrium check.

    Returns (max chemical-potential spread, number of skipped blocks); a
    block is skipped when it holds a nonpositive density.
    """
    import itertools

    shape = u1.shape
    dev = 0.0
    skipped = 0
    ranges = [range(0, s, window) for s in shape]
    for z, u in ((1.0, u1), (-1.0, u2)):
        for corner in itertools.product(*ranges):
            blk = tuple(slice(c, min(c + window, s)) for c, s in zip(corner, shape))
            ub = u[blk]
            if (ub <= 0.0).any():
                skipped += 1
                continue
            mu = np.log(ub) + z * u3[blk]
            dev = max(dev, float(mu.max() - mu.min()))
    return dev, skipped


def block_reduceat(ufunc, a, window):
    """``ufunc.reduceat`` over blocks of ``window`` cells per axis, the last
    block of an axis cut short: the block reduction of the local-equilibrium
    check before it folded strided views."""
    for axis in range(a.ndim):
        a = ufunc.reduceat(a, np.arange(0, a.shape[axis], window), axis=axis)
    return a


def local_equilibrium_reduceat(u1, u2, u3, window):
    """The local-equilibrium check computed with ``block_reduceat``:
    (max chemical-potential spread, number of skipped blocks)."""
    dev = 0.0
    skipped = 0
    for z, u in ((1.0, u1), (-1.0, u2)):
        mu = np.log(np.where(u > 0.0, u, 1.0)) + z * u3
        bad = block_reduceat(np.logical_or, u <= 0.0, window)
        spread = block_reduceat(np.maximum, mu, window) - block_reduceat(np.minimum, mu, window)
        skipped += int(bad.sum())
        if not bad.all():
            dev = max(dev, float(spread[~bad].max()))
    return dev, skipped


def periodic_fluid_connected(mask):
    """Brute-force flood fill of the fluid voxels over the six (four in 2D,
    two in 1D) face neighbours with periodic wraparound."""
    mask = np.asarray(mask, dtype=bool)
    fluid = [tuple(int(i) for i in idx) for idx in np.argwhere(mask)]
    if not fluid:
        return False
    seen = {fluid[0]}
    queue = [fluid[0]]
    while queue:
        idx = queue.pop()
        for d in range(mask.ndim):
            for step in (-1, 1):
                nb = list(idx)
                nb[d] = (nb[d] + step) % mask.shape[d]
                nb = tuple(nb)
                if mask[nb] and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    return len(seen) == len(fluid)


def map_coordinates_interpolation(field_c, fine_shape):
    """Linear interpolation from macro cell centers to fine centers by
    ``scipy.ndimage.map_coordinates`` (order 1, edge values held)."""
    axes = []
    for M, Mf in zip(field_c.shape, fine_shape):
        x = (np.arange(Mf) + 0.5) * (1.0 / Mf)
        axes.append(x / (1.0 / M) - 0.5)
    coords = np.meshgrid(*axes, indexing="ij")
    return map_coordinates(field_c, np.stack(coords), order=1, mode="nearest")


def xlogx(u):
    """u log u with 0 log 0 = 0, by ``scipy.special.xlogy``."""
    return xlogy(u, u)


def format_field_per_value(name, values):
    """A field dump formatted one numpy scalar at a time."""
    values = np.asarray(values, dtype=float)
    lines = [f"field {name} {values.ndim} {values.shape[0]}"]
    lines.extend("%.17g" % v for v in values.ravel())
    return "\n".join(lines) + "\n"


def apply_periodic_operator_rolled(u, faces, h):
    """-div(c grad u) on the periodic grid, rolling every face array on
    every application."""
    out = np.zeros_like(u)
    for d, kf in enumerate(faces):
        out += kf * (u - np.roll(u, -1, axis=d))
        out += np.roll(kf, 1, axis=d) * (u - np.roll(u, 1, axis=d))
    out /= h * h
    return out


def periodic_operator_two_differences(faces, h):
    """-div(c grad u) on the periodic grid from both differences of each
    cell, u - u[idx + e_d] and u - u[idx - e_d], with the faces rolled onto
    the cells behind them once."""
    back = [np.roll(kf, 1, axis=d) for d, kf in enumerate(faces)]
    cuts = [tuple((slice(None),) * d + (s,) for s in
                  (slice(0, -1), slice(1, None), slice(0, 1), slice(-1, None)))
            for d in range(len(faces))]

    def apply(u):
        out = np.zeros_like(u)
        diff = np.empty_like(u)
        for kf, kb, (head, tail, first, last) in zip(faces, back, cuts):
            np.subtract(u[head], u[tail], out=diff[head])
            np.subtract(u[last], u[first], out=diff[last])
            out += np.multiply(kf, diff, out=diff)
            np.subtract(u[tail], u[head], out=diff[tail])
            np.subtract(u[first], u[last], out=diff[first])
            out += np.multiply(kb, diff, out=diff)
        out /= h * h
        return out

    return apply


def jacobi_projected_cg(faces, b, h, mask, tol, max_iter):
    """Reference solver for the singular periodic system: projected CG with
    the Jacobi (operator-diagonal) preconditioner.

    Takes the face transmissibilities of ``harmonic_face_coefficients``, the
    right-hand side, the spacing, the active mask (None for the whole cell)
    and the tolerance; returns (solution, relative residual, iterations).
    It applies the operator with its own stencil loop and ignores
    ``max_iter`` in favour of a cap of ten sweeps of the unknowns, so that
    the slow Jacobi iteration still converges.
    """
    shape = b.shape

    def apply(u):
        out = np.zeros_like(u)
        for d, kf in enumerate(faces):
            out += kf * (u - np.roll(u, -1, axis=d))
            out += np.roll(kf, 1, axis=d) * (u - np.roll(u, 1, axis=d))
        return out / (h * h)

    diag = sum(kf + np.roll(kf, 1, axis=d) for d, kf in enumerate(faces)) / (h * h)
    active = np.ones(shape, dtype=bool) if mask is None else mask

    def project(v):
        v[active] -= v[active].mean()
        v[~active] = 0.0
        return v

    def precond(r):
        return project(np.divide(r, diag, out=np.zeros(shape), where=diag > 0))

    bnorm = float(np.linalg.norm(b))
    x = np.zeros(shape)
    if bnorm == 0.0:
        return x, 0.0, 0
    r = project(b.copy())
    z = precond(r)
    p = z.copy()
    rz = float((r * z).sum())
    for it in range(1, 10 * b.size + 1):
        Ap = apply(p)
        alpha = rz / float((p * Ap).sum())
        x = project(x + alpha * p)
        r -= alpha * Ap
        if float(np.linalg.norm(r)) <= tol * bnorm:
            rtrue = project(b - apply(x))
            res = float(np.linalg.norm(rtrue)) / bnorm
            if res <= tol:
                return x, res, it
            r = rtrue
            z = precond(r)
            p = z.copy()
            rz = float((r * z).sum())
            continue
        z = precond(r)
        rz_new = float((r * z).sum())
        p = z + rz_new / rz * p
        rz = rz_new
    raise RuntimeError("reference Jacobi CG did not converge")


def allocating_pcg(apply, precondition, certify, b, x, r, tol, max_iter):
    """``cellcorrect.pcg`` as it was before it worked in place: every update
    (x + alpha p, r - alpha Ap, the restart residual, z + beta p) makes a
    new array; like the kernel, it leaves the true residual in the caller's
    ``r``.  The reference for the bits of the in-place kernel; it raises
    ``SolverError`` in the same cases with the same messages."""
    from pnp_upscale.cellcorrect import STALL_WINDOW, SolverError

    if not r.any():
        return x, 0.0, 0

    def positive_rz(z):
        rz = float(np.vdot(r, z))
        if not np.isfinite(rz):
            raise SolverError(f"CG breakdown: z.r = {rz} is not finite; the values overflowed")
        if rz <= 0.0:
            raise SolverError(
                f"CG breakdown: z.r = {rz:.3e} before the certificate reached the "
                f"tolerance {tol:.1e}, which may be below what this grid can certify"
            )
        return rz

    z = precondition(r)
    p = z.copy()
    rz = positive_rz(z)
    mark, mark_it = np.inf, 0
    for it in range(1, max_iter + 1):
        Ap = apply(p)
        pAp = float(np.vdot(p, Ap))
        if not np.isfinite(pAp):
            raise SolverError(f"CG breakdown: p.Ap = {pAp} is not finite; the values overflowed")
        if pAp <= 0.0:
            raise SolverError("CG breakdown: operator lost positive definiteness")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = certify(r, x)
        restart = res <= tol
        if restart:
            r[...] = b - apply(x)  # the caller reads the true residual from r
            res = certify(r, x)
            if res <= tol:
                return x, res, it
        if res <= 0.5 * mark:
            mark, mark_it = res, it
        elif it - mark_it >= STALL_WINDOW:
            raise SolverError(
                f"CG stagnated: certificate {mark:.3e} not halved in {STALL_WINDOW} "
                f"iterations; the tolerance {tol:.1e} may be below what this grid "
                f"can certify"
            )
        z = precondition(r)
        rz_new = positive_rz(z)
        beta = 0.0 if restart else -alpha * float(np.vdot(z, Ap)) / rz
        p = z + beta * p
        rz = rz_new
    res = certify(b - apply(x), x)
    raise SolverError(f"CG reached the iteration cap {max_iter} at residual {res:.3e} "
                      f"(tol {tol:.1e})")


# --- box-grid matrices, one COO loop per operator ---------------------------
#
# The reference for ``_fv.face_operator``: each assembler walks the cell pairs
# of every interior face and appends its own triplets, the diffusion one with
# the ghost-cell penalty added per axis after that axis's faces.

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
    return off > 1e-8 * max(np.abs(t).max(), 1e-300)


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


# --- drift divergence, one species at a time --------------------------------


def drift_divergence(v, u3, A, h, z, bc, scheme, open_faces=None):
    """div of the advective flux z * v * (A grad u3), each face velocity
    computed for this species alone, as the stepper did before it shared one
    set of face velocities between the two species.

    Upwinding follows the sign of z * (A grad u3).n; central averages the two
    cell densities.  Dirichlet boundaries see exterior density zero and only
    the tangential cross terms push flux through them; no-flux zeroes every
    boundary flux.  Closed faces (``open_faces`` False) carry no flux.
    """
    N = v.ndim

    def along(d, key):
        return tuple(key if k == d else slice(None) for k in range(N))

    div = np.zeros_like(v)
    offdiag = _significant_offdiag(A)
    grads = [np.gradient(u3, h, axis=d, edge_order=1) for d in range(N)] if offdiag else None
    for d in range(N):
        lo, hi = along(d, slice(0, -1)), along(d, slice(1, None))
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
            for side, sign in ((0, -1.0), (v.shape[d] - 1, +1.0)):
                face = along(d, side)
                velb = np.zeros_like(v[face], dtype=float)
                for d2 in range(N):
                    if d2 == d or A[d, d2] == 0.0:
                        continue
                    velb = velb + z * A[d, d2] * grads[d2][face]
                outflow = velb * sign > 0.0
                if scheme == "upwind":
                    F_b = np.where(outflow, velb * v[face], 0.0)
                else:
                    F_b = velb * 0.5 * v[face]
                div[face] += sign * F_b / h
    return div
