"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's solver paths: dense
linear algebra, quadrature-based Poisson solves, explicit time stepping
and closed-form laminate algebra only.
"""

import numpy as np

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
    solve; independent of the package's matrix-free CG.
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
