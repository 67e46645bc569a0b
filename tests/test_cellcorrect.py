import logging

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pnp_upscale import upscale
from pnp_upscale.cellcorrect import (
    STALL_WINDOW,
    SolverError,
    SpectralPCG,
    face_gradient,
    harmonic_face_coefficients,
    pcg,
    periodic_operator,
    second_order_rhs,
    solve_density_corrector_shape,
    solve_periodic,
    solve_potential_corrector,
    solve_second_order_potential_corrector,
)
from pnp_upscale.unitcell import (
    GeometryError,
    PermittivityParams,
    UnitCell,
    build_unit_cell,
    permittivity_field,
)
from pnp_upscale.upscale import (
    check_spectral_bounds,
    compute_effective_tensors,
    diffusion_shape_tensor,
    effective_permittivity,
    electro_convection_tensor,
    symmetry_defect,
)

import oracles
from conftest import CONTRAST, checkerboard_cell, rel_l2


def centers(m):
    return (np.arange(m) + 0.5) / m


def grid2(m):
    c = centers(m)
    return np.meshgrid(c, c, indexing="ij")


def laminate_cell(m, axis=0):
    return build_unit_cell(
        {"kind": "laminate", "fraction": 0.5, "axis": axis, "dim": 2}, m
    )


# ---------------------------------------------------------------------------
# periodic elliptic core


def solve_one(coefficient, rhs, tol=1e-10, domain_mask=None):
    """One right-hand side through ``solve_periodic``: (field, residual,
    iterations)."""
    fields, residuals, iterations = solve_periodic(coefficient, [rhs], tol, domain_mask)
    return fields[0], residuals[0], iterations[0]


def test_fourier_eigenfunction():
    m = 64
    Y1, _ = grid2(m)
    f = np.sin(2 * np.pi * Y1)
    u = solve_one(np.ones((m, m)), f)[0]
    exact = np.sin(2 * np.pi * Y1) / (4 * np.pi**2)
    # eigenvalue mismatch of the 3-point stencil is (2 pi h)^2 / 12 relative
    assert np.abs(u - exact).max() / np.abs(exact).max() < 2e-3


def test_zero_rhs():
    m = 16
    u = solve_one(np.ones((m, m)), np.zeros((m, m)))[0]
    assert np.all(u == 0.0)


def test_manufactured_discrete_operator():
    # oracle: apply the discrete operator to a known field, then recover it
    m = 48
    Y1, Y2 = grid2(m)
    ustar = np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
    ustar -= ustar.mean()
    kappa = 2.0 + np.sin(2 * np.pi * Y1)
    faces = harmonic_face_coefficients(kappa)
    rhs = periodic_operator(faces, 1.0 / m)(ustar)
    u = solve_one(kappa, rhs, tol=1e-12)[0]
    assert rel_l2(u, ustar) < 1e-10


@settings(max_examples=50)
@given(st.integers(1, 3), st.integers(1, 9), st.data())
def test_periodic_operator_is_bitwise_the_rolled_stencil(dim, m, data):
    # slices in place of rolled copies of u and of the faces change no bit,
    # and one face flux per axis, taken from one cell and given to the next,
    # makes the products and sums of the two differences formed at each cell
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (m,) * dim
    mask = rng.random(shape) < 0.7
    faces = harmonic_face_coefficients(np.where(mask, 1.0, 4.0), mask)
    apply = periodic_operator(faces, 1.0 / m)
    two_differences = oracles.periodic_operator_two_differences(faces, 1.0 / m)
    for _ in range(3):
        u = rng.standard_normal(shape)
        ref = oracles.apply_periodic_operator_rolled(u, faces, 1.0 / m)
        assert apply(u).tobytes() == ref.tobytes() == two_differences(u).tobytes()


def test_manufactured_convergence_order():
    errs = []
    for m in (32, 64, 128):
        Y1, Y2 = grid2(m)
        ustar = np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
        kappa = 2.0 + np.sin(2 * np.pi * Y1)
        # f = -div(kappa grad u*) for the trigonometric test pair
        f = (
            8 * np.pi**2 * kappa * ustar
            - 4 * np.pi**2 * np.cos(2 * np.pi * Y1) ** 2 * np.cos(2 * np.pi * Y2)
        )
        u = solve_one(kappa, f, tol=1e-11)[0]
        errs.append(np.sqrt(np.mean((u - (ustar - ustar.mean())) ** 2)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_incompatible_rhs():
    m = 8
    with pytest.raises(SolverError, match="singular system incompatible"):
        solve_one(np.ones((m, m)), np.ones((m, m)))


def test_iteration_cap_reports_residual():
    m = 32
    Y1, Y2 = grid2(m)
    f = np.sin(2 * np.pi * Y1) + 0.3 * np.sin(4 * np.pi * Y2)
    kappa = 2.0 + np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
    h = 1.0 / m
    solver = SpectralPCG(periodic_operator(harmonic_face_coefficients(kappa), h), (m, m), h,
                         np.ones(2), bc="periodic")
    solver.max_iter = 3
    with pytest.raises(SolverError, match="iteration cap"):
        solver.solve(f, 1e-13)


# ---------------------------------------------------------------------------
# the CG kernel shared by the periodic and the box solvers


def spd_system(n=12, seed=3):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T + n * np.eye(n), rng.standard_normal(n)


def matvec(A):
    """v -> A v, written into ``out`` when given, as ``pcg`` applies it."""
    return lambda v, out=None: np.matmul(A, v, out=out)


def copy(r, out):
    """The identity preconditioner, into the array ``pcg`` hands over."""
    out[...] = r
    return out


def kernel_solve(A, b, max_iter=100, certify=None, tol=1e-12, precondition=copy):
    if certify is None:
        def certify(r, x):
            return float(np.linalg.norm(r)) / float(np.linalg.norm(b))
    x = np.zeros_like(b)
    return pcg(matvec(A), precondition, certify, b, x, b.copy(), tol, max_iter)


def test_kernel_matches_dense_solve():
    A, b = spd_system()
    x, res, iters = kernel_solve(A, b)
    assert 1 < iters <= 100 and res <= 1e-12
    assert rel_l2(x, np.linalg.solve(A, b)) <= 1e-10


@pytest.mark.parametrize("sign, max_iter, match", [
    (-1.0, 100, "breakdown"),
    (1.0, 1, "iteration cap 1"),
])
def test_kernel_failures_raise(sign, max_iter, match):
    A, b = spd_system()
    with pytest.raises(SolverError, match=match):
        kernel_solve(sign * A, b, max_iter=max_iter)


def vanishing_below(floor, b):
    """Identity preconditioner that returns zero once ||r|| < floor ||b||,
    as a float32 transform does for a residual below its range."""
    def precondition(r, out):
        small = np.linalg.norm(r) < floor * np.linalg.norm(b)
        return np.zeros_like(r) if small else r.copy()
    return precondition


@pytest.mark.parametrize("scale, preconditioner, match", [
    (1.0, lambda b: np.negative,
     r"breakdown: z\.r = -.* tolerance 1\.0e-12, which may be below"),
    (1.0, lambda b: vanishing_below(1e-6, b),
     r"breakdown: z\.r = 0\.000e\+00 .* tolerance 1\.0e-12, which may be below"),
    (np.inf, lambda b: copy,
     r"breakdown: p\.Ap = (inf|nan) is not finite; the values overflowed"),
    (1.0, lambda b: lambda r, out: np.multiply(r, np.inf, out=out),
     r"breakdown: z\.r = (inf|nan) is not finite; the values overflowed"),
], ids=["indefinite-preconditioner", "vanishing-preconditioner", "overflow",
        "preconditioner-overflow"])
def test_kernel_breakdowns_name_their_cause(scale, preconditioner, match):
    A, b = spd_system()
    with np.errstate(all="ignore"), pytest.raises(SolverError, match=match):
        kernel_solve(scale * A, b, precondition=preconditioner(b))


def test_kernel_zero_residual_returns_x_unchanged():
    A, b = spd_system()
    x0 = np.linalg.solve(A, b)
    kept = x0.copy()
    x, res, iters = pcg(matvec(A), copy, None, b, x0,
                        np.zeros_like(b), 1e-12, 100)
    assert x is x0 and np.array_equal(x, kept)
    assert (res, iters) == (0.0, 0)


def test_kernel_restarts_from_the_true_residual():
    A, b = spd_system()
    bnorm = float(np.linalg.norm(b))
    calls = []

    def lying_once(r, x):
        # passes the first recurrence residual falsely; that must not end
        # the solve: the true residual decides and CG restarts from it
        calls.append(r)
        return 0.0 if len(calls) == 1 else float(np.linalg.norm(r)) / bnorm

    x, res, iters = kernel_solve(A, b, certify=lying_once)
    assert iters > 1 and len(calls) > 2
    assert np.linalg.norm(b - A @ x) <= 1e-12 * bnorm
    # a recurrence residual that is not b - A x from the start converges to
    # the wrong x; the true residual exposes it
    x0 = np.random.default_rng(4).standard_normal(b.size)
    x, res, iters = pcg(matvec(A), copy,
                        lambda r, x: float(np.linalg.norm(r)) / bnorm,
                        b, x0, b.copy(), 1e-12, 100)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * bnorm


@pytest.mark.parametrize("rel, extra", [(1e-6, 2), (1e-3, 10)])
def test_kernel_certifies_with_a_non_symmetric_preconditioner(rel, extra):
    # a fixed SPD approximate inverse plus a non-symmetric perturbation of
    # relative size rel: the flexible beta still certifies at 1e-10, where
    # the plain z+ . r+ / (z . r) never converges at rel = 1e-3
    n = 200
    rng = np.random.default_rng(2)
    G = rng.standard_normal((n, n))
    A = G @ G.T / n + 1e-2 * np.eye(n)
    lam, Q = np.linalg.eigh(A)
    P = (Q / (lam * (1.0 + 4.0 * rng.random(n)))) @ Q.T
    E = rng.standard_normal((n, n))
    E *= rel * np.linalg.norm(P, 2) / np.linalg.norm(E, 2)
    b = rng.standard_normal(n)
    _, _, exact = kernel_solve(A, b, tol=1e-10, precondition=matvec(P))
    x, res, iters = kernel_solve(A, b, tol=1e-10, precondition=matvec(P + E))
    assert res <= 1e-10 and np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert iters <= exact + extra


def test_kernel_stops_when_the_certificate_stagnates():
    # a preconditioner blind to the residual: the certificate never halves,
    # and CG stops a window after its first iteration, long before the cap
    A, b = spd_system(n=400)
    rng = np.random.default_rng(5)
    calls = []

    def blind(r, out):
        # a random direction, turned to keep z.r > 0, which pcg requires
        calls.append(r)
        z = rng.standard_normal(r.size)
        return z if np.vdot(z, r) > 0 else -z

    with pytest.raises(SolverError, match="stagnated") as err:
        kernel_solve(A, b, max_iter=50 * STALL_WINDOW, precondition=blind)
    assert STALL_WINDOW <= len(calls) <= STALL_WINDOW + 3
    # the message names the tolerance as the likely cause
    assert "tolerance 1.0e-12 may be below what this grid can certify" in str(err.value)


def test_problem_validation():
    m = 8
    with pytest.raises(ValueError, match="positive"):
        solve_one(np.zeros((m, m)), np.zeros((m, m)))
    with pytest.raises(ValueError, match="shape"):
        solve_one(np.ones((m, m)), np.zeros((m, m + 1)))
    bad = np.zeros((m, m))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_one(np.ones((m, m)), bad)
    # every member of a family is checked, not only the first
    with pytest.raises(ValueError, match="finite"):
        solve_periodic(np.ones((m, m)), [np.zeros((m, m)), bad], 1e-10)


@pytest.mark.parametrize("tol", [0.0, 1.0, np.inf])
def test_a_tolerance_outside_the_unit_interval_is_rejected(tol):
    # at x = 0 every certificate is at most 1: a tol of 1 or more would
    # accept the start and solve nothing
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 8)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa)
    with pytest.raises(ValueError, match=r"^tolerance .* lies outside \(0, 1\)"):
        solve_periodic(kappa, xi3, tol)
    with pytest.raises(ValueError, match=r"^tolerance .* lies outside \(0, 1\)"):
        solve_density_corrector_shape(cell, xi3, tol=tol)


@pytest.mark.parametrize("shape", [(32,), (16, 16), (8, 8, 8)])
def test_constant_coefficient_solves_in_one_iteration(shape):
    # the preconditioner inverts the constant-coefficient operator exactly,
    # so one CG step solves it, whatever the scale of the coefficient
    rhs = np.random.default_rng(5).normal(size=shape)
    rhs -= rhs.mean()
    coefficient = np.full(shape, 2.5)
    u, res, iters = solve_one(coefficient, rhs, 1e-12)
    assert iters == 1 and res <= 1e-12
    faces = harmonic_face_coefficients(coefficient)
    assert rel_l2(periodic_operator(faces, 1.0 / shape[0])(u), rhs) <= 1e-12


def _disc_solve_iterations(m, dim=2):
    """Iteration counts of the first xi3 and eta solves on the r=0.25 disc
    (the sphere for dim=3)."""
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": dim}, m)
    kappa = permittivity_field(cell, CONTRAST)
    faces = harmonic_face_coefficients(kappa)
    rhs = (np.roll(faces[0], 1, axis=0) - faces[0]) / cell.h
    xi, _, xi_iters = solve_one(kappa, rhs, 1e-10)
    ones = np.ones_like(kappa)
    fluid_faces = harmonic_face_coefficients(ones, cell.fluid_mask)
    rhs = -periodic_operator(fluid_faces, cell.h)(xi)
    _, _, eta_iters = solve_one(ones, rhs, 1e-10, cell.fluid_mask)
    return xi_iters, eta_iters


def test_iterations_do_not_grow_with_resolution():
    # the Laplacian preconditioner leaves a count set by the contrast alone;
    # Jacobi's, about 2.5*m, grows 8x from m=32 to m=256 and 2x from m=16 to
    # m=32
    for dim, coarse, fine in ((2, 32, 256), (3, 16, 32)):
        xi_coarse, eta_coarse = _disc_solve_iterations(coarse, dim)
        xi_fine, eta_fine = _disc_solve_iterations(fine, dim)
        assert xi_fine <= xi_coarse + 10
        assert eta_fine <= eta_coarse + 10


@pytest.mark.parametrize("dim, m", [(2, 32), (3, 8)])
def test_a_family_solves_as_each_member_alone(dim, m):
    # one solver for the whole family keeps no state from one solve to the
    # next: each field, residual and count is that of its own solve, bit for
    # bit, on the whole cell and on the masked fluid problem
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": dim}, m)
    kappa = permittivity_field(cell, CONTRAST)
    faces = harmonic_face_coefficients(kappa)
    rhs = np.stack([(np.roll(f, 1, axis=j) - f) / cell.h for j, f in enumerate(faces)])
    xi3, res, iters = solve_periodic(kappa, rhs, 1e-10)
    ones = np.ones_like(kappa)
    apply = periodic_operator(harmonic_face_coefficients(ones, cell.fluid_mask), cell.h)
    masked = [-apply(xi) for xi in xi3]
    eta, eta_res, eta_iters = solve_periodic(ones, masked, 1e-10, cell.fluid_mask)
    for family, coefficient, mask in ((zip(rhs, xi3, res, iters), kappa, None),
                                      (zip(masked, eta, eta_res, eta_iters), ones,
                                       cell.fluid_mask)):
        for f, u, r, n in family:
            alone = solve_one(coefficient, f, 1e-10, mask)
            assert alone[0].tobytes() == u.tobytes()
            assert alone[1:] == (r, n) and n > 0


@pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
def test_one_periodic_solver_per_corrector_family(monkeypatch, caplog, dim, m):
    # xi3 and zeta3 each build one periodic SpectralPCG for all of their
    # dim and dim^2 solves; eta, taken in closed form, builds none
    phase, builds = [None], []
    init = SpectralPCG.__init__

    def counting(self, *args, **kwargs):
        builds.append((phase[-1], kwargs.get("bc")))
        init(self, *args, **kwargs)

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            phase.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                phase.pop()
        return wrapped

    monkeypatch.setattr(SpectralPCG, "__init__", counting)
    for name, attr in (("xi3", "solve_potential_corrector"),
                       ("eta", "solve_density_corrector_shape"),
                       ("zeta3", "solve_second_order_potential_corrector")):
        monkeypatch.setattr(upscale, attr, in_phase(name, getattr(upscale, attr)))
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": dim}, m)
    with caplog.at_level(logging.DEBUG, logger="pnp_upscale.cellcorrect"):
        compute_effective_tensors(cell, CONTRAST)
    assert builds == [("xi3", "periodic"), ("zeta3", "periodic")]
    solves = [r for r in caplog.records if r.getMessage().startswith("periodic elliptic solve")]
    assert len(solves) == dim + dim * dim


# ---------------------------------------------------------------------------
# random masks against the Jacobi reference solver

#: largest |difference| / (max|reference| * tol) allowed against the Jacobi
#: solver; 300 random masks with alpha up to 100 peaked at 44 for the fields
#: and 1.7 for eps0 and M (an earlier 276 peaked at 165 and 9)
FIELD_TOL_FACTOR = 2000.0
TENSOR_TOL_FACTOR = 200.0


@st.composite
def random_masks(draw):
    """Fluid masks: up to four periodic solid boxes plus sparse solid voxels."""
    dim = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(4, 32 if dim == 2 else 8))
    solid = np.zeros((m,) * dim, dtype=bool)
    for _ in range(draw(st.integers(0, 4))):
        box = np.zeros_like(solid)
        box[tuple(slice(0, draw(st.integers(1, m - 1))) for _ in range(dim))] = True
        shift = tuple(draw(st.integers(0, m - 1)) for _ in range(dim))
        solid |= np.roll(box, shift, axis=tuple(range(dim)))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    solid |= noise.random(solid.shape) < draw(st.floats(0.0, 0.15))
    return ~solid


def jacobi_correctors(cell, kappa, tol):
    """(xi3, eta, zeta3, eps0) with each family's discrete problem solved by
    the Jacobi reference CG: xi3 on the whole cell, eta on the masked fluid
    problem driven by the reference xi3, zeta3 by the reference eps0."""
    h, mask = cell.h, cell.fluid_mask

    def solve(faces, rhs, mask=None):
        return oracles.jacobi_projected_cg(faces, rhs, h, mask, tol, None)[0]

    faces = harmonic_face_coefficients(kappa)
    xi3 = np.stack([solve(faces, (np.roll(f, 1, axis=j) - f) / h)
                    for j, f in enumerate(faces)])
    fluid = harmonic_face_coefficients(np.ones(mask.shape), mask)
    eta = np.stack([solve(fluid, -oracles.apply_periodic_operator_rolled(xi, fluid, h), mask)
                    for xi in xi3])
    eps0 = effective_permittivity(cell, kappa, xi3)
    zeta3 = []
    for k in range(cell.dim):
        for l in range(cell.dim):
            rhs = second_order_rhs(cell, faces[k], xi3, eps0, k, l)
            zeta3.append(solve(faces, rhs - rhs.mean()))
    zeta3 = np.stack(zeta3).reshape((cell.dim,) * 2 + kappa.shape)
    return xi3, eta, zeta3, eps0


def mask_cell(mask):
    dim = mask.ndim
    return UnitCell(dim=dim, resolution=mask.shape[0], fluid_mask=mask,
                    geometry_spec={"kind": "mask", "dim": dim})


#: fluid on the last row and the last column of a 4^2 cell: at alpha 0.25
#: the reference Hhat is exactly 0 and the program's 2.4e-35
CROSS_MASK = np.zeros((4, 4), dtype=bool)
CROSS_MASK[-1, :] = CROSS_MASK[:, -1] = True


@settings(max_examples=30)
@given(random_masks(), st.floats(0.25, 100.0))
@example(CROSS_MASK, 0.25)
def test_random_masks_match_jacobi_reference(mask, alpha):
    assume(mask.any())
    dim = mask.ndim
    cell = mask_cell(mask)
    connected = oracles.periodic_fluid_connected(mask)
    assert cell.fluid_connected == connected
    if not connected:
        with pytest.raises(GeometryError, match="disconnected"):
            solve_density_corrector_shape(cell, np.zeros((dim,) + mask.shape))
    assume(connected)

    tol = 1e-10
    params = PermittivityParams(lam=1.0, alpha=alpha)
    tensors, correctors = compute_effective_tensors(cell, params, tol=tol)
    kappa = permittivity_field(cell, params)
    xi3, eta, zeta3, eps0 = jacobi_correctors(cell, kappa, tol)
    ref_correctors = {"xi3": xi3, "eta": eta, "zeta3": zeta3}
    ref_tensors = {"eps0": eps0, "M": electro_convection_tensor(cell, xi3),
                   "Hhat": diffusion_shape_tensor(cell, eta)}

    for name, ref in ref_correctors.items():
        got = getattr(correctors, name)
        bound = FIELD_TOL_FACTOR * tol * float(np.abs(ref).max())
        assert np.abs(got - ref).max() <= bound, name
    for name, ref in ref_tensors.items():
        got = getattr(tensors, name)
        # M and Hhat can vanish in exact arithmetic, and then differ only by
        # rounding: their scale is at least the porosity
        scale = max(float(np.abs(ref).max()), 0.0 if name == "eps0" else tensors.p)
        bound = TENSOR_TOL_FACTOR * tol * scale
        assert np.abs(got - ref).max() <= bound, name

    assert symmetry_defect(tensors.eps0) <= 1e-8
    check_spectral_bounds(tensors.eps0, kappa)


@settings(max_examples=30)
@given(random_masks(), st.floats(0.25, 100.0))
def test_closed_form_eta_matches_the_masked_cg_solve(mask, alpha):
    # eta = -(xi - <xi>_fluid) on the fluid solves the masked problem
    # L_f eta = -L_f xi: the CG solve of it at 1e-12 lands on the same field
    assume(mask.any())
    dim = mask.ndim
    cell = mask_cell(mask)
    if not cell.fluid_connected:
        with pytest.raises(GeometryError, match="disconnected"):
            solve_density_corrector_shape(cell, np.zeros((dim,) + mask.shape))
    assume(cell.fluid_connected)

    tol = 1e-12
    kappa = permittivity_field(cell, PermittivityParams(lam=1.0, alpha=alpha))
    xi3, _ = solve_potential_corrector(cell, kappa, tol=tol)
    eta, res = solve_density_corrector_shape(cell, xi3, tol=tol)
    assert max(res) <= tol
    ones = np.ones(mask.shape)
    apply = periodic_operator(harmonic_face_coefficients(ones, mask), cell.h)
    refs, _, _ = solve_periodic(ones, [-apply(xi) for xi in xi3], tol, domain_mask=mask)
    for got, ref in zip(eta, refs):
        assert np.abs(got - ref).max() <= 1e-8 * float(np.abs(got).max())
        assert np.all(got[~mask] == 0.0)


# ---------------------------------------------------------------------------
# potential correctors


def test_constant_kappa_gives_zero_correctors():
    cell = build_unit_cell({"kind": "full", "dim": 2}, 16)
    kappa = np.full((16, 16), 0.25)
    xi3, res = solve_potential_corrector(cell, kappa)
    assert np.all(xi3 == 0.0)
    assert max(res) == 0.0


def test_laminate_face_gradients():
    # flux continuity fixes the in-layer gradients at -0.6 / +0.6 (harmonic
    # mean flux 1.6); the transverse corrector vanishes
    m = 16
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    g = face_gradient(xi3[0], 0, cell.h)
    same_low = (kappa == 1.0) & (np.roll(kappa, -1, axis=0) == 1.0)
    same_high = (kappa == 4.0) & (np.roll(kappa, -1, axis=0) == 4.0)
    interface = ~(same_low | same_high)
    assert np.allclose(g[same_low], oracles.LAMINATE_GRAD_LOW, atol=1e-9)
    assert np.allclose(g[same_high], oracles.LAMINATE_GRAD_HIGH, atol=1e-9)
    assert np.allclose(g[interface], 0.0, atol=1e-9)
    assert np.abs(xi3[1]).max() <= 1e-12


def test_laminate_profile_matches_closed_form():
    m = 64
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    profile = oracles.laminate_xi_profile(centers(m))
    assert np.abs(xi3[0][:, 0] - profile).max() < 1e-9


def test_periodic_gradient_mean_vanishes():
    rng = np.random.default_rng(11)
    m = 24
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    kappa = np.exp(rng.normal(size=(m, m)) * 0.5)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    for k in range(2):
        for d in range(2):
            assert abs(face_gradient(xi3[k], d, cell.h).mean()) < 1e-9


def test_mean_zero_and_residual_contract():
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 32)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, res = solve_potential_corrector(cell, kappa, tol=1e-10)
    for k in range(2):
        assert abs(xi3[k].mean()) <= 1e-10 * max(np.abs(xi3[k]).max(), 1e-300)
    assert max(res) <= 1e-10


def test_symmetry_inheritance():
    # swap-invariant geometries: xi_1(y1,y2) = xi_2(y2,y1) voxel-wise
    for cell in (
        build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 32),
        checkerboard_cell(32),
    ):
        kappa = permittivity_field(cell, CONTRAST)
        xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
        scale = max(np.abs(xi3).max(), 1e-300)
        assert np.abs(xi3[0] - xi3[1].T).max() <= 1e-8 * scale


def test_1d_cell():
    m = 32
    cell = build_unit_cell({"kind": "laminate", "fraction": 0.5, "dim": 1}, m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    eps0 = effective_permittivity(cell, kappa, xi3)
    assert eps0[0, 0] == pytest.approx(oracles.LAMINATE_Q, rel=1e-9)


# ---------------------------------------------------------------------------
# density-corrector shapes


def test_eta_zero_for_zero_xi():
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    xi3 = np.zeros((2, 16, 16))
    eta, res = solve_density_corrector_shape(cell, xi3)
    assert np.all(eta == 0.0)


def test_eta_equals_minus_xi_on_full_cell():
    m = 32
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    Y1, Y2 = grid2(m)
    kappa = 2.0 + np.sin(2 * np.pi * Y1) * np.cos(2 * np.pi * Y2)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    eta, _ = solve_density_corrector_shape(cell, xi3, tol=1e-12)
    assert np.abs(eta + xi3).max() < 1e-9


def test_eta_disconnected_raises():
    with pytest.raises(GeometryError, match="disconnected"):
        solve_density_corrector_shape(checkerboard_cell(8), np.zeros((2, 8, 8)))


def test_eta_zero_on_solid_and_mean_zero():
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 32)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-10)
    eta, res = solve_density_corrector_shape(cell, xi3, tol=1e-10)
    solid = ~cell.fluid_mask
    for k in range(2):
        assert np.all(eta[k][solid] == 0.0)
        scale = max(np.abs(eta[k]).max(), 1e-300)
        assert abs(eta[k][cell.fluid_mask].mean()) <= 1e-10 * scale
    assert max(res) <= 1e-10


def test_eta_certificate_above_tol_raises():
    # the closed form's residual is at rounding level, above a tol of 1e-20
    cell = build_unit_cell({"kind": "disc", "radius": 0.3, "dim": 2}, 16)
    xi3, _ = solve_potential_corrector(cell, permittivity_field(cell, CONTRAST))
    with pytest.raises(SolverError, match="density corrector residual"):
        solve_density_corrector_shape(cell, xi3, tol=1e-20)


def test_density_corrector_linearity():
    # scaling the right-hand side by the charge-density factor scales the
    # solution: solving with rhs * (z c) must equal z*c*eta voxel-wise
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 16)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-12)
    eta, _ = solve_density_corrector_shape(cell, xi3, tol=1e-12)
    zc = -2.0
    ones = np.ones_like(kappa)
    faces = harmonic_face_coefficients(ones, cell.fluid_mask)
    rhs = -zc * periodic_operator(faces, cell.h)(xi3[0])
    direct = solve_one(ones, rhs, 1e-12, cell.fluid_mask)[0]
    assert np.abs(direct - zc * eta[0]).max() <= 1e-12 * max(np.abs(eta).max(), 1e-300)


def test_eta_grid_refinement(disc_correctors):
    cell_c, _, _, eta_c = disc_correctors[64]
    cell_f, _, _, eta_f = disc_correctors[128]
    blocks = eta_f[0].reshape(64, 2, 64, 2).mean(axis=(1, 3))
    children_fluid = cell_f.fluid_mask.reshape(64, 2, 64, 2).all(axis=(1, 3))
    sel = cell_c.fluid_mask & children_fluid
    a = eta_c[0][sel]
    b = blocks[sel]
    a = a - a.mean()
    b = b - b.mean()
    assert rel_l2(a, b) < 0.01


# ---------------------------------------------------------------------------
# second-order potential correctors


def test_zeta_zero_for_constant_kappa():
    m = 16
    cell = build_unit_cell({"kind": "full", "dim": 2}, m)
    kappa = np.full((m, m), 0.5)
    xi3 = np.zeros((2, m, m))
    eps0 = 0.5 * np.eye(2)
    zeta, res = solve_second_order_potential_corrector(cell, kappa, xi3, eps0)
    assert np.all(zeta == 0.0)


def test_zeta_laminate_dimensional_reduction():
    m = 32
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    eps0 = effective_permittivity(cell, kappa, xi3)
    zeta, res = solve_second_order_potential_corrector(cell, kappa, xi3, eps0, tol=1e-11)
    assert max(res) <= 1e-11
    # profiles depend on y1 only
    for k in range(2):
        for l in range(2):
            assert np.abs(zeta[k, l] - zeta[k, l][:, :1]).max() == 0.0
            scale = max(np.abs(zeta[k, l]).max(), 1e-300)
            assert abs(zeta[k, l].mean()) <= 1e-10 * scale
    # mixed components vanish identically
    assert np.abs(zeta[0, 1]).max() == 0.0
    assert np.abs(zeta[1, 0]).max() == 0.0
    # (1,1): mean-zero antiderivative of the first-order corrector
    oracle11 = oracles.laminate_zeta11_profile(centers(m))
    assert rel_l2(zeta[0, 0][:, 0], oracle11) < 0.015
    # (2,2): independent dense 1D solve of -(kappa z')' = kappa - 2.5
    mf = 512
    kline = np.where(centers(mf) < 0.5, 1.0, 4.0)
    fine = oracles.dense_periodic_solve_1d(kline, kline - oracles.LAMINATE_TRANSVERSE)
    oracle22 = np.interp(centers(m), centers(mf), fine)
    assert rel_l2(zeta[1, 1][:, 0], oracle22) < 0.015


def test_zeta_inconsistent_eps0_raises():
    m = 16
    cell = laminate_cell(m)
    kappa = permittivity_field(cell, CONTRAST)
    xi3, _ = solve_potential_corrector(cell, kappa, tol=1e-11)
    eps0 = effective_permittivity(cell, kappa, xi3)
    with pytest.raises(SolverError, match="incompatible"):
        solve_second_order_potential_corrector(cell, kappa, xi3, eps0 + 0.1)
