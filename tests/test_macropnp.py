import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pnp_upscale import macropnp
from pnp_upscale._fv import _face_slices, assemble_neumann_operator
from pnp_upscale.cellcorrect import SolverError
from pnp_upscale.macropnp import (
    GridOperators,
    MacroConfig,
    MacroState,
    check_local_equilibrium,
    free_energy,
    run_macro,
    step_macro_pnp,
)
from pnp_upscale.unitcell import PermittivityParams, build_unit_cell
from pnp_upscale.upscale import EffectiveTensors, compute_effective_tensors

import oracles
from conftest import rel_l2, tilted_grain_mask


def classical_tensors(dim, eps=1.0, p=1.0):
    n = dim
    return EffectiveTensors(p=p, eps0=eps * np.eye(n), M=np.eye(n),
                            Hhat=np.zeros((n, n)))


def grid2(m):
    c = (np.arange(m) + 0.5) / m
    return np.meshgrid(c, c, indexing="ij")


# ---------------------------------------------------------------------------
# Poisson


def test_poisson_zero_charge():
    m = 16
    u = np.ones((m, m))
    u3, cert, iters = GridOperators((m, m), tensor=np.eye(2)).potential(u, u, 1e-10)
    assert np.all(u3 == 0.0) and (cert, iters) == (0.0, 0)


def test_poisson_neumann_eigenfunction():
    m = 64
    X, _ = grid2(m)
    ops = GridOperators((m, m), tensor=np.eye(2))
    u3, _, _ = ops.potential(1.0 + np.cos(np.pi * X), np.ones((m, m)), 1e-10)
    exact = np.cos(np.pi * X) / np.pi**2
    assert np.abs(u3 - exact).max() * np.pi**2 < 1e-3


def test_poisson_anisotropic_eigenfunction():
    m = 64
    X, _ = grid2(m)
    ops = GridOperators((m, m), tensor=np.diag([1.6, 2.5]))
    u3, _, _ = ops.potential(1.0 + np.cos(np.pi * X), np.ones((m, m)), 1e-10)
    exact = np.cos(np.pi * X) / (1.6 * np.pi**2)
    assert np.abs(u3 - exact).max() / np.abs(exact).max() < 1e-3


def test_poisson_convergence_order():
    errs = []
    for m in (32, 64, 128):
        X, _ = grid2(m)
        ops = GridOperators((m, m), tensor=np.diag([1.6, 2.5]))
        u3, _, _ = ops.potential(1.0 + np.cos(np.pi * X), np.ones((m, m)), 1e-10)
        exact = np.cos(np.pi * X) / (1.6 * np.pi**2)
        errs.append(np.abs(u3 - exact).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_poisson_mean_zero_certificate():
    m = 32
    rng = np.random.default_rng(2)
    u1 = 1.0 + 0.2 * rng.random((m, m))
    u3, _, _ = GridOperators((m, m), 0.7, tensor=np.eye(2)).potential(
        u1, np.ones((m, m)), 1e-10)
    assert abs(u3.mean()) <= 1e-10 * np.abs(u3).max()


def test_poisson_not_spd():
    # the macro Poisson operator takes eps0 from EffectiveTensors, which checks it
    with pytest.raises(ValueError, match="positive definite"):
        EffectiveTensors(p=0.5, eps0=-np.eye(2), M=np.eye(2), Hhat=np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        EffectiveTensors(p=0.5, eps0=np.array([[1.0, 0.5], [-0.5, 1.0]]), M=np.eye(2),
                         Hhat=np.eye(2))


def test_poisson_cross_terms_converge():
    # rotated anisotropic tensor exercises the tangential-flux stencil; the
    # solution must be grid-convergent (Cauchy refinement check)
    eps0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    sols = {}
    for m in (32, 64, 128):
        X, Y = grid2(m)
        q = np.cos(np.pi * X) * np.cos(np.pi * Y)
        ops = GridOperators((m, m), tensor=eps0)
        sols[m] = ops.potential(1.0 + q, np.ones((m, m)), 1e-9)[0]
    d1 = rel_l2(sols[32].reshape(32, 1, 32, 1).mean(axis=(1, 3)),
                sols[64].reshape(32, 2, 32, 2).mean(axis=(1, 3)))
    d2 = rel_l2(sols[64].reshape(64, 1, 64, 1).mean(axis=(1, 3)),
                sols[128].reshape(64, 2, 64, 2).mean(axis=(1, 3)))
    assert d2 < 0.6 * d1


# ---------------------------------------------------------------------------
# stepping


def test_zero_state_stays_zero():
    m = 16
    cfg = MacroConfig(dt=1e-3, t_end=3e-3)
    state = MacroState.zero((m, m))
    for _ in range(3):
        state, info = step_macro_pnp(state, classical_tensors(2), cfg)
        assert np.all(state.u1 == 0.0) and np.all(state.u2 == 0.0)
        assert np.all(state.u3 == 0.0)


def test_equal_density_symmetry_and_decay():
    m = 64
    dt = 1e-4
    X, Y = grid2(m)
    mode = np.sin(np.pi * X) * np.sin(np.pi * Y)
    state = MacroState(u1=mode.copy(), u2=mode.copy(), u3=np.zeros_like(mode))
    cfg = MacroConfig(dt=dt, t_end=10 * dt)
    target = np.exp(-2 * np.pi**2 * dt)
    for _ in range(10):
        prev_mass = state.u1.sum()
        state, _ = step_macro_pnp(state, classical_tensors(2), cfg)
        assert np.array_equal(state.u1, state.u2)
        assert np.abs(state.u3).max() <= 1e-10
        ratio = state.u1.sum() / prev_mass
        assert abs(ratio - target) / target < 0.01


def test_oracle_equivalence_1d():
    # dt/10 on the 4x grid must satisfy the explicit diffusion limit h^2/2
    M, dt, T = 64, 5e-5, 0.05
    x = (np.arange(M) + 0.5) / M
    init = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M), u3=np.zeros(M))
    cfg = MacroConfig(dt=dt, t_end=T, drift="central", picard_tol=1e-11)
    final, _ = run_macro(cfg, classical_tensors(1), init)
    ref1, ref2 = oracles.explicit_pnp_1d(4 * M, dt / 10, int(round(T / (dt / 10))))
    r1 = ref1.reshape(M, 4).mean(axis=1)
    r2 = ref2.reshape(M, 4).mean(axis=1)
    assert rel_l2(final.u1, r1) < 1e-3
    assert rel_l2(final.u2, r2) < 1e-3


def test_picard_contraction():
    M = 64
    x = (np.arange(M) + 0.5) / M
    counts = {}
    for dt in (1e-3, 5e-4):
        state = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M),
                           u3=np.zeros(M))
        cfg = MacroConfig(dt=dt, t_end=10 * dt, picard_tol=1e-10)
        worst = 0
        for _ in range(10):
            state, info = step_macro_pnp(state, classical_tensors(1), cfg)
            worst = max(worst, info.picard_iters)
            inc = info.increments
            assert all(inc[i + 1] < inc[i] for i in range(len(inc) - 1))
        counts[dt] = worst
        assert worst <= 10
    assert counts[5e-4] <= counts[1e-3]


def test_picard_cap_raises():
    m = 16
    x = (np.arange(m) + 0.5) / m
    state = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(m), u3=np.zeros(m))
    cfg = MacroConfig(dt=50.0, t_end=50.0, picard_cap=3,
                      picard_tol=1e-14)
    with pytest.raises(SolverError, match="reduce dt"):
        step_macro_pnp(state, classical_tensors(1), cfg)


def test_positivity_upwind():
    m = 32
    x = (np.arange(m) + 0.5) / m
    state = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(m), u3=np.zeros(m))
    cfg = MacroConfig(dt=1e-3, t_end=0.02, drift="upwind")
    final, _ = run_macro(cfg, classical_tensors(1), state)
    assert final.u1.min() >= -1e-12 and final.u2.min() >= -1e-12


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bc", ["dirichlet", "noflux"])
@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_drift_ignores_rounding_noise_off_the_diagonal(dim, bc, scheme, monkeypatch):
    # effective tensors of discs and spheres carry off-diagonals of 1e-18:
    # the drift treats them as the diagonal tensor they are, as the Poisson
    # assembly does, and only a real off-diagonal takes the cross-term path
    calls = []
    gradients = macropnp.cell_gradients
    monkeypatch.setattr(macropnp, "cell_gradients",
                        lambda *a: calls.append(1) or gradients(*a))
    m = 8
    rng = np.random.default_rng(dim)
    v = 1.0 + rng.random((m,) * dim)
    u3 = rng.standard_normal((m,) * dim)
    diag = np.diag(rng.uniform(-1.0, 1.0, dim))
    noisy = diag + 1e-18 * (1.0 - np.eye(dim))
    h = 1.0 / m

    def drift(A):
        return np.stack(macropnp._drift_divergences([v, v[::-1]], u3, A, h, bc, scheme))

    ref = drift(diag)
    out = drift(noisy)
    assert out.tobytes() == ref.tobytes()
    assert not calls
    cross = diag + 0.1 * (1.0 - np.eye(dim))
    out = drift(cross)
    assert calls and not np.array_equal(out, ref)


@pytest.mark.parametrize("dim", [2, 3])
def test_cross_terms_below_the_certified_accuracy_are_dropped(dim, monkeypatch):
    # float32-preconditioned cell solves, each certified, left the sphere's
    # Hhat an off-diagonal of 1.2e-11 of its largest entry; below 1e-8, the
    # asymmetry eps0_defect accepts, the grid keeps its 2N+1-point stencil,
    # the drift takes no cross term, and a step is the diagonal tensors' step
    calls = []
    gradients = macropnp.cell_gradients
    monkeypatch.setattr(macropnp, "cell_gradients",
                        lambda *a: calls.append(1) or gradients(*a))
    m = 8
    off = 1.2e-11 * (1.0 - np.eye(dim))
    noisy = EffectiveTensors(p=0.7, eps0=np.eye(dim) + off, M=np.eye(dim),
                             Hhat=-0.3 * np.eye(dim) + off)
    exact = EffectiveTensors(p=0.7, eps0=np.eye(dim), M=np.eye(dim),
                             Hhat=-0.3 * np.eye(dim))
    A = assemble_neumann_operator((m,) * dim, 1.0 / m, tensor=noisy.eps0)
    assert A.compact and len(A.offsets) == dim + 1  # the rows of the lower half
    rng = np.random.default_rng(dim)
    u1 = 1.0 + rng.random((m,) * dim)
    cfg = MacroConfig(dt=1e-3, t_end=1e-3)
    steps = [step_macro_pnp(MacroState(u1=u1, u2=np.ones_like(u1), u3=np.zeros_like(u1)),
                            tensors, cfg)[0] for tensors in (noisy, exact)]
    assert not calls
    for var in ("u1", "u2", "u3"):
        assert getattr(steps[0], var).tobytes() == getattr(steps[1], var).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bc", ["dirichlet", "noflux"])
@pytest.mark.parametrize("scheme", ["upwind", "central"])
@pytest.mark.parametrize("tensor", ["diagonal", "full"])
@pytest.mark.parametrize("faces", [0, 1, 2], ids=["box", "open-faces", "open-faces-dns"])
def test_shared_face_velocities_match_the_per_species_drift(dim, bc, scheme, tensor,
                                                            faces):
    # one pass over the faces serves both species: z = -1 sees the exact
    # negation of the face velocities, so the drift is bitwise the one
    # computed species by species
    m = 6
    rng = np.random.default_rng([dim, faces])
    u3 = rng.standard_normal((m,) * dim)
    A = np.diag(rng.uniform(-1.0, 1.0, dim))
    if tensor == "full":
        A = A + rng.uniform(-0.5, 0.5, (dim, dim))
    open_faces = None
    if faces:
        mask = rng.random((m,) * dim) > 0.3
        open_faces = [mask[lo] & mask[hi] for lo, hi in _face_slices(dim)]
    v = [1.0 + rng.random((m,) * dim) for _ in range(2)]
    if faces == 2:
        # as on the DNS grid, the densities are zero in the solid
        v = [w * mask for w in v]
    h = 1.0 / m
    calls = []
    gradients = macropnp.cell_gradients
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(macropnp, "cell_gradients", lambda *a: calls.append(1) or gradients(*a))
        out = macropnp._drift_divergences(v, u3, A, h, bc, scheme, open_faces)
    assert len(calls) == (tensor == "full")
    for w, z, div in zip(v, (1.0, -1.0), out):
        ref = oracles.drift_divergence(w, u3, A, h, z, bc, scheme, open_faces)
        assert div.tobytes() == ref.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        MacroConfig(dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        MacroConfig(dt=1.0, t_end=0.5)
    with pytest.raises(ValueError):
        MacroConfig(dt=1e-3, t_end=1e-2, drift="qwerty")
    # each field passes the check of its config-file key
    for setting in ({"lin_tol": 1.0}, {"lin_tol": np.inf}, {"lin_tol": 0.0},
                    {"picard_cap": 0}, {"picard_tol": -1.0}, {"loceq_window": 0}):
        with pytest.raises(ValueError, match=f"^{next(iter(setting))}: "):
            MacroConfig(dt=1e-3, t_end=1e-2, **setting)


def test_a_t_end_between_steps_is_rejected():
    # a run makes round(t_end / dt) steps: 1.0 would stop at t = 0.9, as the
    # config file's macro.t_end would, by the same rule
    with pytest.raises(ValueError, match=r"^t_end \(1.0\) must be a whole number of "
                                         r"dt \(0.3\) steps$"):
        MacroConfig(dt=0.3, t_end=1.0)
    assert MacroConfig(dt=0.1, t_end=0.3).n_steps == 3


@pytest.mark.parametrize("t", [0.5, 4e-3, 4e-4, float("nan")])
def test_run_macro_rejects_a_snapshot_time_that_no_step_is_nearest_to(t):
    cfg = MacroConfig(dt=1e-3, t_end=3e-3)
    snaps = []
    with pytest.raises(ValueError, match=f"^snapshot time {t} lies outside "
                                         r"\[dt/2, t_end \+ dt/2\] = \[0.0005, 0.0035\]"):
        run_macro(cfg, classical_tensors(2), MacroState.zero((8, 8)), snapshot_times=(t,),
                  write_snapshot=snaps.append)
    # the window's ends snap to the first and the last step
    run_macro(cfg, classical_tensors(2), MacroState.zero((8, 8)),
              snapshot_times=(5e-4, 3.5e-3), write_snapshot=snaps.append)
    assert [s.t for s in snaps] == [pytest.approx(1e-3), pytest.approx(3e-3)]


def test_the_step_takes_the_porosity_of_its_operators():
    # both right-hand sides take ops.p: a tensors.p that differs from it
    # does not enter the step
    m = 12
    eps0 = np.array([[1.0, 0.3], [0.3, 1.5]])
    X, Y = grid2(m)
    init = MacroState(u1=1 + 0.5 * np.sin(np.pi * X) * np.sin(np.pi * Y),
                      u2=np.ones((m, m)), u3=np.zeros((m, m)))
    cfg = MacroConfig(dt=1e-3, t_end=1e-3)
    states = []
    for p in (0.8, 0.5):
        tensors = EffectiveTensors(p=p, eps0=eps0, M=0.9 * np.eye(2), Hhat=0.2 * eps0)
        ops = GridOperators((m, m), 0.8, tensor=eps0)
        states.append(step_macro_pnp(init, tensors, cfg, ops=ops)[0])
    same, other = states
    for name in ("u1", "u2", "u3"):
        assert getattr(same, name).tobytes() == getattr(other, name).tobytes()


# ---------------------------------------------------------------------------
# diagnostics


def test_free_energy_values():
    m = 8
    ones = np.ones((m, m))
    state = MacroState(u1=ones, u2=ones, u3=np.zeros((m, m)))
    # 2 * 1 * (log 1 - 1) integrated over the unit square
    assert free_energy(state, 1.0) == pytest.approx(-2.0)
    zero = MacroState.zero((m, m))
    assert free_energy(zero, 1.0) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        free_energy(MacroState(u1=-ones, u2=ones, u3=np.zeros((m, m))), 1.0)


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(2, 9), st.floats(0.0, 0.9), st.data())
def test_free_energy_matches_xlogy(dim, m, zeros, data):
    # 0 log 0 = 0 on exact zeros; elsewhere u log u as scipy computes it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (m,) * dim
    u1, u2 = (np.where(rng.random(shape) < zeros, 0.0, 2.0 * rng.random(shape))
              for _ in range(2))
    state = MacroState(u1=u1, u2=u2, u3=rng.standard_normal(shape))
    for u in (u1, u2):
        got, ref = macropnp._xlogx(u), oracles.xlogx(u)
        assert np.all(got[u == 0.0] == 0.0)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
    got = free_energy(state, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(macropnp, "_xlogx", oracles.xlogx)
        ref = free_energy(state, 0.5)
    assert abs(got - ref) <= 1e-15 * abs(ref)


def entropy(state):
    """<sum_r u_r (log u_r - 1)> by voxel quadrature."""
    return float(np.mean(oracles.xlogx(state.u1) - state.u1
                         + oracles.xlogx(state.u2) - state.u2))


@pytest.mark.parametrize("bc", ["dirichlet", "noflux"])
def test_free_energy_is_the_entropy_plus_the_field_energy(bc):
    # an accepted state's u3 solves A u3 = p (u1 - u2) - its mean, with mean
    # zero, so p <(u1 - u2) u3> / 2 is the field energy u3.(A u3) / (2n) of
    # the assembled anisotropic operator
    m = 32
    eps0 = np.array([[1.0, 0.3], [0.3, 1.5]])
    tensors = EffectiveTensors(p=0.8, eps0=eps0, M=0.9 * np.eye(2), Hhat=0.2 * eps0)
    X, Y = grid2(m)
    init = MacroState(u1=1 + 0.5 * np.sin(np.pi * X) * np.sin(np.pi * Y),
                      u2=np.ones((m, m)), u3=np.zeros((m, m)))
    states = []  # every accepted state, handed over as a snapshot
    _, rows = run_macro(MacroConfig(dt=1e-3, t_end=5e-3, bc=bc), tensors, init,
                        [1e-3 * k for k in range(1, 6)], states.append)
    A = assemble_neumann_operator((m, m), 1.0 / m, tensor=eps0)
    for state, row in zip(states, rows, strict=True):
        F = row["free_energy"]
        assert F == free_energy(state, tensors.p)
        u3 = state.u3.ravel()
        field = 0.5 * float(u3 @ A(u3)) / u3.size
        assert field > 1e-5 * abs(F)  # the check resolves the field term
        assert abs(F - (tensors.p * entropy(state) + field)) <= 1e-8 * abs(F)


@pytest.mark.parametrize("lam", [1.0, 0.1])
def test_free_energy_on_a_full_cell_exceeds_the_entropy_by_the_field_energy(lam):
    # p = 1 and eps0 = lam^2 I: F is the entropy plus lam^2/2 <|grad u3|^2>
    # over the interior faces (a functional with lam^2 in place of eps0 and
    # no 1/2 cancels that term and leaves the entropy alone)
    m = 32
    X, Y = grid2(m)
    state = MacroState(u1=1 + 0.5 * np.sin(np.pi * X) * np.sin(np.pi * Y),
                       u2=np.ones((m, m)), u3=np.zeros((m, m)))
    for _ in range(3):
        state, _ = step_macro_pnp(state, classical_tensors(2, eps=lam ** 2),
                                  MacroConfig(dt=1e-3, t_end=3e-3, bc="noflux"))
    h = 1.0 / m
    gradient = sum(float((((state.u3[hi] - state.u3[lo]) / h) ** 2).sum())
                   for lo, hi in _face_slices(2)) / state.u3.size
    F = free_energy(state, 1.0)
    assert abs(F - entropy(state) - 0.5 * lam ** 2 * gradient) <= 1e-8 * abs(F)
    assert 0.5 * lam ** 2 * gradient > 1e-5 * abs(F)  # the check resolves the field term


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_free_energy_never_rises_under_noflux_on_tilted_grain_tensors(seed):
    # the tensors of a random anisotropic cell, each run from the potential of
    # its initial densities (from u3 = 0 at lam = 0.1 the first step rises)
    cell = build_unit_cell({"kind": "mask", "mask": tilted_grain_mask(
        np.random.default_rng(seed), 32)}, 32)
    m = 64
    X, Y = grid2(m)
    u1 = 1 + 0.5 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    u2 = np.ones((m, m))
    for lam in (1.0, 0.1):
        tensors, _ = compute_effective_tensors(cell, PermittivityParams(lam=lam, alpha=4.0),
                                               second_order=False)
        ops = GridOperators((m, m), tensors.p, tensor=tensors.eps0)
        u3 = ops.potential(u1, u2, 1e-10)[0]
        for drift in ("upwind", "central"):
            init = MacroState(u1=u1, u2=u2, u3=u3)
            cfg = MacroConfig(dt=1e-3, t_end=2e-2, bc="noflux", drift=drift)
            _, rows = run_macro(cfg, tensors, init)
            series = [free_energy(init, tensors.p)] + [r["free_energy"] for r in rows]
            assert max(np.diff(series)) < 0.0, (lam, drift)


def test_free_energy_monotone_noflux():
    M = 64
    x = (np.arange(M) + 0.5) / M
    init = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M), u3=np.zeros(M))
    cfg = MacroConfig(dt=1e-3, t_end=0.05, bc="noflux")
    _, rows = run_macro(cfg, classical_tensors(1), init)
    series = [free_energy(init, 1.0)] + [r["free_energy"] for r in rows]
    assert max(np.diff(series)) <= 1e-8


def test_conservation_noflux():
    M = 48
    x = (np.arange(M) + 0.5) / M
    init = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M), u3=np.zeros(M))
    cfg = MacroConfig(dt=1e-3, t_end=0.02, bc="noflux")
    _, rows = run_macro(cfg, classical_tensors(1), init)
    m1_0 = init.u1.mean()
    for r in rows:
        assert abs(r["mass1"] - m1_0) <= 1e-10
        assert abs(r["mass2"] - 1.0) <= 1e-10


def test_local_equilibrium_boltzmann():
    m = 32
    rng = np.random.default_rng(4)
    u3 = rng.normal(size=(m, m)) * 0.3
    state = MacroState(u1=np.exp(-u3), u2=np.exp(u3), u3=u3)
    assert check_local_equilibrium(state, 4) <= 1e-12


def test_local_equilibrium_uniform():
    m = 16
    state = MacroState(u1=np.full((m, m), 2.0), u2=np.full((m, m), 2.0),
                       u3=np.zeros((m, m)))
    assert check_local_equilibrium(state, 4) == 0.0


def test_local_equilibrium_direct_oracle():
    m = 64
    X, _ = grid2(m)
    u1 = 1.0 + 0.1 * np.sin(np.pi * X)
    state = MacroState(u1=u1, u2=np.ones((m, m)), u3=np.zeros((m, m)))
    expected, _ = oracles.local_equilibrium_loop(u1, state.u2, state.u3, 4)
    assert check_local_equilibrium(state, 4) == pytest.approx(expected, abs=1e-15)


class _WarningRecords(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@st.composite
def loceq_states(draw, max_window=5):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    density = st.one_of(st.just(0.0), st.just(-0.5), st.floats(1e-3, 10.0))
    u1 = draw(hnp.arrays(float, shape, elements=density))
    u2 = draw(hnp.arrays(float, shape, elements=density))
    u3 = draw(hnp.arrays(float, shape, elements=st.floats(-3.0, 3.0)))
    return MacroState(u1=u1, u2=u2, u3=u3), draw(st.integers(1, max_window))


def loceq_with_skipped(state, window):
    """(check_local_equilibrium, the skipped count it logs)."""
    handler = _WarningRecords()
    log = logging.getLogger("pnp_upscale.macropnp")
    log.addHandler(handler)
    try:
        with np.errstate(all="raise"):
            dev = check_local_equilibrium(state, window)
    finally:
        log.removeHandler(handler)
    return dev, handler.records[0].args[0] if handler.records else 0


@settings(max_examples=80, deadline=None)
@given(loceq_states())
def test_local_equilibrium_matches_loop(case):
    # any grid (ragged edge blocks included), zero and negative densities
    state, window = case
    expected = oracles.local_equilibrium_loop(state.u1, state.u2, state.u3, window)
    assert loceq_with_skipped(state, window) == expected


@settings(max_examples=80, deadline=None)
@given(loceq_states(max_window=8))
def test_local_equilibrium_blocks_are_the_reduceat_bits(case):
    # the strided fold of each block gives ufunc.reduceat's bits, block by
    # block, for windows that divide the side, do not, or exceed it
    state, window = case
    mu = np.log(np.where(state.u1 > 0.0, state.u1, 1.0)) + state.u3
    for ufunc, a in ((np.maximum, mu), (np.minimum, mu), (np.logical_or, state.u1 <= 0.0)):
        got = macropnp._block_reduce(ufunc, a, window)
        want = oracles.block_reduceat(ufunc, a, window)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    expected = oracles.local_equilibrium_reduceat(state.u1, state.u2, state.u3, window)
    dev, skipped = loceq_with_skipped(state, window)
    assert (np.float64(dev).tobytes(), skipped) == (np.float64(expected[0]).tobytes(),
                                                    expected[1])


def test_local_equilibrium_skips_zero_blocks():
    m = 16
    u1 = np.ones((m, m))
    u1[:4, :4] = 0.0
    u2 = np.ones((m, m))
    state = MacroState(u1=u1, u2=u2, u3=np.zeros((m, m)))
    assert check_local_equilibrium(state, 4) == 0.0


def test_run_macro_rows_and_snapshots():
    m = 16
    cfg = MacroConfig(dt=1e-3, t_end=3e-3)
    snaps = []
    final, rows = run_macro(cfg, classical_tensors(2), MacroState.zero((m, m)),
                            snapshot_times=(2e-3, 2.2e-3), write_snapshot=snaps.append)
    assert len(rows) == 3
    for r in rows:
        assert list(r) == ["t", "mass1", "mass2", "charge", "free_energy", "picard_iters",
                           "loceq_dev"]
        assert r["mass1"] == 0.0 and r["mass2"] == 0.0 and r["charge"] == 0.0
        assert r["free_energy"] == 0.0 and r["loceq_dev"] == 0.0
    # both requested times snap to the second step, which is handed over once
    assert [s.t for s in snaps] == [pytest.approx(2e-3)]
    assert final.t == pytest.approx(3e-3)
    with pytest.raises(ValueError, match="write_snapshot"):
        run_macro(cfg, classical_tensors(2), MacroState.zero((m, m)), snapshot_times=(2e-3,))


def test_mean_zero_potential_along_run():
    M = 32
    x = (np.arange(M) + 0.5) / M
    state = MacroState(u1=1 + 0.5 * np.sin(np.pi * x), u2=np.ones(M), u3=np.zeros(M))
    cfg = MacroConfig(dt=1e-3, t_end=5e-3)
    for _ in range(5):
        state, _ = step_macro_pnp(state, classical_tensors(1), cfg)
        assert abs(state.u3.mean()) <= 1e-10 * max(np.abs(state.u3).max(), 1e-300)
