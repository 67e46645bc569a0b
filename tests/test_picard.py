"""The inexact Picard loop of ``macropnp.picard_step``: its first iterations
solve each system to a relative reduction of the start's certificate, and it
accepts an iterate only from an iteration whose three solves certified
``lin_tol``.  Its result is that of the loop that solves every system to
``lin_tol``, within ``picard_tol`` in the increment's norm."""

import logging
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_upscale import macropnp
from pnp_upscale.cellcorrect import SolverError, SpectralPCG
from pnp_upscale.macropnp import GridOperators, StepConfig, picard_step
from pnp_upscale.microdns import MicroState, assemble_micro_domain, step_micro_pnp
from pnp_upscale.unitcell import PermittivityParams, build_unit_cell

from test_box_solver import random_masks


@contextmanager
def recorded_solves():
    """(reduction, certificate, iterations) of every solve, in call order."""
    calls = []
    solve = SpectralPCG.solve

    def recording(self, b, tol, x0=None, reduction=0.0):
        result = solve(self, b, tol, x0, reduction)
        calls.append((reduction, result[1], result[2]))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpectralPCG, "solve", recording)
        yield calls


def lin_tol_loop(*args):
    """The loop with no forced iteration: every solve runs to lin_tol."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(macropnp, "FORCED_ITERATIONS", 0)
        return picard_step(*args)


def rms_gap(a, b):
    """The Picard increment's norm: the larger RMS difference of the species."""
    return max(float(np.sqrt(np.mean((x - y) ** 2))) for x, y in zip(a, b))


def forced_step(*args):
    """picard_step, checked: one (Poisson, species 1, species 2) triple of
    solves per iteration and the final potential; the first iterations
    forced, the one at the cap never; the accepted one certified to
    lin_tol; the StepInfo counts those of the solves."""
    cfg = args[-1]
    with recorded_solves() as calls:
        v, u3, info = picard_step(*args)
    assert len(calls) == 3 * info.picard_iters + 1
    for k in range(info.picard_iters):
        forced = k < macropnp.FORCED_ITERATIONS and k + 1 < cfg.picard_cap
        assert {red for red, _, _ in calls[3 * k:3 * k + 3]} == {
            macropnp.FORCING if forced else 0.0}
    assert max(cert for _, cert, _ in calls[-4:]) <= cfg.lin_tol
    assert calls[-1][0] == 0.0
    assert info.increments[-1] <= cfg.picard_tol
    assert [tuple(it for _, _, it in calls[3 * k:3 * k + 3])
            for k in range(info.picard_iters)] == info.cg_iters
    return v, u3, info


def dns_problem(mask, alpha, dt, seed):
    """A DNS grid and the arguments of its step from random densities."""
    ops = GridOperators(mask.shape, coef=np.where(mask, 1.0, alpha), mask=mask)
    rng = np.random.default_rng(seed)
    v = [(1.0 + 0.5 * rng.random(mask.shape)) * mask for _ in range(2)]
    return ops, v, np.zeros(mask.shape), [w / dt for w in v], -np.eye(mask.ndim), dt


def macro_problem(dim, full, dt):
    """A macro grid with a diagonal or a full eps0 and drift tensor, and the
    arguments of its step from a Gaussian bump."""
    eps0 = np.diag([1.0, 1.5, 0.7][:dim])
    if full:
        eps0 = eps0 + 0.3 * (np.ones((dim, dim)) - np.eye(dim))
    m = 24 if dim == 2 else 8
    ops = GridOperators((m,) * dim, 0.8, tensor=eps0)
    c = (np.arange(m) + 0.5) / m
    r2 = sum((g - 0.4) ** 2 for g in np.meshgrid(*([c] * dim), indexing="ij"))
    v = [1.0 + 0.8 * np.exp(-20.0 * r2), np.ones((m,) * dim)]
    A = 0.2 * eps0 - 0.9 * np.eye(dim)  # Hhat - M
    return ops, v, np.zeros((m,) * dim), [0.8 / dt * w for w in v], A, dt


# a loose picard_tol lets a forced iteration pass the increment test, which
# must not end the loop
@settings(max_examples=30)
@given(random_masks(), st.floats(0.25, 100.0), st.floats(1e-4, 1e-2),
       st.sampled_from(["upwind", "central"]), st.sampled_from(["dirichlet", "noflux"]),
       st.sampled_from([1e-9, 1e-5]), st.integers(0, 2**32 - 1))
def test_dns_step_matches_the_lin_tol_loop(mask, alpha, dt, drift, bc, picard_tol, seed):
    args = dns_problem(mask, alpha, dt, seed)
    cfg = StepConfig(drift=drift, bc=bc, picard_tol=picard_tol)
    v, _, info = forced_step(*args, cfg)
    ref, _, ref_info = lin_tol_loop(*args, cfg)
    assert rms_gap(v, ref) <= cfg.picard_tol
    assert info.picard_iters <= ref_info.picard_iters + 1


@pytest.mark.parametrize("picard_tol", [1e-9, 1e-5])
@pytest.mark.parametrize("dt", [1e-3, 2e-2])
@pytest.mark.parametrize("bc", ["dirichlet", "noflux"])
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
def test_macro_step_matches_the_lin_tol_loop(dim, full, bc, dt, picard_tol):
    args = macro_problem(dim, full, dt)
    cfg = StepConfig(bc=bc, picard_tol=picard_tol)
    v, u3, info = forced_step(*args, cfg)
    ref, ref_u3, ref_info = lin_tol_loop(*args, cfg)
    assert rms_gap(v, ref) <= cfg.picard_tol
    assert info.picard_iters <= ref_info.picard_iters + 1
    assert np.abs(u3 - ref_u3).max() <= 1e-6 * np.abs(ref_u3).max()


def fixed_point(args, cfg):
    """The step's accepted densities and potential, and the step's arguments
    with them as the start."""
    ops, _, _, base, A, dt = args
    v, u3, _ = picard_step(*args, cfg)
    return v, u3, (ops, v, u3, base, A, dt)


@pytest.mark.parametrize("problem", [
    lambda: macro_problem(2, True, 1e-3),
    lambda: macro_problem(3, True, 2e-2),
    lambda: dns_problem(np.random.default_rng(1).random((24, 24)) > 0.2, 40.0, 1e-3, 1),
    lambda: dns_problem(np.random.default_rng(2).random((8, 8, 8)) > 0.2, 4.0, 1e-2, 2),
], ids=["macro2d", "macro3d", "dns2d", "dns3d"])
def test_a_step_from_its_fixed_point(problem):
    # the start passes every forced solve's stop at lin_tol, so the first
    # iteration is already a lin_tol one and the loop ends there
    cfg = StepConfig(bc="noflux")
    fixed, _, args = fixed_point(problem(), cfg)
    v, _, info = forced_step(*args, cfg)
    assert info.picard_iters == 1
    assert rms_gap(v, fixed) <= cfg.picard_tol
    # a cap of 1 or 2 accepts it too, and never forces the iteration at the cap
    for cap in (1, 2):
        capped = StepConfig(bc="noflux", picard_cap=cap)
        v, _, info = forced_step(*args, capped)
        assert info.picard_iters == 1 and rms_gap(v, fixed) <= cfg.picard_tol


@pytest.mark.parametrize("problem", [
    lambda: macro_problem(2, True, 1e-3),
    lambda: dns_problem(np.random.default_rng(3).random((24, 24)) > 0.2, 40.0, 1e-3, 3),
], ids=["macro2d", "dns2d"])
def test_small_caps(problem):
    cfg = StepConfig(bc="noflux")
    fixed, u3, (ops, _, _, base, A, dt) = fixed_point(problem(), cfg)
    # a start near the fixed point: its second iteration, the one at cap 2,
    # runs to lin_tol and is accepted
    rng = np.random.default_rng(0)
    near = [w * (1.0 + 1e-7 * rng.standard_normal(w.shape)) for w in fixed]
    args = (ops, near, u3, base, A, dt)
    ref, _, ref_info = lin_tol_loop(*args, cfg)
    assert ref_info.picard_iters == 2
    v, _, info = forced_step(*args, StepConfig(bc="noflux", picard_cap=2))
    assert info.picard_iters == 2
    assert rms_gap(v, ref) <= cfg.picard_tol and rms_gap(v, fixed) <= cfg.picard_tol
    # cap 1 from there: the unforced first iteration does not pass, as in
    # the lin_tol loop
    with pytest.raises(SolverError, match="within 1 iterations"):
        picard_step(*args, StepConfig(bc="noflux", picard_cap=1))
    with pytest.raises(SolverError, match="within 1 iterations"):
        lin_tol_loop(*args, StepConfig(bc="noflux", picard_cap=1))


def test_each_iteration_logs_one_record(caplog):
    args = macro_problem(2, True, 1e-3)
    with caplog.at_level(logging.DEBUG, logger="pnp_upscale.macropnp"):
        _, _, info = picard_step(*args, StepConfig())
    records = [r.getMessage() for r in caplog.records if "Picard iteration" in r.getMessage()]
    assert len(records) == info.picard_iters >= 3
    for k, (msg, inc, counts) in enumerate(zip(records, info.increments, info.cg_iters)):
        forced = k < macropnp.FORCED_ITERATIONS
        assert msg == (f"Picard iteration {k + 1}: increment {inc:.3e}, forced {forced}, "
                       f"CG iterations {counts}")


def test_dns_step_reports_its_counts():
    # the DNS step's dict keeps picard_iters and carries the CG counts
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 8)
    dom = assemble_micro_domain(cell, PermittivityParams(1.0, 4.0), Fraction(1, 2))
    n = (1.0 + 0.3 * np.random.default_rng(5).random(dom.mask.shape)) * dom.mask
    state = MicroState(nplus=n, nminus=1.0 * dom.mask, phi=np.zeros(dom.mask.shape))
    with recorded_solves() as calls:
        _, info = step_micro_pnp(state, dom, 1e-3, StepConfig())
    assert len(info["cg_iters"]) == info["picard_iters"] == len(info["increments"]) >= 3
    assert [it for counts in info["cg_iters"] for it in counts] == [it for _, _, it in calls[:-1]]
