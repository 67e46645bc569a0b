"""The inexact Picard loop of ``macropnp.picard_step``: its first iterations
solve each system to a relative reduction of the start's certificate, and it
accepts an iterate only from an iteration whose three solves certified
``lin_tol``.  Its result is that of the loop that solves every system to
``lin_tol``, within ``picard_tol`` in the increment's norm."""

import json
import logging
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_upscale import cli, macropnp, microdns
from pnp_upscale.cellcorrect import SolverError, SpectralPCG
from pnp_upscale.macropnp import GridOperators, MacroConfig, MacroState, picard_step
from pnp_upscale.microdns import assemble_micro_domain, step_micro_pnp
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


def picard(ops, v, u3, *args):
    """picard_step from the start (v, u3), handed over in a new list, which
    the loop empties, so that the caller's arguments serve again."""
    return picard_step(ops, [list(v), u3], *args)


def step_config(dt, **settings):
    """The settings of one step of ``dt``."""
    return MacroConfig(dt=dt, t_end=dt, **settings)


def lin_tol_loop(*args):
    """The loop with no forced iteration: every solve runs to lin_tol."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(macropnp, "FORCED_ITERATIONS", 0)
        return picard(*args)


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
        v, u3, info = picard(*args)
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
    return ops, v, np.zeros(mask.shape), [w / dt for w in v], -np.eye(mask.ndim)


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
    return ops, v, np.zeros((m,) * dim), [0.8 / dt * w for w in v], A


# a loose picard_tol lets a forced iteration pass the increment test, which
# must not end the loop
@settings(max_examples=30)
@given(random_masks(), st.floats(0.25, 100.0), st.floats(1e-4, 1e-2),
       st.sampled_from(["upwind", "central"]), st.sampled_from(["dirichlet", "noflux"]),
       st.sampled_from([1e-9, 1e-5]), st.integers(0, 2**32 - 1))
def test_dns_step_matches_the_lin_tol_loop(mask, alpha, dt, drift, bc, picard_tol, seed):
    args = dns_problem(mask, alpha, dt, seed)
    cfg = step_config(dt, drift=drift, bc=bc, picard_tol=picard_tol)
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
    cfg = step_config(dt, bc=bc, picard_tol=picard_tol)
    v, u3, info = forced_step(*args, cfg)
    ref, ref_u3, ref_info = lin_tol_loop(*args, cfg)
    assert rms_gap(v, ref) <= cfg.picard_tol
    assert info.picard_iters <= ref_info.picard_iters + 1
    assert np.abs(u3 - ref_u3).max() <= 1e-6 * np.abs(ref_u3).max()


def fixed_point(args, cfg):
    """The step's accepted densities and potential, and the step's arguments
    with them as the start."""
    ops, _, _, base, A = args
    v, u3, _ = picard(*args, cfg)
    return v, u3, (ops, v, u3, base, A)


@pytest.mark.parametrize("problem, dt", [
    (lambda dt: macro_problem(2, True, dt), 1e-3),
    (lambda dt: macro_problem(3, True, dt), 2e-2),
    (lambda dt: dns_problem(np.random.default_rng(1).random((24, 24)) > 0.2, 40.0, dt, 1), 1e-3),
    (lambda dt: dns_problem(np.random.default_rng(2).random((8, 8, 8)) > 0.2, 4.0, dt, 2), 1e-2),
], ids=["macro2d", "macro3d", "dns2d", "dns3d"])
def test_a_step_from_its_fixed_point(problem, dt):
    # the start passes every forced solve's stop at lin_tol, so the first
    # iteration is already a lin_tol one and the loop ends there
    cfg = step_config(dt, bc="noflux")
    fixed, _, args = fixed_point(problem(dt), cfg)
    v, _, info = forced_step(*args, cfg)
    assert info.picard_iters == 1
    assert rms_gap(v, fixed) <= cfg.picard_tol
    # a cap of 1 or 2 accepts it too, and never forces the iteration at the cap
    for cap in (1, 2):
        capped = step_config(dt, bc="noflux", picard_cap=cap)
        v, _, info = forced_step(*args, capped)
        assert info.picard_iters == 1 and rms_gap(v, fixed) <= cfg.picard_tol


@pytest.mark.parametrize("problem", [
    lambda dt: macro_problem(2, True, dt),
    lambda dt: dns_problem(np.random.default_rng(3).random((24, 24)) > 0.2, 40.0, dt, 3),
], ids=["macro2d", "dns2d"])
def test_small_caps(problem):
    dt = 1e-3
    cfg = step_config(dt, bc="noflux")
    fixed, u3, (ops, _, _, base, A) = fixed_point(problem(dt), cfg)
    # a start near the fixed point: its second iteration, the one at cap 2,
    # runs to lin_tol and is accepted
    rng = np.random.default_rng(0)
    near = [w * (1.0 + 1e-7 * rng.standard_normal(w.shape)) for w in fixed]
    args = (ops, near, u3, base, A)
    ref, _, ref_info = lin_tol_loop(*args, cfg)
    assert ref_info.picard_iters == 2
    v, _, info = forced_step(*args, step_config(dt, bc="noflux", picard_cap=2))
    assert info.picard_iters == 2
    assert rms_gap(v, ref) <= cfg.picard_tol and rms_gap(v, fixed) <= cfg.picard_tol
    # cap 1 from there: the unforced first iteration does not pass, as in
    # the lin_tol loop
    with pytest.raises(SolverError, match="within 1 iterations"):
        picard(*args, step_config(dt, bc="noflux", picard_cap=1))
    with pytest.raises(SolverError, match="within 1 iterations"):
        lin_tol_loop(*args, step_config(dt, bc="noflux", picard_cap=1))


def test_each_iteration_logs_one_record(caplog):
    args = macro_problem(2, True, 1e-3)
    with caplog.at_level(logging.DEBUG, logger="pnp_upscale.macropnp"):
        _, _, info = picard(*args, step_config(1e-3))
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
    state = MacroState(u1=n, u2=1.0 * dom.mask, u3=np.zeros(dom.mask.shape))
    with recorded_solves() as calls:
        _, info = step_micro_pnp(state, dom, MacroConfig(dt=1e-3, t_end=1e-3))
    assert len(info["cg_iters"]) == info["picard_iters"] == len(info["increments"]) >= 3
    assert [it for counts in info["cg_iters"] for it in counts] == [it for _, _, it in calls[:-1]]


# ---------------------------------------------------------------------------
# thin Debye layers: ROADMAP item 8's table (16^2 disc cell, alpha 4, 32^2
# macro grid, s = 1/2, asymmetric data of amplitude 0.5, noflux and upwind,
# 3 steps)


def debye_config(tmp_path, lam, dt):
    config = tmp_path / "debye.cfg"
    config.write_text(
        "cell.kind = disc\ncell.dim = 2\ncell.resolution = 16\ncell.radius = 0.25\n"
        f"physics.lambda = {lam}\nphysics.alpha = 4.0\n"
        f"macro.resolution = 32\nmacro.dt = {dt}\nmacro.t_end = {3 * dt!r}\n"
        "macro.bc = noflux\nmacro.drift = upwind\n"
        "macro.init = asymmetric\nmacro.init_amplitude = 0.5\nmicro.s = 1/2\n"
        f"output.snapshots = {3 * dt!r}\n"
    )
    return config


def run_debye_cell(tmp_path, monkeypatch, command, lam, dt):
    """Exit code and the Picard count of every step of one table cell."""
    config = debye_config(tmp_path, lam, dt)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command == "macro":
        tensors = tmp_path / "tensors.json"
        assert cli.main(["upscale", "--config", str(config), "--out", str(tensors)]) == 0
        argv += ["--tensors", str(tensors)]
    counts = []
    module = macropnp if command == "macro" else microdns
    step = module.picard_step

    def counting(*args):
        v, u3, info = step(*args)
        counts.append(info.picard_iters)
        return v, u3, info

    monkeypatch.setattr(module, "picard_step", counting)
    return cli.main(argv), counts


# per lambda and command: {dt: Picard count of each step} where the loop
# converges, "cap" where it reaches picard_cap, "diverges" where it used to
# run until the values overflowed and CG broke down
DEBYE_TABLE = {
    (0.1, "macro"): {1e-2: "cap", 3e-3: [17, 16, 15], 1e-3: [9, 9, 8], 3e-4: [6, 6, 5],
                     1e-4: [5, 5, 4], 3e-5: [4, 4, 3]},
    (0.1, "micro"): {1e-2: "cap", 3e-3: [19, 19, 17], 1e-3: [9, 10, 9], 3e-4: [7, 7, 6],
                     1e-4: [6, 6, 5], 3e-5: [5, 4, 4]},
    (0.03, "macro"): {1e-2: "diverges", 3e-3: "diverges", 1e-3: "diverges",
                      3e-4: [21, 20, 19], 1e-4: [10, 10, 9], 3e-5: [6, 6, 5]},
    (0.03, "micro"): {1e-2: "diverges", 3e-3: "diverges", 1e-3: "diverges",
                      3e-4: [42, 42, 37], 1e-4: [12, 12, 11], 3e-5: [9, 8, 7]},
    (0.01, "macro"): {**dict.fromkeys([1e-2, 3e-3, 1e-3, 3e-4, 1e-4], "diverges"),
                      3e-5: [19, 19, 17]},
    (0.01, "micro"): {**dict.fromkeys([1e-2, 3e-3, 1e-3, 3e-4, 1e-4], "diverges"),
                      3e-5: "cap"},
    # the increments grow about 10^6-fold per iteration (12, 1.1e6, 1.4e15 at
    # lambda 0.001) and the values overflow inside a CG solve of iteration 4,
    # before a third growing increment
    (0.001, "micro"): {1e-2: "diverges"},
    (1e-4, "micro"): {1e-2: "diverges", 1e-3: "diverges"},
}


def debye_cells(kind):
    """(command, lambda, dt, result) of every cell that "diverges", reaches
    the "cap" or "converges"."""
    return [(command, lam, dt, result) for (lam, command), row in DEBYE_TABLE.items()
            for dt, result in row.items()
            if kind == (result if isinstance(result, str) else "converges")]


@pytest.mark.parametrize("command, lam, dt, _", debye_cells("diverges"))
def test_diverging_loop_names_its_cause(tmp_path, monkeypatch, capsys, command, lam, dt, _):
    # at lambda 0.03, dt 1e-3 the macro increments grow 0.109, 0.134, 0.173,
    # 0.219: the loop stops there, and not once values overflow into a CG
    # breakdown that advised raising solver.tol
    code, _ = run_debye_cell(tmp_path, monkeypatch, command, lam, dt)
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "SolverError"
    assert record["message"].startswith("Picard loop diverged: increments ")
    # the command adds the ratio that the Picard step cannot know
    assert record["message"].endswith(f"; reduce dt; lambda^2/dt = {lam ** 2 / dt:.3g}")


@pytest.mark.parametrize("lam, dt", [(1e-4, 1e-2), (1e-4, 1e-3), (1e-3, 1e-2)])
def test_an_overflowing_loop_writes_only_its_record(tmp_path, lam, dt):
    # the residual overflows the float32 cast of the DNS preconditioner; in a
    # fresh process numpy's warning would reach stderr ahead of the record
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "pnp_upscale.cli", "micro",
         "--config", str(debye_config(tmp_path, lam, dt)), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "SolverError"
    assert record["message"].startswith("Picard loop diverged: increments ")


@pytest.mark.parametrize("command, lam, dt, counts", debye_cells("converges"))
def test_converging_loops_keep_their_counts(tmp_path, monkeypatch, command, lam, dt, counts):
    assert run_debye_cell(tmp_path, monkeypatch, command, lam, dt) == (0, counts)


@pytest.mark.parametrize("command, lam, dt, _", debye_cells("cap"))
def test_loops_at_the_cap_still_say_so(tmp_path, monkeypatch, capsys, command, lam, dt, _):
    assert run_debye_cell(tmp_path, monkeypatch, command, lam, dt) == (3, [])
    record = json.loads(capsys.readouterr().err)
    assert record["message"].startswith("Picard loop did not contract within 50 iterations")


def test_a_non_finite_increment_stops_the_loop_at_once(monkeypatch):
    # the second species' first diffusion solve returns NaN: the loop stops
    # in that iteration, whichever species carries the NaN
    solve = SpectralPCG.solve
    calls = []

    def poisoned(self, b, tol, x0=None, reduction=0.0):
        x, cert, it = solve(self, b, tol, x0, reduction)
        calls.append(it)
        return (np.full_like(x, np.nan) if len(calls) == 3 else x), cert, it

    monkeypatch.setattr(SpectralPCG, "solve", poisoned)
    with pytest.raises(SolverError, match=r"^Picard loop diverged: increments nan at "
                                          r"iteration 1; reduce dt$"):
        picard(*macro_problem(2, True, 1e-3), step_config(1e-3))


@pytest.mark.parametrize("fail_at, grown", [(7, True), (4, False)])
def test_a_solve_failing_after_a_grown_increment_is_divergence(monkeypatch, fail_at, grown):
    # iteration 2's densities are scaled up, so its increment grows over
    # iteration 1's; a solve failing after that is the loop's divergence,
    # chained to the solver's error, while one failing before it (iteration
    # 2's potential, call 4) keeps the solver's own message
    solve = SpectralPCG.solve
    calls = []
    overflow = SolverError("CG breakdown: p.Ap = inf is not finite; the values overflowed")

    def growing(self, b, tol, x0=None, reduction=0.0):
        calls.append(None)
        if len(calls) == fail_at:
            raise overflow
        x, cert, it = solve(self, b, tol, x0, reduction)
        return (1e3 * x if len(calls) in (5, 6) else x), cert, it

    monkeypatch.setattr(SpectralPCG, "solve", growing)
    with pytest.raises(SolverError) as err:
        picard(*macro_problem(2, True, 1e-3), step_config(1e-3))
    if grown:
        assert str(err.value).startswith("Picard loop diverged: increments ")
        assert str(err.value).endswith(" at iteration 3; reduce dt")
        assert err.value.__cause__ is overflow
    else:
        assert err.value is overflow
