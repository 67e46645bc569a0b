"""Where each time step's Picard loop starts: ``macropnp.march``, the time
loop of ``run_macro`` and ``run_micro``, its linear predictor and the clip at
zero, and the warm first potential of a step from a stepped state."""

from fractions import Fraction

import numpy as np
import pytest

from pnp_upscale import macropnp
from pnp_upscale.cellcorrect import SpectralPCG
from pnp_upscale.macropnp import (
    MacroConfig,
    MacroState,
    run_macro,
    step_macro_pnp,
)
from pnp_upscale.microdns import assemble_micro_domain, run_micro, step_micro_pnp
from pnp_upscale.unitcell import build_unit_cell
from pnp_upscale.upscale import EffectiveTensors

from conftest import CONTRAST


@pytest.fixture
def box_iterations(monkeypatch):
    """Iterations of every solve, read from the returned (x, certificate,
    iterations) triples, in call order."""
    counts = []
    solve = SpectralPCG.solve

    def counting(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        counts.append(result[2])
        return result

    monkeypatch.setattr(SpectralPCG, "solve", counting)
    return counts


def macro_tensors(dim, full):
    eps0 = np.diag([1.0, 1.5, 0.7][:dim])
    if full:
        eps0 = eps0 + 0.3 * (np.ones((dim, dim)) - np.eye(dim))
    # Hhat - M carries the off-diagonals of eps0 into the drift
    return EffectiveTensors(p=0.8, eps0=eps0, M=0.9 * np.eye(dim), Hhat=0.2 * eps0)


def blob(m, dim, center, amplitude):
    c = (np.arange(m) + 0.5) / m
    r2 = sum((g - x0) ** 2 for g, x0 in zip(np.meshgrid(*([c] * dim), indexing="ij"), center))
    return 1.0 + amplitude * np.exp(-20.0 * r2)


def max_rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_march_starts_from_init_then_the_first_state_then_the_predictor():
    # accepted step k holds u1 = k^2, u2 = 5/k, u3 = -k on every cell
    init = MacroState.zero(3)
    calls = []

    def step(held, start):
        calls.append((held.pop(), start))
        k = len(calls)
        return MacroState(u1=np.full(3, k * k), u2=np.full(3, 5.0 / k), u3=np.full(3, -k),
                          t=float(k)), f"info {k}"

    accepted = list(macropnp.march(step, init, 4))
    assert [info for _, info in accepted] == ["info 1", "info 2", "info 3", "info 4"]
    assert [state for state, _ in calls] == [init] + [state for state, _ in accepted[:3]]
    assert calls[0][1] is None and calls[1][1] is None
    # max(2 v^n - v^(n-1), 0) per species and 2 u3^n - u3^(n-1)
    for (_, (v, u3)), expect in zip(calls[2:], [(7.0, 0.0, -3.0), (14.0, 5.0 / 6.0, -4.0)]):
        assert [float(v[0][0]), float(v[1][0]), float(u3[0])] == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
@pytest.mark.parametrize("bc", ["dirichlet", "noflux"])
@pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
def test_macro_predictor_reaches_the_same_fixed_point(dim, m, bc, full, box_iterations):
    tensors = macro_tensors(dim, full)
    cfg = MacroConfig(dt=2e-3, t_end=16e-3, bc=bc)
    u1 = blob(m, dim, (0.3, 0.6, 0.5), 0.8)
    init = MacroState(u1=u1, u2=np.ones_like(u1), u3=np.zeros_like(u1))
    final, rows = run_macro(cfg, tensors, init)
    predicted = sum(box_iterations)
    box_iterations.clear()
    state, picard = init, 0
    for _ in rows:  # the same steps, each from the last state
        state, info = step_macro_pnp(state, tensors, cfg)
        picard += info.picard_iters
    assert max_rel(final.u1, state.u1) <= 10 * cfg.picard_tol
    assert max_rel(final.u2, state.u2) <= 10 * cfg.picard_tol
    assert sum(row["picard_iters"] for row in rows) <= picard
    assert predicted < sum(box_iterations)


@pytest.mark.parametrize("bc", ["dirichlet", "noflux"])
def test_dns_predictor_reaches_the_same_fixed_point(bc, box_iterations):
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 8)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    n1 = blob(dom.resolution, 2, (0.3, 0.6), 0.8) * dom.mask
    init = MacroState(u1=n1, u2=1.0 * dom.mask, u3=np.zeros(dom.mask.shape))
    cfg = MacroConfig(dt=1e-3, t_end=8e-3, bc=bc)
    final, rows = run_micro(dom, init, cfg)
    predicted = sum(box_iterations)
    box_iterations.clear()
    state, picard = init, 0
    for _ in rows:
        state, info = step_micro_pnp(state, dom, cfg)
        picard += info["picard_iters"]
    assert max_rel(final.u1, state.u1) <= 10 * cfg.picard_tol
    assert max_rel(final.u2, state.u2) <= 10 * cfg.picard_tol
    assert sum(row["picard_iters"] for row in rows) <= picard
    assert predicted < sum(box_iterations)


def test_predictor_is_clipped_at_zero(monkeypatch):
    # Dirichlet densities near the wall fall by more than half in a long
    # step, so their linear extrapolation goes negative; the third step must
    # start from nonnegative densities and pass the upwind check
    m = 16
    tensors = macro_tensors(2, True)
    cfg = MacroConfig(dt=2e-2, t_end=6e-2, bc="dirichlet", drift="upwind")
    u1 = blob(m, 2, (0.3, 0.6), 0.8)
    init = MacroState(u1=u1, u2=np.ones_like(u1), u3=np.zeros_like(u1))
    starts, accepted = [], []
    picard_step = macropnp.picard_step

    def recording(ops, start, *args):
        starts.append(start[0])
        result = picard_step(ops, start, *args)
        accepted.append(result[0])
        return result

    monkeypatch.setattr(macropnp, "picard_step", recording)
    _, rows = run_macro(cfg, tensors, init)
    assert len(rows) == 3
    for r in range(2):
        assert (2.0 * accepted[1][r] - accepted[0][r]).min() < 0.0
        assert starts[2][r].min() == 0.0
        assert accepted[2][r].min() >= macropnp.NEGATIVE_DENSITY_TOL


def test_step_from_a_stepped_state_solves_its_first_potential_in_no_iteration(
        box_iterations):
    # a stepped state carries the potential of its densities, so the next
    # step's first potential solve starts converged
    m = 16
    tensors = macro_tensors(2, True)
    cfg = MacroConfig(dt=1e-3, t_end=1e-3, bc="noflux")
    u1 = blob(m, 2, (0.3, 0.6), 0.8)
    init = MacroState(u1=u1, u2=np.ones_like(u1), u3=np.zeros_like(u1))
    ops = macropnp.GridOperators(u1.shape, tensors.p, tensor=tensors.eps0)
    state, _ = step_macro_pnp(init, tensors, cfg, ops=ops)
    assert box_iterations[0] > 0  # the initial u3 is zeros, not a solve
    box_iterations.clear()
    step_macro_pnp(state, tensors, cfg, ops=ops)
    assert box_iterations[0] == 0

    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 8)
    dom = assemble_micro_domain(cell, CONTRAST, Fraction(1, 2))
    n1 = blob(dom.resolution, 2, (0.3, 0.6), 0.8) * dom.mask
    dns_cfg = MacroConfig(dt=1e-3, t_end=1e-3)
    micro, _ = step_micro_pnp(MacroState(u1=n1, u2=1.0 * dom.mask,
                                         u3=np.zeros(dom.mask.shape)),
                              dom, dns_cfg)
    box_iterations.clear()
    step_micro_pnp(micro, dom, dns_cfg)
    assert box_iterations[0] == 0
