"""Operator ownership: each run or DNS domain builds its solvers once, every
grid gets the box CG, and the spans the benchmark tracer records still
appear."""

import json
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pnp_upscale import _fv
from pnp_upscale.cellcorrect import SpectralPCG
from pnp_upscale.cli import run_validation
from pnp_upscale.config import RunConfig
from pnp_upscale.macropnp import MacroConfig, MacroState, run_macro
from pnp_upscale.upscale import EffectiveTensors

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def solvers(monkeypatch):
    """(class name, unknowns) of every Poisson and diffusion solver built
    during the test, SuperLU oracles and box-grid CG solvers alike."""
    made = {"poisson": [], "diffusion": []}

    def record(cls, kind_of):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            kind = kind_of(self)
            if kind is not None:
                unknowns = self.A.shape[0] if hasattr(self, "A") else int(np.prod(self.shape))
                made[kind].append((cls.__name__, unknowns))

        monkeypatch.setattr(cls, "__init__", counting)

    record(_fv.PinnedNeumannSolver, lambda self: "poisson")
    record(_fv.FactorizedSolver, lambda self: "diffusion")
    # the periodic cell solves are not box-grid operators
    record(SpectralPCG, lambda self: None if self.bc == "periodic" else
           "poisson" if self.singular else "diffusion")
    return made


def _tensors(eps0):
    return EffectiveTensors(p=0.8, eps0=np.asarray(eps0), M=np.eye(2),
                            Hhat=0.1 * np.eye(2))


def test_run_macro_factorizes_once(solvers):
    m = 16
    c = (np.arange(m) + 0.5) / m
    X, _ = np.meshgrid(c, c, indexing="ij")
    init = MacroState(u1=1 + 0.3 * np.sin(np.pi * X), u2=np.ones((m, m)),
                      u3=np.zeros((m, m)))
    cfg = MacroConfig(dt=1e-3, t_end=5e-3)
    _, rows = run_macro(cfg, _tensors(np.eye(2)), init)
    assert len(rows) == 5 and all(r["picard_iters"] > 0 for r in rows)
    # the macro grid is never factorized: one box CG solver per operator
    assert solvers["poisson"] == [("SpectralPCG", m * m)]
    assert solvers["diffusion"] == [("SpectralPCG", m * m)]
    # a second run with another eps0 owns fresh solvers, diffusion included
    run_macro(cfg, _tensors([[2.0, 0.3], [0.3, 1.0]]), init)
    assert solvers["poisson"] == [("SpectralPCG", m * m)] * 2
    assert solvers["diffusion"] == [("SpectralPCG", m * m)] * 2


def test_validation_factorizes_once_per_grid(solvers):
    # the box CG on every grid, 2D DNS grids included; nothing factorizes
    for dim in (2, 3):
        cfg = RunConfig(
            cell_kind="laminate", cell_dim=dim, cell_resolution=4,
            cell_fraction=0.5, lam=1.0, alpha=4.0, macro_resolution=8,
            macro_dt=1e-3, macro_t_end=2e-3,
            micro_s=(Fraction(1, 2), Fraction(1, 3)),
        )
        solvers["poisson"].clear()
        solvers["diffusion"].clear()
        run_validation(cfg)
        # the macro grid, then one DNS grid per scale ratio
        for kind in ("poisson", "diffusion"):
            assert solvers[kind] == [("SpectralPCG", n**dim) for n in (8, 8, 12)]


def test_only_the_kernel_check_builds_scipy_matrices(monkeypatch):
    # every box operator is the holder that assembly builds, and its norm a
    # product of that holder; the DIA kernel's check, which runs here once,
    # compares the kernel with a numpy product: with the kernel present, a
    # validate run constructs no scipy.sparse matrix
    import scipy.sparse

    stacks = []
    init = scipy.sparse._base._spbase.__init__

    def recording(self, *args, **kwargs):
        stacks.append({frame.f_code.co_name for frame, _ in traceback.walk_stack(None)})
        init(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", recording)
    _fv.dia_kernel.cache_clear()
    cfg = RunConfig(
        cell_kind="disc", cell_dim=2, cell_resolution=8, cell_radius=0.25, lam=1.0,
        alpha=4.0, macro_resolution=8, macro_dt=1e-3, macro_t_end=2e-3,
        micro_s=(Fraction(1, 2),),
    )
    run_validation(cfg)
    assert _fv.dia_kernel() is not None
    assert stacks == []


TRACED_VALIDATE = """
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from pnp_upscale import cli
tracer = tracing.Tracer()
tracing.install(tracer)
t0 = time.perf_counter()
code = cli.main(["validate", "--config", sys.argv[3], "--out", sys.argv[4]])
metrics = tracing.command_layer_metrics(tracer.spans, time.perf_counter() - t0)
print(json.dumps({"code": code, "names": sorted({s[0] for s in tracer.spans}),
                  "metrics": metrics}))
"""


def test_benchmark_tracer_contract(tmp_path):
    # perfbench/tracing.py wraps module attributes by name, reads the
    # Picard count from each step's result and parses the corrector solver's
    # debug record for iteration counts; a rename or a reworded record
    # silently drops spans or zeroes counters
    config = tmp_path / "run.cfg"
    config.write_text(
        "cell.kind = disc\ncell.dim = 2\ncell.resolution = 8\ncell.radius = 0.25\n"
        "physics.alpha = 4.0\nmacro.resolution = 16\nmacro.dt = 1e-3\n"
        "macro.t_end = 2e-3\nmicro.s = 1/2\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VALIDATE, str(ROOT / "perfbench"),
         str(ROOT / "src"), str(config), str(tmp_path / "report.csv")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    names = set(result["names"])
    for name in ("fv.assemble", "macropnp.step", "microdns.step"):
        assert name in names
    # no grid factorizes: the tracer's SuperLU spans stay empty
    assert "fv.factor" not in names
    metrics = result["metrics"]
    assert metrics["macropnp.steps"] == 2 and metrics["microdns.steps"] == 2
    assert metrics["macropnp.picard_iters"] > 0
    assert metrics["microdns.picard_iters"] > 0
    assert metrics["fv.factor_count"] == 0 and metrics["fv.lu_nnz"] == 0
    # xi3 per direction plus the four zeta3 components of a 2D cell; eta is
    # taken in closed form, inside its own span, with no CG solve
    assert "cellcorrect.eta" in names
    assert metrics["cellcorrect.solves"] == 6
    assert metrics["cellcorrect.eta_iters"] == 0
    for family in ("xi3", "zeta3"):
        assert metrics[f"cellcorrect.{family}_iters"] > 0
