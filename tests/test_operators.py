"""Operator ownership: each run or DNS domain factorizes its operators once,
and the spans the benchmark tracer records still appear."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pnp_upscale import _fv
from pnp_upscale.cli import run_validation
from pnp_upscale.config import RunConfig
from pnp_upscale.macropnp import MacroConfig, MacroState, run_macro
from pnp_upscale.upscale import EffectiveTensors

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def factorizations(monkeypatch):
    """Every PinnedNeumannSolver and FactorizedSolver built during the test."""
    made = {"poisson": [], "diffusion": []}
    for cls, key in ((_fv.PinnedNeumannSolver, "poisson"),
                     (_fv.FactorizedSolver, "diffusion")):
        def counting(self, A, _init=cls.__init__, _key=key):
            made[_key].append(self)
            _init(self, A)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


def _tensors(eps0):
    return EffectiveTensors(dim=2, p=0.8, eps0=np.asarray(eps0), M=np.eye(2),
                            Hhat=0.1 * np.eye(2))


def test_run_macro_factorizes_once(factorizations):
    m = 16
    c = (np.arange(m) + 0.5) / m
    X, _ = np.meshgrid(c, c, indexing="ij")
    init = MacroState(u1=1 + 0.3 * np.sin(np.pi * X), u2=np.ones((m, m)),
                      u3=np.zeros((m, m)))
    cfg = MacroConfig(dt=1e-3, t_end=5e-3)
    _, rows = run_macro(cfg, _tensors(np.eye(2)), init)
    assert len(rows) == 5 and all(r.picard_iters > 0 for r in rows)
    assert len(factorizations["poisson"]) == 1
    assert len(factorizations["diffusion"]) == 1
    # a second run with another eps0 owns fresh operators, diffusion included
    run_macro(cfg, _tensors([[2.0, 0.3], [0.3, 1.0]]), init)
    assert len(factorizations["poisson"]) == 2
    assert len(factorizations["diffusion"]) == 2


def test_validation_factorizes_once_per_grid(factorizations):
    cfg = RunConfig(
        cell_kind="laminate", cell_dim=2, cell_resolution=8, cell_fraction=0.5,
        lam=1.0, alpha=4.0, macro_resolution=16, macro_dt=1e-3, macro_t_end=3e-3,
        micro_s=(Fraction(1, 2), Fraction(1, 4)),
    )
    run_validation(cfg)
    # the macro grid plus one DNS grid per scale ratio
    assert len(factorizations["poisson"]) == 3
    assert len(factorizations["diffusion"]) == 3


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
    # perfbench/tracing.py wraps module attributes by name and reads the
    # Picard count from each step's result; a rename silently drops spans
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
    for name in ("fv.assemble", "fv.factor", "macropnp.step", "microdns.step"):
        assert name in names
    metrics = result["metrics"]
    assert metrics["macropnp.steps"] == 2 and metrics["microdns.steps"] == 2
    assert metrics["macropnp.picard_iters"] > 0
    assert metrics["microdns.picard_iters"] > 0
    assert metrics["fv.factor_count"] == 4
