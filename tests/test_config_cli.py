import contextlib
import csv
import io
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnp_upscale
from pnp_upscale import cli
from pnp_upscale.cellcorrect import SolverError
from pnp_upscale.cli import main, initial_density_fields
from pnp_upscale.config import KEYS, ConfigError, load_config
from pnp_upscale.fieldio import atomic_write_text, format_field, read_field
from pnp_upscale.macropnp import GridOperators
from pnp_upscale.unitcell import build_unit_cell, write_mask_file
from pnp_upscale.upscale import EffectiveTensors

import oracles


BASE_CFG = """\
cell.kind = full
cell.dim = 2
cell.resolution = 8
physics.lambda = 0.1
physics.alpha = 1.0
macro.resolution = 16
macro.dt = 1e-3
macro.t_end = 3e-3
micro.s = 1/2 1/4
output.snapshots = 0.003
"""


@pytest.fixture()
def base_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_minimal_config_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("# nothing but a comment\n")
    cfg = load_config(path)
    assert cfg.solver_tol == 1e-10
    assert cfg.macro_picard_cap == 50
    assert cfg.cell_kind == "full"
    assert cfg.micro_s == (Fraction(1, 2),)
    assert cfg.config_hash


def test_range_error_names_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("physics.lambda = -1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "physics.lambda" in str(err.value)
    assert "line 1" in str(err.value)


def test_duplicate_cites_both_lines(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("cell.resolution = 8\n\ncell.resolution = 16\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "line 3" in msg and "line 1" in msg and "duplicate" in msg


def test_unknown_key(tmp_path):
    path = tmp_path / "unk.cfg"
    path.write_text("does.not.exist = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_all_errors_collected(tmp_path):
    path = tmp_path / "multi.cfg"
    path.write_text("physics.alpha = 0\nnope = 1\ncell.kind = torus\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert len(err.value.errors) == 3


def test_scale_ratio_validation(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("micro.s = 2/3\n")
    with pytest.raises(ConfigError, match="inverse of an integer"):
        load_config(path)


def test_conditional_requirements(tmp_path):
    path = tmp_path / "lam.cfg"
    path.write_text("cell.kind = laminate\n")
    with pytest.raises(ConfigError, match="cell.fraction"):
        load_config(path)
    path.write_text("cell.kind = mask\ncell.mask_path = missing.mask\n")
    with pytest.raises(ConfigError, match="not found"):
        load_config(path)
    path.write_text("macro.dt = 1e-2\nmacro.t_end = 1e-3\n")
    with pytest.raises(ConfigError, match="t_end"):
        load_config(path)


@pytest.mark.parametrize("text, error", [
    ("cell.kind = laminate\ncell.fraction = 1.5\n",
     "line 2: cell.fraction: must be in (0, 1], got 1.5"),
    ("cell.kind = disc\ncell.radius = 0.75\n",
     "line 2: cell.radius: must be in (0, 0.5], got 0.75"),
    ("macro.init_amplitude = -1\n",
     "line 1: macro.init_amplitude: must sit in (-1, 1) to keep densities positive, got -1.0"),
], ids=["fraction", "radius", "amplitude"])
def test_a_rejected_value_is_reported_once_by_its_key(tmp_path, text, error):
    # a required key that the file set is rejected, not missing
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.errors == [error]


@pytest.mark.parametrize("dt, t_end", [(1e-3, 0.05), (1e-3, 0.003), (1e-3, 3e-3), (0.1, 0.3)])
def test_whole_step_end_times_accepted(tmp_path, dt, t_end):
    path = tmp_path / "t.cfg"
    path.write_text(f"macro.dt = {dt}\nmacro.t_end = {t_end}\n")
    cfg = load_config(path)
    assert (cfg.macro_dt, cfg.macro_t_end) == (dt, t_end)


def test_end_time_between_steps_rejected(tmp_path, capsys):
    # the run makes round(t_end / dt) steps: 2.5e-3 would stop at t = 2e-3
    path = tmp_path / "t.cfg"
    path.write_text("macro.dt = 1e-3\nmacro.t_end = 2.5e-3\n")
    assert main(["upscale", "--config", str(path), "--out", str(tmp_path / "t.json")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("line 2: macro.t_end")
    assert "whole number of macro.dt" in record["message"]


def test_an_infinite_end_time_is_a_config_error(tmp_path):
    path = tmp_path / "t.cfg"
    path.write_text("macro.t_end = inf\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.errors == [
        "line 1: macro.t_end (inf) must be a whole number of macro.dt (0.0001) steps"]


# RunConfig's defaults changed before the library is imported: every library
# default must follow, since each reads its RunConfig field
DEFAULTS = """
import inspect
from pnp_upscale.config import RunConfig
changed = dict(macro_picard_tol=2e-9, macro_picard_cap=7, macro_drift="central",
               macro_bc="noflux", solver_tol=3e-11, macro_loceq_window=5,
               solver_second_order=False, micro_budget=12345)
for name, value in changed.items():
    setattr(RunConfig, name, value)
from pnp_upscale import cellcorrect, microdns
from pnp_upscale.macropnp import MacroConfig
from pnp_upscale.upscale import compute_effective_tensors
cfg = MacroConfig(dt=1e-3, t_end=1e-3)
library = {"macro_picard_tol": cfg.picard_tol, "macro_picard_cap": cfg.picard_cap,
           "macro_drift": cfg.drift, "macro_bc": cfg.bc, "solver_tol": cfg.lin_tol,
           "macro_loceq_window": cfg.loceq_window, "micro_budget": microdns.DEFAULT_CELL_BUDGET}
params = inspect.signature(compute_effective_tensors).parameters
assert library == {name: changed[name] for name in library}, library
assert cellcorrect.DEFAULT_TOL == params["tol"].default == changed["solver_tol"]
assert params["second_order"].default is False
"""


def test_library_defaults_are_the_run_config_defaults():
    src = os.path.dirname(os.path.dirname(pnp_upscale.__file__))
    proc = subprocess.run([sys.executable, "-c", DEFAULTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("snapshots, bad", [
    ("0.0005 0.003 0.0035", None),  # the window's ends snap to steps 1 and 3
    ("0.004", "0.004"),  # beyond the last step: it was dropped
    ("0.001 0.0004", "0.0004"),  # nearer t = 0, which is no step
])
def test_snapshot_times_must_snap_to_a_step(tmp_path, snapshots, bad):
    path = tmp_path / "s.cfg"
    path.write_text(f"macro.dt = 1e-3\nmacro.t_end = 3e-3\noutput.snapshots = {snapshots}\n")
    if bad is None:
        assert len(load_config(path).output_snapshots) == len(snapshots.split())
        return
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.errors == [
        f"line 3: output.snapshots time {bad} lies outside [macro.dt/2, macro.t_end + "
        "macro.dt/2] = [0.0005, 0.0035], where the run snaps a time to its nearest step"]


#: a value that each key of the table rejects; output.dir is free text
REJECTED = {
    "cell.kind": "torus", "cell.dim": "4", "cell.resolution": "3", "cell.fraction": "1.5",
    "cell.axis": "-1", "cell.radius": "0.75", "cell.mask_path": "missing.mask",
    "physics.lambda": "1e200", "physics.alpha": "0", "solver.tol": "1",
    "solver.second_order": "maybe", "macro.resolution": "2", "macro.dt": "-1e-3",
    "macro.t_end": "2.5e-4", "macro.bc": "periodic", "macro.drift": "sideways",
    "macro.picard_tol": "0", "macro.picard_cap": "0", "macro.init": "cosine",
    "macro.init_amplitude": "1.0", "macro.loceq_window": "0", "micro.s": "1/0",
    "micro.budget": "0", "micro.fail_threshold": "-1", "output.snapshots": "1.0",
}


def test_every_key_has_a_rejected_value():
    assert set(REJECTED) == set(KEYS) - {"output.dir"}


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_every_key_is_checked(tmp_path, capsys, key):
    # under the (key, value) it takes effect with, if any, so that the
    # key's own check rejects it
    owner = KEYS[key].metadata["only_with"]
    entries = ([owner] if owner else []) + [(key, REJECTED[key])]
    text = "".join(f"{k} = {v}\n" for k, v in entries)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["upscale", "--config", str(path), "--out", str(tmp_path / "t.json")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert f"line {len(entries)}: " in record["message"]


#: the base run of test_every_key_takes_effect: an 8^2 disc cell at alpha = 4
#: (so that the correctors are not zero), an 8^2 macro grid, 2 steps and one
#: DNS at s = 1/2
EFFECT_BASE = {
    "cell.kind": "disc", "cell.dim": "2", "cell.resolution": "8", "cell.radius": "0.25",
    "physics.alpha": "4", "macro.resolution": "8", "macro.dt": "1e-3", "macro.t_end": "2e-3",
    "micro.s": "1/2", "output.dir": "out",
}
LAMINATE = {"cell.kind": "laminate", "cell.radius": None, "cell.fraction": "0.5"}

#: key or flag -> (command, the setting it needs, its value): a dict of
#: config entries (None drops one) or extra arguments; "{inputs}" is the
#: directory of the config file, the two mask files and a tensors file
EFFECTS = {
    "cell.kind": ("upscale", {}, LAMINATE),
    "cell.dim": ("upscale", {}, {"cell.dim": "3"}),
    "cell.resolution": ("upscale", {}, {"cell.resolution": "12"}),
    "cell.fraction": ("upscale", LAMINATE, {"cell.fraction": "0.25"}),
    "cell.axis": ("upscale", LAMINATE, {"cell.axis": "1"}),
    "cell.radius": ("upscale", {}, {"cell.radius": "0.375"}),
    "cell.mask_path": ("upscale", {"cell.kind": "mask", "cell.radius": None,
                                   "cell.mask_path": "a.mask"}, {"cell.mask_path": "b.mask"}),
    "physics.lambda": ("upscale", {}, {"physics.lambda": "0.5"}),
    "physics.alpha": ("upscale", {}, {"physics.alpha": "16"}),
    "solver.tol": ("upscale", {}, {"solver.tol": "1e-3"}),
    "solver.second_order": ("cell", {}, {"solver.second_order": "no"}),
    "macro.resolution": ("macro", {}, {"macro.resolution": "12"}),
    "macro.dt": ("macro", {}, {"macro.dt": "5e-4"}),
    "macro.t_end": ("macro", {}, {"macro.t_end": "1e-3"}),
    "macro.bc": ("macro", {}, {"macro.bc": "noflux"}),
    "macro.drift": ("macro", {}, {"macro.drift": "central"}),
    "macro.picard_tol": ("macro", {}, {"macro.picard_tol": "1e-2"}),
    "macro.picard_cap": ("macro", {}, {"macro.picard_cap": "1"}),
    "macro.init": ("macro", {}, {"macro.init": "eigenmode"}),
    "macro.init_amplitude": ("macro", {}, {"macro.init_amplitude": "0.25"}),
    "macro.loceq_window": ("macro", {}, {"macro.loceq_window": "2"}),
    "micro.s": ("micro", {}, {"micro.s": "1/3"}),
    "micro.budget": ("micro", {}, {"micro.budget": "64"}),  # 16^2 voxels: exit 3
    "micro.fail_threshold": ("validate", {}, {"micro.fail_threshold": "1e-12"}),  # exit 4
    "output.dir": ("upscale", {}, {"output.dir": "moved"}),
    "output.snapshots": ("macro", {}, {"output.snapshots": "1e-3"}),
    "--tensors": ("macro", {}, ("--tensors", "{inputs}/tensors.json")),
    "--verbose": ("upscale", {}, ("--verbose",)),
}


@pytest.fixture(scope="module")
def effect_run(tmp_path_factory):
    """(command, entries, extra arguments) -> (exit code, stderr, {output path:
    bytes}) of an in-process run, each run once.  The outputs leave out what
    echoes the config: provenance.json and the provenance of tensors.json."""
    runs = {}

    def run(command, entries, extra=()):
        entries = {k: v for k, v in entries.items() if v is not None}
        key = (command, tuple(sorted(entries.items())), extra)
        if key in runs:
            return runs[key]
        root = tmp_path_factory.mktemp("run")
        inputs = root / "inputs"
        inputs.mkdir()
        for name, radius in (("a.mask", 0.25), ("b.mask", 0.375)):
            write_mask_file(inputs / name, build_unit_cell(
                {"kind": "disc", "radius": radius, "dim": 2}, 8))
        eye = np.eye(2)
        atomic_write_text(inputs / "tensors.json", EffectiveTensors(
            p=0.5, eps0=eye, M=0.5 * eye, Hhat=np.zeros((2, 2))).to_json())
        entries = dict(entries, **{"output.dir": str(root / entries["output.dir"])})
        (inputs / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        argv = [command, "--config", str(inputs / "run.cfg"),
                *(arg.format(inputs=inputs) for arg in extra)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        outputs = {}
        for path in sorted(root.rglob("*")):
            if path.is_dir() or inputs in path.parents or path.name.endswith("provenance.json"):
                continue
            data = path.read_bytes()
            if path.name == "tensors.json":
                data = {k: v for k, v in json.loads(data).items() if k != "provenance"}
            outputs[str(path.relative_to(root))] = data
        runs[key] = code, err.getvalue(), outputs
        return runs[key]

    return run


@pytest.mark.parametrize("key", [*KEYS, "--tensors", "--verbose"])
def test_every_key_takes_effect(effect_run, key):
    # one non-default value, under the setting the key needs, changes the
    # command's output bytes, its exit code or its stderr
    assert key in EFFECTS, f"{key} has no case"
    command, needs, value = EFFECTS[key]
    base = effect_run(command, {**EFFECT_BASE, **needs})
    if isinstance(value, dict):
        changed = effect_run(command, {**EFFECT_BASE, **needs, **value})
    else:
        changed = effect_run(command, {**EFFECT_BASE, **needs}, value)
    assert base[0] == 0
    assert changed != base


#: loads a config that sets every key, then exits with the numpy modules imported
NUMPY_FREE = """\
import sys
from pnp_upscale.config import ConfigError, load_config
try:
    load_config(sys.argv[1])
except ConfigError as exc:
    print("\\n".join(exc.errors))
sys.exit(sorted(m for m in sys.modules if m.split(".")[0] == "numpy") or 0)
"""


def test_config_loads_without_numpy(tmp_path):
    (tmp_path / "cell.mask").write_text(block_mask_text(8))
    every = {
        "cell.kind": "mask", "cell.dim": "2", "cell.resolution": "8", "cell.fraction": "0.5",
        "cell.axis": "0", "cell.radius": "0.25", "cell.mask_path": "cell.mask",
        "physics.lambda": "0.5", "physics.alpha": "4", "solver.tol": "1e-8",
        "solver.second_order": "no", "macro.resolution": "16", "macro.dt": "1e-3",
        "macro.t_end": "2e-3", "macro.bc": "noflux", "macro.drift": "central",
        "macro.picard_tol": "1e-8", "macro.picard_cap": "9", "macro.init": "asymmetric",
        "macro.init_amplitude": "0.25", "macro.loceq_window": "2", "micro.s": "1/2 1/4",
        "micro.budget": "4096", "micro.fail_threshold": "0.5", "output.dir": "run_out",
        "output.snapshots": "1e-3 2e-3"}
    assert set(every) == set(KEYS)
    path = tmp_path / "every.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in every.items()))
    src = os.path.dirname(os.path.dirname(pnp_upscale.__file__))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE, str(path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    # every value parses and passes its check; three keys have no effect on a mask cell
    line = {key: n for n, key in enumerate(every, start=1)}
    assert proc.stdout.splitlines() == [
        f"line {line['cell.fraction']}: cell.fraction takes effect only with cell.kind = laminate",
        f"line {line['cell.axis']}: cell.axis takes effect only with cell.kind = laminate",
        f"line {line['cell.radius']}: cell.radius takes effect only with cell.kind = disc"]


LAMBDA_ALPHA = "cell.kind = disc\ncell.dim = 2\ncell.resolution = 16\ncell.radius = 0.25\n"


@pytest.mark.parametrize("line", ["physics.lambda = inf", "physics.alpha = inf",
                                  "physics.lambda = 1e200", "physics.lambda = 1e154",
                                  "physics.lambda = 1e-200"])
def test_a_coefficient_without_usable_faces_is_a_config_error(tmp_path, line):
    # lambda^2 and alpha each need a positive finite harmonic face mean
    # 2ab/(a+b) with themselves; in a subprocess, so that a numpy warning
    # printed before the error would show
    path = tmp_path / "run.cfg"
    path.write_text(LAMBDA_ALPHA + line + "\n")
    src = os.path.dirname(os.path.dirname(pnp_upscale.__file__))
    proc = subprocess.run([sys.executable, "-m", "pnp_upscale.cli", "upscale", "--config",
                           str(path), "--out", str(tmp_path / "t.json")], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    (record,) = proc.stderr.splitlines()
    record = json.loads(record)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"line 5: {line.split()[0]}: the harmonic face mean")
    assert "\n" not in record["message"]


@pytest.mark.parametrize("tol", ["1", "inf", "1.5"])
def test_a_tolerance_of_one_or_more_is_a_config_error(tmp_path, capsys, tol):
    # at x = 0 every certificate is at most 1: the solves would accept the
    # start and the run would write the coefficient's mean as eps0
    path = tmp_path / "run.cfg"
    path.write_text(LAMBDA_ALPHA + f"physics.alpha = 4.0\nsolver.tol = {tol}\n")
    for command in ("upscale", "validate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "t")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"] == (f"line 6: solver.tol: tolerance {float(tol)} lies outside "
                                     "(0, 1); at x = 0 every certificate is at most 1")


def block_mask_text(m=8):
    """Mask file of a 2D cell with a centered solid block, fluid connected."""
    solid = lambda i, j: m // 4 <= i < m // 2 and m // 4 <= j < m // 2  # noqa: E731
    values = ["0" if solid(i, j) else "1" for i in range(m) for j in range(m)]
    return "\n".join([f"2 {m}"] + values) + "\n"


DISC = "cell.kind = disc\ncell.radius = 0.25\n"


@pytest.mark.parametrize("key, value, base", [
    pytest.param("cell.fraction", "0.5", DISC, id="fraction"),
    pytest.param("cell.axis", "1", DISC, id="axis"),
    pytest.param("cell.radius", "0.25", "cell.kind = laminate\ncell.fraction = 0.5\n",
                 id="radius"),
    pytest.param("cell.mask_path", "cell.mask", DISC, id="mask_path"),
    pytest.param("macro.init_amplitude", "0.3", "macro.init = uniform\n",
                 id="init_amplitude"),
])
def test_key_without_effect_rejected(tmp_path, capsys, key, value, base):
    # each key takes effect under one kind only; elsewhere it would be
    # ignored silently
    path = tmp_path / "run.cfg"
    path.write_text(f"{base}cell.resolution = 8\n{key} = {value}\n")
    lineno = base.count("\n") + 2
    assert main(["upscale", "--config", str(path), "--out", str(tmp_path / "t.json")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert f"line {lineno}: {key} takes effect only with" in record["message"]


@pytest.mark.parametrize("dim, resolution", [(3, 8), (2, 16)], ids=["dim", "resolution"])
def test_mask_header_must_match_config(tmp_path, capsys, dim, resolution):
    # the 2D 8^2 mask cannot make a cell of another dimension or resolution
    (tmp_path / "cell.mask").write_text(block_mask_text(8))
    path = tmp_path / "run.cfg"
    path.write_text(f"cell.kind = mask\ncell.mask_path = cell.mask\ncell.dim = {dim}\n"
                    f"cell.resolution = {resolution}\n")
    assert main(["upscale", "--config", str(path), "--out", str(tmp_path / "t.json")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "line 2: mask file header '2 8' does not match" in record["message"]


def test_timing_and_geometry_ok(tmp_path, base_config):
    cfg = load_config(base_config)
    assert cfg.geometry_spec() == {"kind": "full", "dim": 2}
    assert cfg.micro_s == (Fraction(1, 2), Fraction(1, 4))
    assert cfg.output_snapshots == (0.003,)


# ---------------------------------------------------------------------------
# field io


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, 9, 9))[0]
    path = tmp_path / "f.dat"
    atomic_write_text(path, format_field("xi3_1", values))
    name, loaded = read_field(path)
    assert name == "xi3_1"
    assert np.array_equal(loaded, values)
    header = path.read_text().splitlines()[0]
    assert header == "field xi3_1 2 9"


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf,
               np.nan, 1.0 / 3.0, -1e300]


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
def test_field_bytes_match_per_value_formatting(dim, m, data):
    # signed zeros, subnormals, infinities and NaN print as before
    values = data.draw(st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.floats()),
                                min_size=m**dim, max_size=m**dim))
    field = np.array(values, dtype=float).reshape((m,) * dim)
    assert (format_field("f", field).encode()
            == oracles.format_field_per_value("f", field).encode())


def test_initial_presets():
    u1, u2 = initial_density_fields("uniform", 0.5, 2, 8)
    assert np.all(u1 == 1.0) and np.all(u2 == 1.0)
    u1, u2 = initial_density_fields("eigenmode", 0.5, 2, 8)
    assert np.array_equal(u1, u2)
    u1, u2 = initial_density_fields("asymmetric", 0.5, 1, 8)
    x = (np.arange(8) + 0.5) / 8
    assert np.allclose(u1, 1 + 0.5 * np.sin(np.pi * x))
    assert np.all(u2 == 1.0)


# ---------------------------------------------------------------------------
# pipeline commands (in-process for speed)


def test_cmd_cell_outputs(tmp_path, base_config):
    out = tmp_path / "out"
    assert main(["cell", "--config", str(base_config), "--out", str(out)]) == 0
    tensors = json.loads((out / "tensors.json").read_text())
    assert np.allclose(tensors["eps0"], 0.01 * np.asarray(np.eye(2)))
    assert tensors["p"] == 1.0
    # full cell: all corrector dumps are identically zero
    for stem in ("xi3_1", "xi3_2", "eta_1", "eta_2", "zeta3_11", "zeta3_22"):
        name, values = read_field(out / f"{stem}.dat")
        assert np.all(values == 0.0)
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["config_sha256"] == tensors["provenance"]["config_sha256"]


def test_cmd_macro_diagnostics(tmp_path, base_config):
    out = tmp_path / "macro"
    assert main(["macro", "--config", str(base_config), "--out", str(out)]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,mass1,mass2,charge,free_energy,picard_iters,loceq_dev"
    assert len(lines) == 4  # header + three steps
    # the one snapshot time is the last step: its state is dumped once
    assert (out / "u1_000.dat").exists() and not (out / "u3_001.dat").exists()


def test_cmd_validate_rows(tmp_path, base_config):
    report = tmp_path / "report.csv"
    assert main(["validate", "--config", str(base_config), "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "s,err_phi_L2,err_n1_L2,err_n2_L2,err_phi_recon_L2"
    assert len(lines) == 3  # two configured scale ratios


def test_cmd_micro_outputs(tmp_path, base_config):
    out = tmp_path / "micro"
    assert main(["micro", "--config", str(base_config), "--out", str(out)]) == 0
    for denom in (2, 4):
        sub = out / f"s_{denom}"
        assert (sub / "nplus.dat").exists()
        assert (sub / "diagnostics.csv").exists()


def test_determinism_byte_identical(tmp_path, base_config):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["cell", "--config", str(base_config), "--out", str(out1)]) == 0
    assert main(["cell", "--config", str(base_config), "--out", str(out2)]) == 0
    for child in sorted(out1.iterdir()):
        assert (out2 / child.name).read_bytes() == child.read_bytes()
    # a mask cell copied into two directories whose paths differ in length
    outs = []
    for name in ("d1", "dir_with_a_longer_name"):
        run = tmp_path / name
        run.mkdir()
        (run / "cell.mask").write_text(block_mask_text(8))
        (run / "run.cfg").write_text(
            "cell.kind = mask\ncell.mask_path = cell.mask\ncell.resolution = 8\n")
        outs.append(run / "out")
        assert main(["cell", "--config", str(run / "run.cfg"), "--out", str(outs[-1])]) == 0
    tensors = json.loads((outs[0] / "tensors.json").read_text())
    assert tensors["provenance"]["geometry"]["path"] == "cell.mask"
    for child in sorted(outs[0].iterdir()):
        assert (outs[1] / child.name).read_bytes() == child.read_bytes()


def test_exit_code_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("physics.lambda = -3\n")
    assert main(["cell", "--config", str(path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


@pytest.mark.parametrize("command, target", [
    ("cell", "sub"), ("upscale", "sub/tensors.json"), ("upscale", "sub"),
    ("macro", "sub"), ("micro", "sub"), ("validate", "sub/report.csv"), ("validate", "sub"),
])
def test_unwritable_out_fails_before_any_solve(tmp_path, base_config, capsys, monkeypatch,
                                               command, target):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")

    def no_solve(*args, **kwargs):
        raise AssertionError("the run started before its output path was made")

    monkeypatch.setattr(cli, "build_unit_cell", no_solve)
    assert main([command, "--config", str(base_config), "--out", str(blocker / target)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NotADirectoryError"
    assert main(["cell", "--config", str(base_config), "--out", str(blocker)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileExistsError"


def test_removed_knobs_rejected(tmp_path, capsys):
    # solver.cap_factor and --threads had no effect and are gone
    path = tmp_path / "old.cfg"
    path.write_text("solver.cap_factor = 50\n")
    assert main(["cell", "--config", str(path)]) == 2
    assert "unknown key 'solver.cap_factor'" in json.loads(capsys.readouterr().err)["message"]
    path.write_text("cell.resolution = 8\n")
    with pytest.raises(SystemExit) as exc:
        main(["cell", "--config", str(path), "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["cell", "upscale", "micro", "validate"])
def test_tensors_flag_only_for_macro(tmp_path, capsys, command):
    # only macro reads --tensors; elsewhere it would be ignored silently
    path = tmp_path / "run.cfg"
    path.write_text("cell.resolution = 8\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--tensors", str(tmp_path / "t.json")])
    assert exc.value.code == 2
    assert "--tensors applies to macro only" in capsys.readouterr().err


TENSORS = {"p": 0.8, "eps0": [[1.0, 0.0], [0.0, 1.0]], "M": [[0.5, 0.0], [0.0, 0.5]],
           "Hhat": [[0.1, 0.0], [0.0, 0.1]]}
EYE3 = np.eye(3).tolist()


@pytest.mark.parametrize("text, message", [
    pytest.param(None, "No such file", id="missing-file"),
    pytest.param("{not json", "Expecting property name", id="not-json"),
    pytest.param(json.dumps([1, 2]), "not a JSON object", id="not-an-object"),
    pytest.param(json.dumps({k: v for k, v in TENSORS.items() if k != "eps0"}),
                 "missing key 'eps0'", id="no-eps0"),
    pytest.param(json.dumps(dict(TENSORS, eps0="abc")), "malformed entry", id="non-numeric"),
    pytest.param(json.dumps(dict(TENSORS, provenance=5)), "malformed entry", id="provenance"),
    pytest.param(json.dumps(dict(TENSORS, eps0=EYE3, M=EYE3, Hhat=EYE3)),
                 "3D tensors, cell.dim = 2", id="3x3-eps0"),
    pytest.param(json.dumps(dict(TENSORS, eps0=[1.0, 2.0])), "not a square matrix",
                 id="eps0-vector"),
    pytest.param(json.dumps(dict(TENSORS, M=EYE3)), "M has shape (3, 3), eps0 (2, 2)",
                 id="3x3-M"),
    pytest.param(json.dumps(dict(TENSORS, p=7)), "p = 7.0 is outside (0, 1]", id="p-7"),
    pytest.param(json.dumps(dict(TENSORS, p=float("nan"))), "p = nan is outside (0, 1]",
                 id="p-nan"),
    pytest.param(json.dumps(dict(TENSORS, Hhat=[[float("inf"), 0.0], [0.0, 0.1]])),
                 "Hhat has non-finite entries", id="inf-Hhat"),
    pytest.param(json.dumps(dict(TENSORS, eps0=[[1.0, 0.5], [0.0, 1.0]])),
                 "eps0 is not symmetric", id="asymmetric-eps0"),
    pytest.param(json.dumps(dict(TENSORS, eps0=[[1.0, 0.0], [0.0, -1.0]])),
                 "eps0 is not positive definite", id="indefinite-eps0"),
])
def test_unusable_tensors_file(tmp_path, base_config, capsys, text, message):
    tensors = tmp_path / "tensors.json"
    if text is not None:
        tensors.write_text(text)
    args = ["macro", "--config", str(base_config), "--out", str(tmp_path / "out")]
    assert main(args + ["--tensors", str(tensors)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert f"tensors file {tensors}: " in record["message"] and message in record["message"]
    # the same file with the usable tensors runs
    tensors.write_text(json.dumps(TENSORS))
    assert main(args + ["--tensors", str(tensors)]) == 0


@pytest.mark.parametrize("change, message", [
    pytest.param({"p": 0}, "porosity p = 0.0 is outside (0, 1]", id="p-0"),
    pytest.param({"p": 7}, "p = 7.0 is outside (0, 1]", id="p-7"),
    pytest.param({"p": float("nan")}, "p = nan is outside (0, 1]", id="p-nan"),
    pytest.param({"Hhat": [[float("inf"), 0.0], [0.0, 0.1]]}, "Hhat has non-finite entries",
                 id="inf-Hhat"),
    pytest.param({"M": EYE3}, "M has shape (3, 3), eps0 (2, 2)", id="3x3-M"),
    pytest.param({"eps0": [[1.0, 0.5], [0.0, 1.0]]}, "eps0 is not symmetric",
                 id="asymmetric-eps0"),
    pytest.param({"eps0": [[1.0, 0.0], [0.0, -1.0]]}, "eps0 is not positive definite",
                 id="indefinite-eps0"),
])
def test_library_tensors_meet_the_tensors_file_rules(change, message):
    # the rules live in EffectiveTensors, so tensors that skip the file meet
    # them too, with the message of test_unusable_tensors_file; a run with
    # p = 0, which would zero both densities in its first step, never starts
    with pytest.raises(ValueError) as err:
        EffectiveTensors(**dict(TENSORS, **change))
    assert message in str(err.value) and "\n" not in str(err.value)


def test_micro_makes_no_wasted_potential_solve(tmp_path, monkeypatch):
    # each DNS step solves its potential once per Picard iteration plus
    # once for the accepted densities; nothing else solves one
    solves = Counter()
    potential = GridOperators.potential

    def counting(self, *args, **kwargs):
        solves[self.shape[0]] += 1
        return potential(self, *args, **kwargs)

    monkeypatch.setattr(GridOperators, "potential", counting)
    config = tmp_path / "run.cfg"
    config.write_text(
        "cell.kind = disc\ncell.dim = 2\ncell.resolution = 8\ncell.radius = 0.25\n"
        "physics.alpha = 4.0\nmacro.dt = 1e-3\nmacro.t_end = 3e-3\nmicro.s = 1/2 1/4\n"
    )
    assert main(["micro", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    expected = Counter()
    for tiles in (2, 4):
        with open(tmp_path / "out" / f"s_{tiles}" / "diagnostics.csv") as f:
            expected[8 * tiles] = sum(int(row["picard_iters"]) + 1 for row in csv.DictReader(f))
    assert solves == expected


@pytest.mark.parametrize("command, solves", [("cell", 6), ("upscale", 2), ("macro", 2)])
def test_only_cell_and_validate_solve_the_second_order_family(tmp_path, caplog, command,
                                                              solves):
    # on a 2D disc: xi3 per direction, plus the four zeta3 components where
    # they are written or read; eta is taken in closed form.  validate's six
    # are counted by test_benchmark_tracer_contract
    config = tmp_path / "run.cfg"
    config.write_text(DISC_CFG)
    with caplog.at_level(logging.DEBUG, logger="pnp_upscale.cellcorrect"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--verbose"]) == 0
    records = [r for r in caplog.records if r.getMessage().startswith("periodic elliptic solve")]
    assert len(records) == solves


def test_verbose_takes_effect_for_its_own_call_only(tmp_path):
    # under a root logger that has a handler, as pytest's and an embedding
    # program's may, --verbose still reaches stderr, and a later call without
    # it logs nothing; each call leaves the package's logger as it found it
    config = tmp_path / "run.cfg"
    config.write_text(DISC_CFG)
    root, package = logging.getLogger(), logging.getLogger("pnp_upscale")
    found = package.level, package.handlers[:]
    other = logging.NullHandler()
    root.addHandler(other)
    logs = []
    try:
        for verbose in ([], ["--verbose"], [], ["--verbose"]):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(["upscale", "--config", str(config),
                             "--out", str(tmp_path / "tensors.json"), *verbose]) == 0
            logs.append(err.getvalue())
            assert (package.level, package.handlers) == found
    finally:
        root.removeHandler(other)
    assert logs[0] == logs[2] == ""
    assert logs[1] == logs[3]
    assert logs[1].startswith("DEBUG:pnp_upscale.cellcorrect:periodic elliptic solve")


def test_exit_code_solver_failure(tmp_path, capsys):
    # disconnected fluid (quadrant pattern) fails the perforated cell problem
    mask_path = tmp_path / "cells.mask"
    m = 8
    lower = (np.arange(m) + 0.5) / m < 0.5
    X, Y = np.meshgrid(lower, lower, indexing="ij")
    mask = np.logical_xor(X, Y)
    lines = [f"2 {m}"] + ["1" if v else "0" for v in mask.ravel()]
    mask_path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "bad_geometry.cfg"
    cfg.write_text(
        f"cell.kind = mask\ncell.mask_path = {mask_path.name}\ncell.resolution = {m}\n"
    )
    assert main(["cell", "--config", str(cfg), "--out", str(tmp_path / 'x')]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "GeometryError"


@pytest.mark.parametrize("command, key", [("upscale", "cell.resolution"),
                                          ("macro", "macro.resolution")])
def test_an_allocation_that_fails_exits_3_with_one_record(tmp_path, capsys, command, key):
    # a 100000^3 grid asks numpy for at least 909 TiB, which it refuses
    # before it allocates anything
    cfg = tmp_path / "huge.cfg"
    entries = {"cell.dim": 3, "cell.resolution": 4, key: 100000}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "MemoryError" and "Unable to allocate" in record["message"]


@pytest.mark.parametrize("message, hinted", [
    ("CG stagnated: certificate 1.1e-13 not halved in 100 iterations", True),
    ("CG breakdown: operator lost positive definiteness", False),
])
def test_stalled_solve_advises_raising_the_tolerance(base_config, capsys, monkeypatch,
                                                     message, hinted):
    # the kernel names the tolerance it was given; only the CLI knows the key
    def fail(*args):
        raise SolverError(message)

    monkeypatch.setattr(cli, "cmd_cell", fail)
    assert main(["cell", "--config", str(base_config), "--out", str(base_config.parent)]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SolverError" and record["message"].startswith(message)
    assert record["message"].endswith("; raise solver.tol") == hinted


def test_flux_energy_error_names_the_contrast(tmp_path, capsys):
    # at lambda = 1e-3 the contrast alpha / lambda^2 = 1e6 lifts the flux and
    # energy forms of eps0 apart past the 1e-8 gate at the default tol
    config = tmp_path / "run.cfg"
    config.write_text("cell.kind = disc\ncell.dim = 2\ncell.resolution = 16\n"
                      "cell.radius = 0.25\nphysics.lambda = 1e-3\nphysics.alpha = 1.0\n")
    assert main(["upscale", "--config", str(config), "--out", str(tmp_path / "t.json")]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SolverError"
    assert "flux-form vs energy-form disagreement" in record["message"]
    assert "exceeds 1e-08; likely cause: the coefficient contrast max/min kappa = 1e+06 " \
        "for correctors solved to tol = 1e-10" in record["message"]


@pytest.mark.parametrize("tol", ["1e-18", "1e-20", "1e-22"])
def test_tolerance_below_rounding_is_a_typed_solver_error(tmp_path, capsys, tol):
    # the DNS residual falls below what float32 preconditioning resolves
    # before the certificate reaches tol; CG must stop with a SolverError,
    # not divide by a vanished z.r
    config = tmp_path / "run.cfg"
    config.write_text(
        "cell.kind = disc\ncell.dim = 2\ncell.resolution = 8\ncell.radius = 0.25\n"
        f"macro.dt = 1e-3\nmacro.t_end = 2e-3\nmicro.s = 1/2\nsolver.tol = {tol}\n"
    )
    assert main(["micro", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "SolverError"
    assert f"tolerance {float(tol):.1e}" in record["message"]


def test_exit_code_validation_threshold(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(BASE_CFG + "micro.fail_threshold = 1e-12\n")
    report = tmp_path / "r.csv"
    assert main(["validate", "--config", str(cfg), "--out", str(report)]) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert report.exists()  # the report is still written


def test_console_script_installed(tmp_path, base_config):
    out = tmp_path / "cli_out"
    proc = subprocess.run(
        [sys.executable, "-m", "pnp_upscale.cli", "upscale",
         "--config", str(base_config), "--out", str(out / "tensors.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "tensors.json").exists()


DISC_CFG = """\
cell.kind = disc
cell.dim = 2
cell.resolution = 16
cell.radius = 0.25
physics.lambda = 1.0
physics.alpha = 4.0
macro.resolution = 16
macro.dt = 1e-3
macro.t_end = 2e-3
"""

#: refuses every scipy import, as on a numpy-only install
BLOCK_SCIPY = """\
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.startswith("scipy"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

blocker = NoScipy()
sys.meta_path.insert(0, blocker)
from pnp_upscale.cli import main
cfg, out = sys.argv[1], sys.argv[2]
"""

#: runs ``cell`` and ``upscale`` without scipy, then ``macro`` with scipy back
NUMPY_ONLY_RUN = BLOCK_SCIPY + """\
assert main(["cell", "--config", cfg, "--out", out + "/cell"]) == 0
assert main(["upscale", "--config", cfg, "--out", out + "/tensors.json"]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
assert "pnp_upscale._kernels" not in sys.modules
sys.meta_path.remove(blocker)
assert main(["macro", "--config", cfg, "--out", out + "/macro"]) == 0
kernels = sys.modules["pnp_upscale._kernels"]  # imported by the box solvers
assert kernels.load.cache_info().currsize == 2
assert kernels.load(sys.modules["scipy"].__path__[0], kernels.POCKETFFT,
                    kernels.agrees).__name__ == kernels.POCKETFFT
assert "scipy.sparse" not in sys.modules and "scipy.fft" not in sys.modules
"""


#: ``upscale`` without scipy, then ``macro`` on its tensors, whose exit code it returns
MACRO_WITHOUT_SCIPY = BLOCK_SCIPY + """\
assert main(["upscale", "--config", cfg, "--out", out + "/tensors.json"]) == 0
sys.exit(main(["macro", "--config", cfg, "--tensors", out + "/tensors.json",
               "--out", out + "/macro"]))
"""


#: ``macro`` and ``validate`` with scipy, then exit with the names of the
#: scipy.fft, scipy.special, scipy.sparse and numpy.f2py modules they
#: imported, if any
VALIDATE_IMPORTS = """\
import sys
from pnp_upscale.cli import main
cfg, out = sys.argv[1], sys.argv[2]
assert main(["macro", "--config", cfg, "--out", out + "/macro"]) == 0
assert main(["validate", "--config", cfg, "--out", out + "/report.csv"]) == 0
sys.exit(sorted(m for m in sys.modules if m.startswith(
    ("scipy.fft", "scipy.special", "scipy.sparse", "numpy.f2py"))
    and m != "scipy.sparse._sparsetools") or 0)
"""


def run_script(script, tmp_path):
    cfg = tmp_path / "disc.cfg"
    cfg.write_text(DISC_CFG)
    src = str(Path(pnp_upscale.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)


def test_cell_and_upscale_run_without_scipy(tmp_path):
    proc = run_script(NUMPY_ONLY_RUN, tmp_path)
    assert proc.returncode == 0, proc.stderr
    # upscale solves no zeta3, so its max_residual covers xi3 and eta alone
    cell, upscaled = (json.loads(path.read_text()) for path in
                      (tmp_path / "cell" / "tensors.json", tmp_path / "tensors.json"))
    assert upscaled["provenance"].pop("max_residual") <= cell["provenance"].pop("max_residual")
    assert upscaled == cell
    assert (tmp_path / "macro" / "diagnostics.csv").exists()


def test_macro_without_scipy_is_a_solver_error(tmp_path):
    # the first box-grid solver needs scipy: a typed error and exit 3, not a
    # ModuleNotFoundError traceback
    proc = run_script(MACRO_WITHOUT_SCIPY, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "scipy" in proc.stderr and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "SolverError"


def test_validate_imports_neither_scipy_fft_nor_scipy_special(tmp_path):
    # the box solvers load pocketfft and the DIA kernel by file: scipy.fft
    # would also load scipy.special, about 0.1 s of every macro, micro and
    # validate process, and scipy.sparse, with numpy.f2py, about 270 more modules
    proc = run_script(VALIDATE_IMPORTS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "macro" / "diagnostics.csv").exists()
