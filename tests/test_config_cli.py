import csv
import json
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
from pnp_upscale.config import ConfigError, load_config
from pnp_upscale.fieldio import atomic_write_text, format_field, read_field
from pnp_upscale.macropnp import GridOperators

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
assert "pnp_upscale._pocketfft" not in sys.modules
sys.meta_path.remove(blocker)
assert main(["macro", "--config", cfg, "--out", out + "/macro"]) == 0
kernels = sys.modules["pnp_upscale._pocketfft"]  # imported by the box solvers
assert kernels.load.cache_info().currsize == 1
assert kernels.load(sys.modules["scipy"].__path__[0]).__name__ == kernels.POCKETFFT
assert "scipy.sparse" in sys.modules and "scipy.fft" not in sys.modules
"""


#: ``upscale`` without scipy, then ``macro`` on its tensors, whose exit code it returns
MACRO_WITHOUT_SCIPY = BLOCK_SCIPY + """\
assert main(["upscale", "--config", cfg, "--out", out + "/tensors.json"]) == 0
sys.exit(main(["macro", "--config", cfg, "--tensors", out + "/tensors.json",
               "--out", out + "/macro"]))
"""


#: ``validate`` with scipy, then exit with the names of the scipy.fft and
#: scipy.special modules it imported, if any
VALIDATE_IMPORTS = """\
import sys
from pnp_upscale.cli import main
cfg, out = sys.argv[1], sys.argv[2]
assert main(["validate", "--config", cfg, "--out", out + "/report.csv"]) == 0
sys.exit(sorted(m for m in sys.modules
                if m.startswith(("scipy.fft", "scipy.special"))) or 0)
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
    assert (tmp_path / "cell" / "tensors.json").read_text() == (
        tmp_path / "tensors.json").read_text()
    assert (tmp_path / "macro" / "diagnostics.csv").exists()


def test_macro_without_scipy_is_a_solver_error(tmp_path):
    # the first box-grid solver needs scipy: a typed error and exit 3, not a
    # ModuleNotFoundError traceback
    proc = run_script(MACRO_WITHOUT_SCIPY, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "scipy" in proc.stderr and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "SolverError"


def test_validate_imports_neither_scipy_fft_nor_scipy_special(tmp_path):
    # the box solvers load pocketfft by file: scipy.fft would also load
    # scipy.special, about 0.1 s of every macro, micro and validate process
    proc = run_script(VALIDATE_IMPORTS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.csv").exists()
