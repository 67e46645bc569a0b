"""The lazy package namespace: importing ``pnp_upscale`` loads no submodule,
and each exported name loads only the submodule that defines it (and that
module's own imports).  Every check runs in a fresh interpreter, since the
test process has long loaded every module."""

import json
import os
import subprocess
import sys

import pytest

import pnp_upscale
from pnp_upscale.unitcell import PermittivityParams, build_unit_cell
from pnp_upscale.upscale import compute_effective_tensors

SRC = os.path.dirname(os.path.dirname(pnp_upscale.__file__))

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("pnp_upscale."))))
"""


def run(code: str, *args) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str, *args) -> list:
    return json.loads(run(code + LOADED, *args))


def test_package_import_loads_no_submodule():
    assert loaded_after("import pnp_upscale\nassert pnp_upscale.__version__") == []


@pytest.mark.parametrize("kind", ["disc", "mask"])
def test_config_and_cell_load_only_their_modules(tmp_path, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "disc":
        cfg.write_text("cell.kind = disc\ncell.radius = 0.25\ncell.resolution = 8\n")
    else:
        (tmp_path / "cell.mask").write_text("2 4\n" + "1 1 0 1\n" * 4)
        cfg.write_text("cell.kind = mask\ncell.mask_path = cell.mask\ncell.resolution = 4\n")
    code = ("import sys, pnp_upscale\n"
            "cfg = pnp_upscale.load_config(sys.argv[1])\n"
            "cell = pnp_upscale.build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)\n"
            "assert cell.fluid_connected\n")
    assert loaded_after(code, cfg) == ["pnp_upscale.config", "pnp_upscale.unitcell"]


def test_tensors_file_adds_only_upscale_and_cellcorrect(tmp_path):
    # the set-up of a macro run: its config, its cell, then its tensors file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cell.kind = disc\ncell.radius = 0.25\ncell.resolution = 8\n")
    cell = build_unit_cell({"kind": "disc", "radius": 0.25, "dim": 2}, 8)
    effective, _ = compute_effective_tensors(cell, PermittivityParams(1.0, 4.0))
    tensors = tmp_path / "tensors.json"
    tensors.write_text(effective.to_json())
    code = ("import json, sys\nfrom pathlib import Path\nimport pnp_upscale\n"
            "cfg = pnp_upscale.load_config(sys.argv[1])\n"
            "pnp_upscale.build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)\n"
            "before = {m for m in sys.modules if m.startswith('pnp_upscale.')}\n"
            "pnp_upscale.EffectiveTensors.from_json(Path(sys.argv[2]).read_text())\n"
            "print(json.dumps(sorted(before)))\n")
    out = run(code + LOADED, cfg, tensors).splitlines()
    before, after = map(json.loads, out)
    assert before == ["pnp_upscale.config", "pnp_upscale.unitcell"]
    assert sorted(set(after) - set(before)) == ["pnp_upscale.cellcorrect",
                                                "pnp_upscale.upscale"]


EXPORTS = """
import sys
import pnp_upscale
names = list(pnp_upscale.__all__)
assert len(names) == len(set(names)) == 35
for name in names:
    obj = getattr(pnp_upscale, name)
    home = obj.__module__
    assert home.startswith("pnp_upscale."), (name, home)
    assert getattr(sys.modules[home], name) is obj, name
    assert pnp_upscale.__dict__[name] is obj, name  # bound on first access
assert set(names) <= set(dir(pnp_upscale))
try:
    pnp_upscale.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""

STAR = """
import sys
import pnp_upscale
assert set(pnp_upscale.__all__) <= set(dir(pnp_upscale))
space = {}
exec("from pnp_upscale import *", space)
names = pnp_upscale.__all__
assert sorted(k for k in space if k != "__builtins__") == sorted(names)
for name in names:
    obj = space[name]
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert getattr(pnp_upscale, name) is obj, name
"""


def test_a_submodule_name_falls_back_to_the_submodule():
    # no exported name is a submodule: the import system loads it instead
    code = ("import sys\n"
            "from pnp_upscale import _fv, macropnp\n"
            "assert macropnp is sys.modules['pnp_upscale.macropnp']\n"
            "assert _fv is sys.modules['pnp_upscale._fv']\n")
    run(code)


def test_every_exported_name_resolves_by_attribute():
    run(EXPORTS)


def test_every_exported_name_resolves_by_star_import():
    run(STAR)
