"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload's pipeline command once on seed 1, requires its outputs
to pass every check, then perturbs the loaded outputs one way at a time and
requires the named check to reject each perturbation.  Exits 0 when every
case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys

import numpy as np

import checks
import inputs
import run


def _scale_eps0(o):
    o["tensors"]["eps0"] = (3.0 * np.asarray(o["tensors"]["eps0"])).tolist()


def _skew_eps0(o):
    o["tensors"]["eps0"][0][1] += 1e-4


def _shift_porosity(o):
    o["tensors"]["p"] += 1.0 / inputs.CELL2D_M**2


def _shift(name, relative):
    def perturb(o):
        u = o["fields"][name]
        u += relative * float(np.abs(u).max())
    return perturb


def _bump(name):
    def perturb(o):
        u = o["fields"][name]
        u.flat[len(u.flat) // 3] += 1e-6 * float(np.abs(u).max())
        u -= u.mean()  # stays mean-zero, so only the cell equation can catch it
    return perturb


def _drift_row_mass(o):
    o["rows"][-1]["mass1"] *= 1.0 + 1e-9


def _drift_snapshot_mass(o):
    last = max(o["snapshots"])
    o["snapshots"][last]["u2"] += 1e-9


def _negative_density(o):
    u = o["snapshots"][min(o["snapshots"])]["u1"]
    u[0, 0] = -1e-3


def _offset_u3(o):
    o["snapshots"][min(o["snapshots"])]["u3"] += 1e-3


def _picard_at_cap(o):
    o["rows"][0]["picard_iters"] = float(inputs.PICARD_CAP)


def _reverse_recon(o):
    recon = [r["err_phi_recon_L2"] for r in o["rows"]]
    for row, value in zip(o["rows"], reversed(recon)):
        row["err_phi_recon_L2"] = value


def _nan_error(o):
    o["rows"][0]["err_n1_L2"] = float("nan")


def _recon_above_macro(o):
    row = min(o["rows"], key=lambda r: r["s"])
    row["err_phi_recon_L2"] = 2.0 * row["err_phi_L2"]


#: workload -> [(case, perturbation, check that must reject it)]
CASES = {
    "cell2d": [
        ("eps0 scaled out of bounds", _scale_eps0, "eps0_bounds"),
        ("eps0 made asymmetric", _skew_eps0, "eps0_symmetric"),
        ("porosity off by one voxel", _shift_porosity, "porosity"),
        ("xi3_1 shifted off mean-zero", _shift("xi3_1", 1e-3), "mean_zero"),
        ("eta_2 shifted off mean-zero", _shift("eta_2", 1e-3), "mean_zero"),
        ("zeta3_12 shifted off mean-zero", _shift("zeta3_12", 1e-3), "mean_zero"),
        ("xi3_2 off its cell equation", _bump("xi3_2"), "cell_equation"),
        ("eta_1 off its cell equation", _bump("eta_1"), "cell_equation"),
        ("zeta3_21 off its cell equation", _bump("zeta3_21"), "cell_equation"),
    ],
    "macro2d": [
        ("mass drift in the diagnostics", _drift_row_mass, "mass_conserved"),
        ("mass drift in a snapshot", _drift_snapshot_mass, "mass_conserved"),
        ("negative density", _negative_density, "nonnegative"),
        ("u3 off mean-zero", _offset_u3, "u3_mean_zero"),
        ("Picard count at the cap", _picard_at_cap, "picard_below_cap"),
    ],
    "validate2d": [
        ("reversed error column", _reverse_recon, "recon_decreases"),
        ("non-finite error", _nan_error, "finite"),
        ("reconstruction worse than macro", _recon_above_macro, "recon_beats_macro"),
    ],
    "validate3d": [
        ("reversed error column", _reverse_recon, "recon_decreases"),
        ("non-finite error", _nan_error, "finite"),
    ],
}


def main() -> int:
    if not (run.ROOT / "src" / "pnp_upscale" / "cli.py").is_file():
        print(f"selftest: no program source under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    env = run.child_env()
    bad = 0
    for workload, cases in CASES.items():
        work = run.ROOT / ".perfbench_work" / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            inp = inputs.make_inputs(workload, 1, work, run.ROOT)
            code, _ = run.run_child(["op", "0", "--", *inp.argv], work / "child.json", env)
            if code != 0:
                print(f"FAIL {workload}: command exited with {code}")
                bad += 1
                continue
            outputs = checks.load_outputs(workload, inp.out)
            fails = checks.check_outputs(workload, outputs, inp)
            print(f"{'PASS' if not fails else 'FAIL'} {workload}: unperturbed outputs "
                  f"{'pass' if not fails else fails}")
            bad += bool(fails)
            for case, perturb, expected in cases:
                perturbed = copy.deepcopy(outputs)
                perturb(perturbed)
                names = {name for name, _ in checks.check_outputs(workload, perturbed, inp)}
                ok = expected in names
                print(f"{'PASS' if ok else 'FAIL'} {workload}: {case} -> rejected by "
                      f"{sorted(names) or 'nothing'}")
                bad += not ok
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {'all cases behave' if not bad else f'{bad} case(s) misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
