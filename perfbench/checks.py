"""Output checks for the benchmark workloads.

Every check compares the program's outputs with a computation made here,
apart from the program, or with a property the method must have.  None of
them compares with stored copies of earlier outputs.

``load_outputs`` reads a command's files into plain arrays;
``check_outputs`` returns the list of (check name, message) failures, empty
when the outputs pass.  The self-test perturbs loaded outputs and expects
the named check to fire.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

#: a corrector satisfies its cell equation when the relative residual under
#: the operator below is within this multiple of the solver tolerance
RESIDUAL_FACTOR = 10.0
MEAN_ZERO_RTOL = 1e-9
SYMMETRY_RTOL = 1e-8
BOUNDS_RTOL = 1e-9
EPS0_COMPAT_RTOL = 1e-8
MASS_RTOL = 1e-12


def read_dump(path: Path) -> tuple[str, np.ndarray]:
    """Grid dump: header 'field <name> <N> <m>', then m^N values row-major."""
    tokens = path.read_text().split()
    if len(tokens) < 4 or tokens[0] != "field":
        raise ValueError(f"{path.name}: not a field dump")
    ndim, m = int(tokens[2]), int(tokens[3])
    values = np.array(tokens[4:], dtype=float)
    if values.size != m**ndim:
        raise ValueError(f"{path.name}: {values.size} values for N={ndim} m={m}")
    return tokens[1], values.reshape((m,) * ndim)


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def load_outputs(workload: str, out: Path) -> dict:
    if workload == "cell2d":
        fields = {}
        for path in sorted(out.glob("*.dat")):
            name, values = read_dump(path)
            fields[name] = values
        return {"tensors": json.loads((out / "tensors.json").read_text()), "fields": fields}
    if workload == "macro2d":
        snaps: dict = {}
        for path in sorted(out.glob("u[123]_*.dat")):
            name, values = read_dump(path)
            var, idx = name.split("_")
            snaps.setdefault(idx, {})[var] = values
        return {"rows": read_csv(out / "diagnostics.csv"), "snapshots": snaps}
    return {"rows": read_csv(out)}


# ---------------------------------------------------------------------------
# periodic harmonic-face operator, written apart from the program


def face_coefficients(coef: np.ndarray, mask: np.ndarray | None = None) -> list:
    """Harmonic mean of the coefficient across each face idx | idx + e_d;
    with a mask, faces touching a masked-out voxel carry nothing."""
    faces = []
    for d in range(coef.ndim):
        nb = np.roll(coef, -1, axis=d)
        kf = 2.0 * coef * nb / (coef + nb)
        if mask is not None:
            kf = kf * (mask & np.roll(mask, -1, axis=d))
        faces.append(kf)
    return faces


def apply_operator(u: np.ndarray, faces: list, h: float) -> np.ndarray:
    """-div(k grad u) as the sum of the face fluxes leaving each voxel."""
    out = np.zeros_like(u)
    for d, kf in enumerate(faces):
        flux = kf * (np.roll(u, -1, axis=d) - u) / h  # through the +d face
        out -= (flux - np.roll(flux, 1, axis=d)) / h
    return out


def _rel_residual(A_u: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.linalg.norm(A_u - rhs) / np.linalg.norm(rhs))


def second_order_rhs(faces_k, xi_l, eps0_kl, k, l, h):
    """Source of the (k,l) second-order corrector: -eps0[k,l], the divergence
    of the face value of kappa*xi_l along k, and the cell average of the
    k-face flux of y_l - xi_l."""
    mu = faces_k * 0.5 * (xi_l + np.roll(xi_l, -1, axis=k))
    div_weak = (np.roll(mu, 1, axis=k) - mu) / h
    q = faces_k * ((1.0 if k == l else 0.0) - (np.roll(xi_l, -1, axis=k) - xi_l) / h)
    return -eps0_kl + div_weak + 0.5 * (q + np.roll(q, 1, axis=k))


# ---------------------------------------------------------------------------
# checks


def check_cell(outputs: dict, mask: np.ndarray, facts: dict) -> list:
    fails = []
    tensors, fields = outputs["tensors"], outputs["fields"]
    dim, m = mask.ndim, mask.shape[0]
    h, tol = 1.0 / m, facts["tol"]
    kappa = np.where(mask, facts["lam"] ** 2, facts["alpha"])

    fluid_fraction = int(mask.sum()) / mask.size
    if abs(tensors["p"] - fluid_fraction) > 1e-14:
        fails.append(("porosity", f"p = {tensors['p']!r}, fluid fraction {fluid_fraction!r}"))

    eps0 = np.asarray(tensors["eps0"], dtype=float)
    scale = float(np.abs(eps0).max())
    if float(np.abs(eps0 - eps0.T).max()) > SYMMETRY_RTOL * scale:
        fails.append(("eps0_symmetric", f"eps0 = {eps0.tolist()}"))
    harmonic = 1.0 / float(np.mean(1.0 / kappa))
    arithmetic = float(np.mean(kappa))
    eigs = np.linalg.eigvalsh(0.5 * (eps0 + eps0.T))
    if eigs.min() < harmonic * (1 - BOUNDS_RTOL) or eigs.max() > arithmetic * (1 + BOUNDS_RTOL):
        fails.append(("eps0_bounds", f"eigenvalues {eigs.tolist()} outside "
                                     f"[{harmonic:.12g}, {arithmetic:.12g}]"))

    expected = [f"xi3_{j + 1}" for j in range(dim)] + [f"eta_{j + 1}" for j in range(dim)]
    expected += [f"zeta3_{k + 1}{l + 1}" for k in range(dim) for l in range(dim)]
    missing = sorted(set(expected) - set(fields))
    if missing:
        return fails + [("dumps_present", f"missing {missing}")]

    for name in expected:
        u = fields[name]
        region = mask if name.startswith("eta") else np.ones_like(mask)
        mean = float(u[region].mean())
        if abs(mean) > MEAN_ZERO_RTOL * float(np.abs(u).max()):
            fails.append(("mean_zero", f"{name}: mean {mean:.3e}"))

    faces = face_coefficients(kappa)
    fluid_faces = face_coefficients(np.ones(mask.shape), mask)
    for j in range(dim):
        xi = fields[f"xi3_{j + 1}"]
        rhs = (np.roll(faces[j], 1, axis=j) - faces[j]) / h
        res = _rel_residual(apply_operator(xi, faces, h), rhs)
        if res > RESIDUAL_FACTOR * tol:
            fails.append(("cell_equation", f"xi3_{j + 1}: residual {res:.3e}"))
        rhs = -apply_operator(xi, fluid_faces, h)
        res = _rel_residual(apply_operator(fields[f"eta_{j + 1}"], fluid_faces, h), rhs)
        if res > RESIDUAL_FACTOR * tol:
            fails.append(("cell_equation", f"eta_{j + 1}: residual {res:.3e}"))
    for k in range(dim):
        for l in range(dim):
            rhs = second_order_rhs(faces[k], fields[f"xi3_{l + 1}"], eps0[k, l], k, l, h)
            defect = abs(float(rhs.mean())) / scale
            if defect > EPS0_COMPAT_RTOL:
                fails.append(("eps0_flux_form", f"({k},{l}): eps0 differs from the corrector "
                                                f"fluxes by {defect:.3e}"))
            rhs = rhs - rhs.mean()
            res = _rel_residual(apply_operator(fields[f"zeta3_{k + 1}{l + 1}"], faces, h), rhs)
            if res > RESIDUAL_FACTOR * tol:
                fails.append(("cell_equation", f"zeta3_{k + 1}{l + 1}: residual {res:.3e}"))
    return fails


def initial_masses(M: int, amplitude: float) -> tuple[float, float]:
    """Means of the 'asymmetric' preset: u1 = 1 + a sin(pi x) sin(pi y), u2 = 1."""
    x = (np.arange(M) + 0.5) / M
    s = np.sin(np.pi * x)
    return float(np.mean(1.0 + amplitude * np.outer(s, s))), 1.0


def check_macro(outputs: dict, facts: dict) -> list:
    fails = []
    rows, snaps = outputs["rows"], outputs["snapshots"]
    if len(rows) != facts["steps"] or len(snaps) != facts["snapshots"]:
        fails.append(("outputs_present", f"{len(rows)} rows, {len(snaps)} snapshots"))
    mass1, mass2 = initial_masses(facts["M"], facts["amplitude"])
    for row in rows:
        for key, ref in (("mass1", mass1), ("mass2", mass2)):
            if abs(row[key] - ref) > MASS_RTOL * ref:
                fails.append(("mass_conserved", f"t={row['t']:.4g}: {key} {row[key]!r} "
                                                f"vs initial {ref!r}"))
        if not row["picard_iters"] < facts["picard_cap"]:
            fails.append(("picard_below_cap", f"t={row['t']:.4g}: {row['picard_iters']:.0f}"))
    for idx, snap in sorted(snaps.items()):
        for key, ref in (("u1", mass1), ("u2", mass2)):
            u = snap[key]
            if float(u.min()) < 0.0:
                fails.append(("nonnegative", f"snapshot {idx}: min {key} {u.min():.3e}"))
            if abs(float(u.mean()) - ref) > MASS_RTOL * ref:
                fails.append(("mass_conserved", f"snapshot {idx}: mean {key} {u.mean()!r}"))
        u3 = snap["u3"]
        if abs(float(u3.mean())) > MEAN_ZERO_RTOL * float(np.abs(u3).max()):
            fails.append(("u3_mean_zero", f"snapshot {idx}: mean {u3.mean():.3e}"))
    return fails


def check_validate(outputs: dict, facts: dict) -> list:
    fails = []
    rows = outputs["rows"]
    if len(rows) != facts["n_s"]:
        return [("rows_present", f"{len(rows)} rows for {facts['n_s']} scale ratios")]
    for row in rows:
        if not all(np.isfinite(v) for v in row.values()):
            fails.append(("finite", f"s={row['s']:.4g}: {row}"))
    rows = sorted(rows, key=lambda r: -r["s"])
    recon = [r["err_phi_recon_L2"] for r in rows]
    if not all(b < a for a, b in zip(recon, recon[1:])):
        fails.append(("recon_decreases", f"err_phi_recon_L2 by decreasing s: {recon}"))
    if not rows[-1]["err_phi_recon_L2"] < rows[-1]["err_phi_L2"]:
        fails.append(("recon_beats_macro", f"s={rows[-1]['s']:.4g}: recon "
                                           f"{rows[-1]['err_phi_recon_L2']:.4g} vs macro "
                                           f"{rows[-1]['err_phi_L2']:.4g}"))
    return fails


def check_outputs(workload: str, outputs: dict, inputs) -> list:
    if workload == "cell2d":
        return check_cell(outputs, inputs.mask, inputs.facts)
    if workload == "macro2d":
        return check_macro(outputs, inputs.facts)
    return check_validate(outputs, inputs.facts)
