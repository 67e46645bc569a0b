"""Command-line pipeline: cell -> upscale -> macro -> micro -> validate.

All artifacts are written atomically and carry the config hash, either in
the tensors document itself or in a sibling ``provenance.json``.  Solvers are
deterministic, so a rerun with an unchanged configuration reproduces every
output byte for byte.

Exit codes: 0 success, 2 configuration error, 3 solver or geometry failure,
4 validation error above the configured threshold.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cellcorrect import SolverError
from .config import ConfigError, RunConfig, load_config
from .fieldio import atomic_write_text, format_field
from .macropnp import MacroConfig, MacroState, run_macro
from .microdns import (
    BudgetError,
    MicroState,
    assemble_micro_domain,
    compare_fields,
    interpolate_to_fine,
    reconstruct_two_scale,
    run_micro,
    solve_micro_poisson,
)
from .unitcell import GeometryError, PermittivityParams, build_unit_cell
from .upscale import EffectiveTensors, compute_effective_tensors

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

DIAG_HEADER = "t,mass1,mass2,charge,free_energy,picard_iters,loceq_dev"
VALIDATE_HEADER = "s,err_phi_L2,err_n1_L2,err_n2_L2,err_phi_recon_L2"


class ValidationError(RuntimeError):
    """Validation error above the configured threshold."""


def initial_density_fields(kind: str, amplitude: float, dim: int, resolution: int):
    """Named initial data presets on cell centers of [0,1]^dim."""
    centers = (np.arange(resolution) + 0.5) / resolution
    grids = np.meshgrid(*([centers] * dim), indexing="ij")
    bump = np.ones((resolution,) * dim)
    for g in grids:
        bump = bump * np.sin(np.pi * g)
    if kind == "uniform":
        u1 = np.ones_like(bump)
        u2 = np.ones_like(bump)
    elif kind == "eigenmode":
        u1 = bump.copy()
        u2 = bump.copy()
    elif kind == "asymmetric":
        u1 = 1.0 + amplitude * bump
        u2 = np.ones_like(bump)
    else:
        raise ValueError(f"unknown initial preset {kind!r}")
    return u1, u2


def _macro_config(cfg: RunConfig) -> MacroConfig:
    return MacroConfig(
        dt=cfg.macro_dt,
        t_end=cfg.macro_t_end,
        picard_tol=cfg.macro_picard_tol,
        picard_cap=cfg.macro_picard_cap,
        drift=cfg.macro_drift,
        bc=cfg.macro_bc,
        lin_tol=cfg.solver_tol,
        lam2=cfg.lam * cfg.lam,
        loceq_window=cfg.macro_loceq_window,
    )


def _macro_initial_state(cfg: RunConfig) -> MacroState:
    u1, u2 = initial_density_fields(
        cfg.macro_init, cfg.macro_init_amplitude, cfg.cell_dim, cfg.macro_resolution
    )
    return MacroState(u1=u1, u2=u2, u3=np.zeros_like(u1), t=0.0)


def _micro_initial_state(cfg: RunConfig, dom) -> MicroState:
    u1, u2 = initial_density_fields(
        cfg.macro_init, cfg.macro_init_amplitude, cfg.cell_dim, dom.resolution
    )
    nplus = u1 * dom.mask
    nminus = u2 * dom.mask
    phi = solve_micro_poisson(dom, nplus, nminus, tol=cfg.solver_tol)
    return MicroState(nplus=nplus, nminus=nminus, phi=phi, t=0.0)


def _provenance(cfg: RunConfig, command: str, extra: dict | None = None) -> str:
    record = {
        "command": command,
        "config_sha256": cfg.config_hash,
        "version": __version__,
    }
    if extra:
        record.update(extra)
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _write_diagnostics_csv(path, rows) -> None:
    lines = [DIAG_HEADER]
    for r in rows:
        lines.append(
            "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g"
            % (r.t, r.mass1, r.mass2, r.charge, r.free_energy, r.picard_iters, r.loceq_dev)
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _build_cell(cfg: RunConfig):
    return build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)


def _compute_tensors(cfg: RunConfig):
    cell = _build_cell(cfg)
    params = PermittivityParams(lam=cfg.lam, alpha=cfg.alpha)
    tensors, correctors = compute_effective_tensors(
        cell,
        params,
        tol=cfg.solver_tol,
        second_order=cfg.solver_second_order,
    )
    tensors.provenance["config_sha256"] = cfg.config_hash
    if cfg.cell_kind == "mask":
        # the path as written keeps the bytes independent of the run directory
        tensors.provenance["geometry"] = dict(cell.geometry_spec, path=cfg.cell_mask_path)
    return cell, tensors, correctors


def cmd_cell(cfg: RunConfig, out: Path) -> int:
    cell, tensors, correctors = _compute_tensors(cfg)
    for j in range(cell.dim):
        name = f"xi3_{j + 1}"
        atomic_write_text(out / f"{name}.dat", format_field(name, correctors.xi3[j]))
        name = f"eta_{j + 1}"
        atomic_write_text(out / f"{name}.dat", format_field(name, correctors.eta[j]))
    if correctors.zeta3 is not None:
        for k in range(cell.dim):
            for l in range(cell.dim):
                name = f"zeta3_{k + 1}{l + 1}"
                atomic_write_text(
                    out / f"{name}.dat", format_field(name, correctors.zeta3[k, l])
                )
    atomic_write_text(out / "tensors.json", tensors.to_json())
    atomic_write_text(out / "provenance.json", _provenance(cfg, "cell"))
    return EXIT_OK


def cmd_upscale(cfg: RunConfig, out: Path) -> int:
    _cell, tensors, _correctors = _compute_tensors(cfg)
    if out.suffix == ".json":
        atomic_write_text(out, tensors.to_json())
    else:
        atomic_write_text(out / "tensors.json", tensors.to_json())
    return EXIT_OK


def _load_or_compute_tensors(cfg: RunConfig, tensors_path):
    if tensors_path:
        text = Path(tensors_path).read_text()
        return EffectiveTensors.from_json(text)
    _cell, tensors, _correctors = _compute_tensors(cfg)
    return tensors


def cmd_macro(cfg: RunConfig, out: Path, tensors_path) -> int:
    tensors = _load_or_compute_tensors(cfg, tensors_path)
    mcfg = _macro_config(cfg)
    init = _macro_initial_state(cfg)
    snapshots, rows = run_macro(mcfg, tensors, init, snapshot_times=cfg.output_snapshots)
    _write_diagnostics_csv(out / "diagnostics.csv", rows)
    snap_times = {}
    for k, (t, state) in enumerate(snapshots):
        for var, values in (("u1", state.u1), ("u2", state.u2), ("u3", state.u3)):
            name = f"{var}_{k:03d}"
            atomic_write_text(out / f"{name}.dat", format_field(name, values))
        snap_times[f"{k:03d}"] = t
    atomic_write_text(
        out / "provenance.json", _provenance(cfg, "macro", {"snapshots": snap_times})
    )
    return EXIT_OK


def cmd_micro(cfg: RunConfig, out: Path) -> int:
    cell = _build_cell(cfg)
    params = PermittivityParams(lam=cfg.lam, alpha=cfg.alpha)
    mcfg = _macro_config(cfg)
    n_steps = int(round(cfg.macro_t_end / cfg.macro_dt))
    for frac in cfg.micro_s:
        dom = assemble_micro_domain(cell, params, frac, max_cells=cfg.micro_budget)
        init = _micro_initial_state(cfg, dom)
        state, rows = run_micro(dom, init, cfg.macro_dt, n_steps, mcfg)
        subdir = out / f"s_{frac.denominator}"
        for var, values in (
            ("nplus", state.nplus),
            ("nminus", state.nminus),
            ("phi", state.phi),
        ):
            atomic_write_text(subdir / f"{var}.dat", format_field(var, values))
        lines = ["t,mass1,mass2,charge,picard_iters"]
        for r in rows:
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%d"
                % (r["t"], r["mass1"], r["mass2"], r["charge"], r["picard_iters"])
            )
        atomic_write_text(subdir / "diagnostics.csv", "\n".join(lines) + "\n")
    atomic_write_text(out / "provenance.json", _provenance(cfg, "micro"))
    return EXIT_OK


def run_validation(cfg: RunConfig):
    """Full pipeline for each configured scale ratio.

    Returns one row per s: relative L2 errors of the DNS potential against
    the interpolated macro potential (macro-only) and against the two-scale
    reconstruction, plus density reconstruction errors on the fluid region.
    """
    cell, tensors, correctors = _compute_tensors(cfg)
    mcfg = _macro_config(cfg)
    init = _macro_initial_state(cfg)
    snapshots, _rows = run_macro(mcfg, tensors, init)
    macro_final = snapshots[-1][1]

    params = PermittivityParams(lam=cfg.lam, alpha=cfg.alpha)
    n_steps = int(round(cfg.macro_t_end / cfg.macro_dt))
    results = []
    for frac in cfg.micro_s:
        dom = assemble_micro_domain(cell, params, frac, max_cells=cfg.micro_budget)
        dns_init = _micro_initial_state(cfg, dom)
        dns, _ = run_micro(dom, dns_init, cfg.macro_dt, n_steps, mcfg)
        recon = reconstruct_two_scale(macro_final, correctors, tensors, dom)
        macro_phi = interpolate_to_fine(macro_final.u3, dom.mask.shape)
        macro_phi = macro_phi - macro_phi.mean()
        err_phi = compare_fields(macro_phi, dns.phi).l2_rel
        err_recon = compare_fields(recon.phi, dns.phi).l2_rel
        err_n1 = compare_fields(recon.nplus, dns.nplus, mask=dom.mask).l2_rel
        err_n2 = compare_fields(recon.nminus, dns.nminus, mask=dom.mask).l2_rel
        results.append(
            {
                "s": float(frac),
                "err_phi_L2": err_phi,
                "err_n1_L2": err_n1,
                "err_n2_L2": err_n2,
                "err_phi_recon_L2": err_recon,
            }
        )
    return results


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    results = run_validation(cfg)
    lines = [VALIDATE_HEADER]
    for r in results:
        lines.append(
            "%.17g,%.17g,%.17g,%.17g,%.17g"
            % (r["s"], r["err_phi_L2"], r["err_n1_L2"], r["err_n2_L2"], r["err_phi_recon_L2"])
        )
    if out.suffix == ".csv":
        atomic_write_text(out, "\n".join(lines) + "\n")
        atomic_write_text(out.with_suffix(".provenance.json"), _provenance(cfg, "validate"))
    else:
        atomic_write_text(out / "report.csv", "\n".join(lines) + "\n")
        atomic_write_text(out / "provenance.json", _provenance(cfg, "validate"))
    if cfg.micro_fail_threshold is not None:
        worst = max(r["err_phi_recon_L2"] for r in results)
        if worst > cfg.micro_fail_threshold:
            raise ValidationError(
                f"reconstruction error {worst:.3e} exceeds threshold "
                f"{cfg.micro_fail_threshold:.3e}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnp-upscale",
        description="Porous-medium PNP upscaling: cell problems, effective "
        "tensors, macroscopic runs and DNS validation.",
    )
    parser.add_argument("command", choices=["cell", "upscale", "macro", "micro", "validate"])
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=None, help="output directory (or file where documented)")
    parser.add_argument("--tensors", default=None, help="tensors.json to reuse (macro)")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tensors is not None and args.command != "macro":
        parser.error(f"--tensors applies to macro only, not to {args.command}")
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    try:
        if args.command == "cell":
            return cmd_cell(cfg, out)
        if args.command == "upscale":
            return cmd_upscale(cfg, out)
        if args.command == "macro":
            return cmd_macro(cfg, out, args.tensors)
        if args.command == "micro":
            return cmd_micro(cfg, out)
        return cmd_validate(cfg, out)
    except ValidationError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except (SolverError, GeometryError, BudgetError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_SOLVER


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
