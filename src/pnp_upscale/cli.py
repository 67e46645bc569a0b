"""Command-line pipeline: cell -> upscale -> macro -> micro -> validate.

One path per stage: ``_compute_tensors``, ``_macro_run`` and ``_dns_runs``.
``validate`` runs the macro run of ``macro`` (without snapshots) and, for
each scale ratio, the DNS of ``micro``.  Every CSV goes through
``_write_csv``, whose header is the keys of the rows the runs return, and
every grid dump through ``_write_fields``; all artifacts
are written atomically and carry the config hash, in the tensors document
or in a sibling ``provenance.json``.  Solvers are deterministic, so a rerun
of an unchanged configuration reproduces every output byte for byte.
``macro`` writes each snapshot's dumps as the run reaches it, so the run
holds no snapshot; t_end is its last snapshot time, and ``run_macro``
hands each state over once, however many times snap to it.
``diagnostics.csv`` and ``provenance.json`` follow the run, so a run that
fails leaves its finished snapshots but neither file.

Exit codes: 0 success, 2 configuration error, unusable ``--tensors`` file
or output path, 3 solver or geometry failure, 4 validation error above the
configured threshold.  Each command makes its output directory, or the
parent of the file that ``upscale`` and ``validate`` may write, first.
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
    assemble_micro_domain,
    compare_fields,
    interpolate_to_fine,
    reconstruct_two_scale,
    run_micro,
)
from .unitcell import GeometryError, PermittivityParams, build_unit_cell
from .upscale import EffectiveTensors, compute_effective_tensors

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4


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


def _provenance(cfg: RunConfig, command: str, extra: dict | None = None) -> str:
    record = {"command": command, "config_sha256": cfg.config_hash, "version": __version__}
    return json.dumps({**record, **(extra or {})}, indent=2, sort_keys=True) + "\n"


def _write_csv(path, rows) -> None:
    """A header line of the first row's keys, then one line per row dict,
    its values in that order, each as %.17g."""
    header = list(rows[0])
    lines = [",".join(header)]
    lines.extend(",".join("%.17g" % row[key] for key in header) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_fields(directory: Path, fields: dict) -> None:
    """One grid dump ``<name>.dat`` per entry of {name: array}."""
    for name, values in fields.items():
        atomic_write_text(directory / f"{name}.dat", format_field(name, values))


def _compute_tensors(cfg: RunConfig, second_order: bool = False):
    """(cell, tensors, correctors), with zeta3, which no tensor reads, on request."""
    cell = build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)
    params = PermittivityParams(lam=cfg.lam, alpha=cfg.alpha)
    tensors, correctors = compute_effective_tensors(cell, params, tol=cfg.solver_tol,
                                                    second_order=second_order)
    tensors.provenance["config_sha256"] = cfg.config_hash
    if cfg.cell_kind == "mask":
        # the path as written keeps the bytes independent of the run directory
        tensors.provenance["geometry"] = dict(cell.geometry_spec, path=cfg.cell_mask_path)
    return cell, tensors, correctors


def _macro_run(cfg: RunConfig, tensors: EffectiveTensors, write_snapshot=None):
    """The upscaled run from the configured initial data: (final state, rows).
    With ``write_snapshot``, the run hands it the state at each
    ``output.snapshots`` time and at t_end, each state once, as it reaches
    it; without, it takes none."""
    u1, u2 = initial_density_fields(
        cfg.macro_init, cfg.macro_init_amplitude, cfg.cell_dim, cfg.macro_resolution
    )
    init = MacroState(u1=u1, u2=u2, u3=np.zeros_like(u1), t=0.0)
    times = (*cfg.output_snapshots, cfg.macro_t_end) if write_snapshot is not None else ()
    return run_macro(MacroConfig.from_run(cfg), tensors, init, times, write_snapshot)


def _dns_runs(cfg: RunConfig, cell):
    """Yield (s, domain, final state, diagnostics rows) of the DNS at each
    micro.s, run with the macro run's dt and t_end.  It starts from phi = 0:
    the first step solves its potential afresh.  The initial state is
    handed to ``run_micro`` in a list that the run empties, so that it does
    not outlive the first step; the run's operators are freed when it
    returns, so none is alive when the caller gets the domain."""
    params = PermittivityParams(lam=cfg.lam, alpha=cfg.alpha)
    mcfg = MacroConfig.from_run(cfg)
    for frac in cfg.micro_s:
        dom = assemble_micro_domain(cell, params, frac, max_cells=cfg.micro_budget)
        u1, u2 = initial_density_fields(
            cfg.macro_init, cfg.macro_init_amplitude, cfg.cell_dim, dom.resolution
        )
        u1 *= dom.mask  # in place: no unmasked copies live through the run
        u2 *= dom.mask
        init = [MacroState(u1=u1, u2=u2, u3=np.zeros(dom.mask.shape), t=0.0)]
        del u1, u2
        state, rows = run_micro(dom, init, mcfg)
        yield frac, dom, state, rows


def cmd_cell(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    cell, tensors, correctors = _compute_tensors(cfg, cfg.solver_second_order)
    dims = range(cell.dim)
    fields = {f"xi3_{j + 1}": correctors.xi3[j] for j in dims}
    fields.update({f"eta_{j + 1}": correctors.eta[j] for j in dims})
    if correctors.zeta3 is not None:
        fields.update({f"zeta3_{k + 1}{l + 1}": correctors.zeta3[k, l]
                       for k in dims for l in dims})
    _write_fields(out, fields)
    atomic_write_text(out / "tensors.json", tensors.to_json())
    atomic_write_text(out / "provenance.json", _provenance(cfg, "cell"))
    return EXIT_OK


def cmd_upscale(cfg: RunConfig, out: Path) -> int:
    target = out if out.suffix == ".json" else out / "tensors.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    _cell, tensors, _correctors = _compute_tensors(cfg)
    atomic_write_text(target, tensors.to_json())
    return EXIT_OK


def cmd_macro(cfg: RunConfig, out: Path, tensors_path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if tensors_path:
        try:
            tensors = EffectiveTensors.from_json(Path(tensors_path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError([f"tensors file {tensors_path}: {exc}"]) from exc
        if tensors.dim != cfg.cell_dim:
            raise ConfigError([f"tensors file {tensors_path}: {tensors.dim}D tensors, "
                               f"cell.dim = {cfg.cell_dim}"])
    else:
        tensors = _compute_tensors(cfg)[1]
    snap_times = {}

    def write_snapshot(state: MacroState) -> None:
        key = f"{len(snap_times):03d}"
        _write_fields(out, {f"{var}_{key}": getattr(state, var) for var in ("u1", "u2", "u3")})
        snap_times[key] = state.t

    _write_csv(out / "diagnostics.csv", _macro_run(cfg, tensors, write_snapshot)[1])
    atomic_write_text(
        out / "provenance.json", _provenance(cfg, "macro", {"snapshots": snap_times})
    )
    return EXIT_OK


def cmd_micro(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    cell = build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)
    for frac, _dom, state, rows in _dns_runs(cfg, cell):
        subdir = out / f"s_{frac.denominator}"
        _write_fields(subdir, {"nplus": state.u1, "nminus": state.u2, "phi": state.u3})
        _write_csv(subdir / "diagnostics.csv", rows)
    atomic_write_text(out / "provenance.json", _provenance(cfg, "micro"))
    return EXIT_OK


def run_validation(cfg: RunConfig):
    """Full pipeline for each configured scale ratio.

    Returns one row per s: relative L2 errors of the DNS potential against
    the interpolated macro potential (macro-only) and against the two-scale
    reconstruction, plus density reconstruction errors on the fluid region.
    """
    cell, tensors, correctors = _compute_tensors(cfg, cfg.solver_second_order)
    macro_final, _rows = _macro_run(cfg, tensors)
    results = []
    for frac, dom, dns, _rows in _dns_runs(cfg, cell):
        recon = reconstruct_two_scale(macro_final, correctors, dom)
        macro_phi = interpolate_to_fine(macro_final.u3, dom.mask.shape)
        macro_phi = macro_phi - macro_phi.mean()
        results.append(
            {
                "s": float(frac),
                "err_phi_L2": compare_fields(macro_phi, dns.u3).l2_rel,
                "err_n1_L2": compare_fields(recon.u1, dns.u1, mask=dom.mask).l2_rel,
                "err_n2_L2": compare_fields(recon.u2, dns.u2, mask=dom.mask).l2_rel,
                "err_phi_recon_L2": compare_fields(recon.u3, dns.u3).l2_rel,
            }
        )
        del dns, recon, macro_phi  # the next, finer DNS runs without them
    return results


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    if out.suffix == ".csv":
        report, provenance = out, out.with_suffix(".provenance.json")
    else:
        report, provenance = out / "report.csv", out / "provenance.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    results = run_validation(cfg)
    _write_csv(report, results)
    atomic_write_text(provenance, _provenance(cfg, "validate"))
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
    # the level and a stderr handler go on the package's logger for this call
    # only; logging.basicConfig does nothing under a root logger with a handler
    log = logging.getLogger("pnp_upscale")
    level, handler = log.level, logging.StreamHandler()
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    log.setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    log.addHandler(handler)
    try:
        cfg = load_config(args.config)
        out = Path(args.out) if args.out else Path(cfg.output_dir)
        if args.command == "cell":
            return cmd_cell(cfg, out)
        if args.command == "upscale":
            return cmd_upscale(cfg, out)
        if args.command == "macro":
            return cmd_macro(cfg, out, args.tensors)
        if args.command == "micro":
            return cmd_micro(cfg, out)
        return cmd_validate(cfg, out)
    except (ConfigError, OSError) as exc:  # ConfigError first: it is a ValueError
        _emit_error(exc)
        return EXIT_CONFIG
    except ValidationError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except SolverError as exc:
        # a stall, or a residual lost below rounding, usually means the
        # configured tolerance is out of reach; picard_step does not know
        # lambda, so the ratio that decides whether its loop contracts is added here
        hint = ""
        if "stagnated" in str(exc) or "can certify" in str(exc):
            hint = "; raise solver.tol"
        elif "Picard loop diverged" in str(exc):
            hint = f"; lambda^2/dt = {cfg.lam ** 2 / cfg.macro_dt:.3g}"
        _emit_error(exc, hint)
        return EXIT_SOLVER
    except (GeometryError, BudgetError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_SOLVER
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _emit_error(exc: Exception, hint: str = "") -> None:
    record = {"error": type(exc).__name__, "message": str(exc) + hint}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
