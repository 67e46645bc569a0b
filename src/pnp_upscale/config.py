"""Run configuration: plain-text dotted key/value files.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Every violation is collected with its line number and reported in
one shot; unknown and duplicate keys are rejected.  Example:

    cell.kind = disc
    cell.resolution = 32
    cell.radius = 0.25
    physics.lambda = 1.0
    physics.alpha = 4.0
    micro.s = 1/2 1/4 1/8
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


class ConfigError(ValueError):
    """One or more configuration violations; str() lists them all."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class RunConfig:
    cell_kind: str = "full"
    cell_dim: int = 2
    cell_resolution: int = 32
    cell_fraction: float | None = None
    cell_axis: int = 0
    cell_radius: float | None = None
    cell_mask_path: str | None = None  # as written in the config
    cell_mask_file: str | None = field(default=None, init=False)  # resolved by load_config
    lam: float = 1.0
    alpha: float = 1.0
    solver_tol: float = 1e-10
    solver_second_order: bool = True
    macro_resolution: int = 64
    macro_dt: float = 1e-4
    macro_t_end: float = 1e-3
    macro_bc: str = "dirichlet"
    macro_drift: str = "upwind"
    macro_picard_tol: float = 1e-9
    macro_picard_cap: int = 50
    macro_init: str = "asymmetric"
    macro_init_amplitude: float = 0.5
    macro_loceq_window: int = 4
    micro_s: tuple = (Fraction(1, 2),)
    micro_budget: int = 1 << 20
    micro_fail_threshold: float | None = None
    output_dir: str = "out"
    output_snapshots: tuple = ()
    config_hash: str = ""

    def geometry_spec(self) -> dict:
        spec = {"kind": self.cell_kind, "dim": self.cell_dim}
        if self.cell_kind == "laminate":
            spec["fraction"] = self.cell_fraction
            spec["axis"] = self.cell_axis
        elif self.cell_kind == "disc":
            spec["radius"] = self.cell_radius
        elif self.cell_kind == "mask":
            spec["path"] = self.cell_mask_file or self.cell_mask_path
        return spec


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_fraction_list(text: str) -> tuple:
    out = []
    for tok in text.split():
        frac = Fraction(tok)
        if not 0 < frac <= 1:
            raise ValueError(f"scale ratio {tok} outside (0, 1]")
        if frac.numerator != 1:
            raise ValueError(f"scale ratio {tok} is not the inverse of an integer")
        out.append(frac)
    if not out:
        raise ValueError("empty list")
    return tuple(out)


def _parse_float_list(text: str) -> tuple:
    return tuple(float(t) for t in text.split())


def _positive(x):
    if not x > 0:
        raise ValueError(f"must be positive, got {x}")
    return x


def _in_unit(x):
    if not 0 < x <= 1:
        raise ValueError(f"must be in (0, 1], got {x}")
    return x


def _choice(*options):
    def check(x):
        if x not in options:
            raise ValueError(f"must be one of {'|'.join(options)}, got {x!r}")
        return x

    return check


def _at_least(lo):
    def check(x):
        if x < lo:
            raise ValueError(f"must be >= {lo}, got {x}")
        return x

    return check


# key -> (attribute, parser, validator or None)
_SCHEMA = {
    "cell.kind": ("cell_kind", str, _choice("full", "laminate", "disc", "mask")),
    "cell.dim": ("cell_dim", int, _choice(1, 2, 3)),
    "cell.resolution": ("cell_resolution", int, _at_least(4)),
    "cell.fraction": ("cell_fraction", float, _in_unit),
    "cell.axis": ("cell_axis", int, _at_least(0)),
    "cell.radius": ("cell_radius", float, None),
    "cell.mask_path": ("cell_mask_path", str, None),
    "physics.lambda": ("lam", float, _positive),
    "physics.alpha": ("alpha", float, _positive),
    "solver.tol": ("solver_tol", float, _positive),
    "solver.second_order": ("solver_second_order", _parse_bool, None),
    "macro.resolution": ("macro_resolution", int, _at_least(4)),
    "macro.dt": ("macro_dt", float, _positive),
    "macro.t_end": ("macro_t_end", float, _positive),
    "macro.bc": ("macro_bc", str, _choice("dirichlet", "noflux")),
    "macro.drift": ("macro_drift", str, _choice("upwind", "central")),
    "macro.picard_tol": ("macro_picard_tol", float, _positive),
    "macro.picard_cap": ("macro_picard_cap", int, _at_least(1)),
    "macro.init": ("macro_init", str, _choice("uniform", "eigenmode", "asymmetric")),
    "macro.init_amplitude": ("macro_init_amplitude", float, None),
    "macro.loceq_window": ("macro_loceq_window", int, _at_least(1)),
    "micro.s": ("micro_s", _parse_fraction_list, None),
    "micro.budget": ("micro_budget", int, _at_least(1)),
    "micro.fail_threshold": ("micro_fail_threshold", float, _positive),
    "output.dir": ("output_dir", str, None),
    "output.snapshots": ("output_snapshots", _parse_float_list, None),
}

# key -> (key, value) it takes effect under; set otherwise it would do nothing
_ONLY_WITH = {
    "cell.fraction": ("cell.kind", "laminate"),
    "cell.axis": ("cell.kind", "laminate"),
    "cell.radius": ("cell.kind", "disc"),
    "cell.mask_path": ("cell.kind", "mask"),
    "macro.init_amplitude": ("macro.init", "asymmetric"),
}


def load_config(path) -> RunConfig:
    """Parse and exhaustively validate a configuration file.

    Raises ConfigError carrying every violation (with line numbers) instead
    of stopping at the first one.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc

    errors: list[str] = []
    seen: dict[str, int] = {}
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            errors.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
            continue
        seen[key] = lineno
        entry = _SCHEMA.get(key)
        if entry is None:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        attr, parser, validator = entry
        try:
            parsed = parser(value)
            if validator is not None:
                parsed = validator(parsed)
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
            continue
        setattr(cfg, attr, parsed)

    _cross_validate(cfg, path, seen, errors)
    if errors:
        raise ConfigError(errors)
    cfg.config_hash = hashlib.sha256(text.encode()).hexdigest()
    return cfg


def _cross_validate(cfg: RunConfig, path: Path, seen: dict, errors: list) -> None:
    def where(key):
        return f"line {seen[key]}: " if key in seen else ""

    for key, (owner, value) in _ONLY_WITH.items():
        if key in seen and getattr(cfg, _SCHEMA[owner][0]) != value:
            errors.append(f"{where(key)}{key} takes effect only with {owner} = {value}")
    if cfg.cell_kind == "laminate":
        if cfg.cell_fraction is None:
            errors.append("cell.kind=laminate requires cell.fraction")
        if cfg.cell_axis >= cfg.cell_dim:
            errors.append(
                f"{where('cell.axis')}cell.axis {cfg.cell_axis} out of range for "
                f"dim {cfg.cell_dim}"
            )
    if cfg.cell_kind == "disc":
        if cfg.cell_radius is None:
            errors.append("cell.kind=disc requires cell.radius")
        elif not 0 < cfg.cell_radius <= 0.5:
            errors.append(
                f"{where('cell.radius')}cell.radius must be in (0, 0.5], got {cfg.cell_radius}"
            )
    if cfg.cell_kind == "mask":
        if cfg.cell_mask_path is None:
            errors.append("cell.kind=mask requires cell.mask_path")
        else:
            mask_path = (path.parent / cfg.cell_mask_path).resolve()
            if not mask_path.is_file():
                errors.append(
                    f"{where('cell.mask_path')}mask file not found: {mask_path}"
                )
            else:
                cfg.cell_mask_file = str(mask_path)
                with open(mask_path) as fh:
                    header = fh.readline().split()[:2]
                if header != [str(cfg.cell_dim), str(cfg.cell_resolution)]:
                    errors.append(f"{where('cell.mask_path')}mask file header "
                                  f"{' '.join(header)!r} does not match cell.dim = "
                                  f"{cfg.cell_dim} and cell.resolution = {cfg.cell_resolution}")
    dt, t_end, at = cfg.macro_dt, cfg.macro_t_end, where("macro.t_end")
    steps = t_end / dt
    if steps < 1:
        errors.append(f"{at}macro.t_end ({t_end}) must be at least macro.dt ({dt})")
    elif abs(steps - round(steps)) > 1e-9 * steps:
        errors.append(f"{at}macro.t_end ({t_end}) must be a whole number of macro.dt ({dt}) steps")
    lo, hi = 0.5 * dt, t_end + 0.5 * dt
    for t in cfg.output_snapshots:
        if not lo <= t <= hi:
            errors.append(f"{where('output.snapshots')}output.snapshots time {t} lies outside "
                          f"[macro.dt/2, macro.t_end + macro.dt/2] = [{lo}, {hi}], where the run "
                          "snaps a time to its nearest step")
    if not -1.0 < cfg.macro_init_amplitude < 1.0:
        errors.append(
            f"{where('macro.init_amplitude')}macro.init_amplitude must sit in "
            f"(-1, 1) to keep densities positive, got {cfg.macro_init_amplitude}"
        )
