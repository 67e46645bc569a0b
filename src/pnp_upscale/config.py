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
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from numbers import Integral
from pathlib import Path


class ConfigError(ValueError):
    """One or more configuration violations; str() lists them all."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


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
        if defect := scale_ratio_defect(frac, tok):
            raise ValueError(defect)
        out.append(frac)
    if not out:
        raise ValueError("empty list")
    return tuple(out)


def _positive(x):
    return None if x > 0 else f"must be positive, got {x}"


def _in_unit(x):
    return None if 0 < x <= 1 else f"must be in (0, 1], got {x}"


def _choice(*options):
    listed = "|".join(map(str, options))
    return lambda x: None if x in options else f"must be one of {listed}, got {x!r}"


def _at_least(lo):
    return lambda x: None if x >= lo else f"must be >= {lo}, got {x}"


# The rules the config file shares with the library: each returns why it
# rejects its input, or None, and names the library code that applies it.
def tolerance_defect(tol: float) -> str | None:
    """At x = 0 every certificate is at most 1, so a tolerance outside (0, 1)
    solves nothing or never stops; the library's solvers apply it."""
    if 0 < tol < 1:
        return None
    return f"tolerance {tol} lies outside (0, 1); at x = 0 every certificate is at most 1"


def coefficient_defect(values: dict) -> str | None:
    """A permittivity taking the {name: value} ``values`` needs the face mean
    2ab/(a+b) of every pair, as ``cellcorrect.harmonic_face_coefficients``
    computes it, to be a positive finite float; ``unitcell.PermittivityParams``."""
    for na, a in values.items():
        for nb, b in values.items():
            mean = 2.0 * a * b / (a + b) if a + b else math.nan
            if not 0.0 < mean < math.inf:
                return (f"the harmonic face mean of {na} = {a} and {nb} = {b} is {mean}, "
                        "not a positive finite float")
    return None


def scale_ratio_defect(s: Fraction, shown) -> str | None:
    """``s``, written ``shown``, must be 1/tiles; ``microdns.assemble_micro_domain``."""
    if not 0 < s <= 1:
        return f"scale ratio {shown} outside (0, 1]"
    return None if s.numerator == 1 else f"scale ratio {shown} is not the inverse of an integer"


def tile_count_defect(tiles) -> str | None:
    """A tile count must be a positive integer; ``microdns.MicroDomain``."""
    ok = isinstance(tiles, Integral) and tiles >= 1
    return None if ok else f"tile count must be a positive integer, got {tiles!r}"


def laminate_axis_defect(axis: int, dim: int) -> str | None:
    """axis < dim, past the cell.axis key check; ``unitcell.build_unit_cell``."""
    return None if axis < dim else f"{axis} out of range for dim {dim}"


def disc_radius_defect(radius: float) -> str | None:
    """A centred disc must fit the cell; ``unitcell.build_unit_cell``."""
    return None if 0 < radius <= 0.5 else f"must be in (0, 0.5], got {radius}"


def mask_header_defect(header: list, dim, resolution) -> str | None:
    """A mask file's first two tokens must be [dim, resolution]; ``unitcell.build_unit_cell``."""
    if header == [str(dim), str(resolution)]:
        return None
    return (f"mask file header {' '.join(header)!r} does not match cell.dim = {dim} "
            f"and cell.resolution = {resolution}")


def step_count_defect(dt: float, t_end: float, dt_key: str = "dt",
                      t_end_key: str = "t_end") -> str | None:
    """A run of ``dt`` steps to ``t_end`` needs a whole number, at least 1,
    of steps; ``macropnp.MacroConfig``.  The keys name the two settings."""
    steps = t_end / dt
    if not steps >= 1:
        return f"{t_end_key} ({t_end}) must be at least {dt_key} ({dt})"
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        return f"{t_end_key} ({t_end}) must be a whole number of {dt_key} ({dt}) steps"
    return None


def snapshot_defect(t: float, dt: float, t_end: float, key: str = "snapshot",
                    dt_key: str = "dt", t_end_key: str = "t_end") -> str | None:
    """Some step of a run of ``dt`` steps to ``t_end`` must be the nearest to
    the snapshot time ``t``: t in [dt/2, t_end + dt/2]; ``macropnp.run_macro``."""
    lo, hi = 0.5 * dt, t_end + 0.5 * dt
    if lo <= t <= hi:
        return None
    return (f"{key} time {t} lies outside [{dt_key}/2, {t_end_key} + {dt_key}/2] = "
            f"[{lo}, {hi}], where the run snaps a time to its nearest step")


def setting(key: str, default, parse=float, check=lambda x: None,
            only_with: tuple | None = None):
    """A ``RunConfig`` field: the setting of the config-file ``key``, read by
    ``parse`` (which raises ``ValueError``) and then ``check``, which returns
    why it rejects the value, or None.  With ``only_with`` = (owner key,
    value) it takes effect only while the owner holds that value, and a field
    that is None then is required."""
    return field(default=default, metadata={"key": key, "parse": parse, "check": check,
                                            "only_with": only_with})


@dataclass
class RunConfig:
    """A run's settings; each ``setting`` field is one config-file key."""

    cell_kind: str = setting("cell.kind", "full", str,
                             _choice("full", "laminate", "disc", "mask"))
    cell_dim: int = setting("cell.dim", 2, int, _choice(1, 2, 3))
    cell_resolution: int = setting("cell.resolution", 32, int, _at_least(4))
    cell_fraction: float | None = setting("cell.fraction", None, float, _in_unit,
                                          ("cell.kind", "laminate"))
    cell_axis: int = setting("cell.axis", 0, int, _at_least(0), ("cell.kind", "laminate"))
    cell_radius: float | None = setting("cell.radius", None, check=disc_radius_defect,
                                        only_with=("cell.kind", "disc"))
    cell_mask_path: str | None = setting("cell.mask_path", None, str,
                                         only_with=("cell.kind", "mask"))  # as written
    cell_mask_file: str | None = field(default=None, init=False)  # resolved by load_config
    lam: float = setting("physics.lambda", 1.0, check=lambda x: _positive(x) or
                         coefficient_defect({"lambda^2": x * x}))
    alpha: float = setting("physics.alpha", 1.0, check=lambda x: _positive(x) or
                           coefficient_defect({"alpha": x}))
    solver_tol: float = setting("solver.tol", 1e-10, check=lambda x: _positive(x) or
                                tolerance_defect(x))
    solver_second_order: bool = setting("solver.second_order", True, _parse_bool)
    macro_resolution: int = setting("macro.resolution", 64, int, _at_least(4))
    macro_dt: float = setting("macro.dt", 1e-4, check=_positive)
    macro_t_end: float = setting("macro.t_end", 1e-3, check=_positive)
    macro_bc: str = setting("macro.bc", "dirichlet", str, _choice("dirichlet", "noflux"))
    macro_drift: str = setting("macro.drift", "upwind", str, _choice("upwind", "central"))
    macro_picard_tol: float = setting("macro.picard_tol", 1e-9, check=_positive)
    macro_picard_cap: int = setting("macro.picard_cap", 50, int, _at_least(1))
    macro_init: str = setting("macro.init", "asymmetric", str,
                              _choice("uniform", "eigenmode", "asymmetric"))
    macro_init_amplitude: float = setting(
        "macro.init_amplitude", 0.5, check=lambda a: None if -1.0 < a < 1.0 else
        f"must sit in (-1, 1) to keep densities positive, got {a}",
        only_with=("macro.init", "asymmetric"))
    macro_loceq_window: int = setting("macro.loceq_window", 4, int, _at_least(1))
    micro_s: tuple = setting("micro.s", (Fraction(1, 2),), _parse_fraction_list)
    micro_budget: int = setting("micro.budget", 1 << 20, int, _at_least(1))
    micro_fail_threshold: float | None = setting("micro.fail_threshold", None,
                                                 check=_positive)
    output_dir: str = setting("output.dir", "out", str)
    output_snapshots: tuple = setting("output.snapshots", (),
                                      lambda text: tuple(float(t) for t in text.split()))
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


#: the config file's key table: key -> its RunConfig field
KEYS = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}


def key_defect(key: str, value) -> str | None:
    """The check of ``key``, which the library's types apply to their fields."""
    return KEYS[key].metadata["check"](value)


def run_setting(key: str):
    """A field of a library settings class that the config-file ``key`` sets,
    with that key's ``RunConfig`` default."""
    return field(default=getattr(RunConfig, KEYS[key].name), metadata={"key": key})


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
            errors.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        entry = KEYS.get(key)
        if entry is None:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            parsed = entry.metadata["parse"](value)
            defect = entry.metadata["check"](parsed)
        except (ValueError, ArithmeticError) as exc:  # Fraction("1/0") divides by zero
            defect = exc
        if defect:
            errors.append(f"line {lineno}: {key}: {defect}")
            continue
        setattr(cfg, entry.name, parsed)

    _cross_validate(cfg, path, seen, errors)
    if errors:
        raise ConfigError(errors)
    cfg.config_hash = hashlib.sha256(text.encode()).hexdigest()
    return cfg


def _cross_validate(cfg: RunConfig, path: Path, seen: dict, errors: list) -> None:
    def where(key):
        return f"line {seen[key]}: " if key in seen else ""

    required = []  # reported after every "only with" error
    for key, f in KEYS.items():
        if f.metadata["only_with"] is None:
            continue
        owner, value = f.metadata["only_with"]
        if getattr(cfg, KEYS[owner].name) != value:
            if key in seen:
                errors.append(f"{where(key)}{key} takes effect only with {owner} = {value}")
        elif getattr(cfg, f.name) is None and key not in seen:  # else rejected above
            required.append(f"{owner}={value} requires {key}")
    errors.extend(required)
    kind = cfg.cell_kind
    if kind == "laminate" and (defect := laminate_axis_defect(cfg.cell_axis, cfg.cell_dim)):
        errors.append(f"{where('cell.axis')}cell.axis {defect}")
    if kind == "mask" and cfg.cell_mask_path is not None:
        mask_path = (path.parent / cfg.cell_mask_path).resolve()
        if not mask_path.is_file():
            errors.append(f"{where('cell.mask_path')}mask file not found: {mask_path}")
        else:
            cfg.cell_mask_file = str(mask_path)
            with open(mask_path) as fh:
                header = fh.readline().split()[:2]
            if defect := mask_header_defect(header, cfg.cell_dim, cfg.cell_resolution):
                errors.append(where("cell.mask_path") + defect)
    dt, t_end = cfg.macro_dt, cfg.macro_t_end
    defect = step_count_defect(dt, t_end, "macro.dt", "macro.t_end")
    if defect:
        errors.append(where("macro.t_end") + defect)
    for t in cfg.output_snapshots:
        defect = snapshot_defect(t, dt, t_end, "output.snapshots", "macro.dt", "macro.t_end")
        if defect:
            errors.append(where("output.snapshots") + defect)
