"""Porous-medium Poisson-Nernst-Planck upscaling toolkit.

Pipeline: voxelized periodic reference cell -> corrector cell problems ->
effective tensors -> upscaled macroscopic PNP solver, validated against
direct numerical simulation of the oscillating-coefficient system.

The namespace is lazy (PEP 562, Scientific Python SPEC 1): importing the
package loads no submodule, and each name in ``__all__`` imports its
submodule on first access, so reading a config and building a cell never
compile the solvers.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "unitcell": (
        "GeometryError",
        "PermittivityParams",
        "UnitCell",
        "build_unit_cell",
        "permittivity_field",
        "porosity",
    ),
    "cellcorrect": (
        "CorrectorSet",
        "SolverError",
        "solve_density_corrector_shape",
        "solve_periodic",
        "solve_potential_corrector",
        "solve_second_order_potential_corrector",
    ),
    "upscale": (
        "EffectiveTensors",
        "compute_effective_tensors",
        "diffusion_shape_tensor",
        "effective_permittivity",
        "electro_convection_tensor",
        "permittivity_bounds",
    ),
    "macropnp": (
        "MacroConfig",
        "MacroState",
        "StepConfig",
        "check_local_equilibrium",
        "free_energy",
        "run_macro",
        "step_macro_pnp",
    ),
    "microdns": (
        "FieldErrors",
        "MicroDomain",
        "assemble_micro_domain",
        "compare_fields",
        "reconstruct_two_scale",
        "run_micro",
        "step_micro_pnp",
    ),
    "config": ("ConfigError", "RunConfig", "load_config"),
}

#: exported name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    """Import the submodule of an exported name on first access and bind the
    name here.  Other names raise ``AttributeError``, after which ``from
    pnp_upscale import macropnp`` falls back to importing the submodule."""
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
