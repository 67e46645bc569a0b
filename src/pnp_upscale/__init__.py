"""Porous-medium Poisson-Nernst-Planck upscaling toolkit.

Pipeline: voxelized periodic reference cell -> corrector cell problems ->
effective tensors -> upscaled macroscopic PNP solver, validated against
direct numerical simulation of the oscillating-coefficient system.
"""

from .unitcell import (
    GeometryError,
    PermittivityParams,
    UnitCell,
    build_unit_cell,
    permittivity_field,
    porosity,
)
from .cellcorrect import (
    CorrectorSet,
    PeriodicEllipticProblem,
    SolverError,
    solve_density_corrector_shape,
    solve_periodic_elliptic,
    solve_potential_corrector,
    solve_second_order_potential_corrector,
)
from .upscale import (
    EffectiveTensors,
    MaterialTensorReport,
    compute_effective_tensors,
    diffusion_shape_tensor,
    effective_permittivity,
    electro_convection_tensor,
    material_tensor_report,
    permittivity_bounds,
)
from .macropnp import (
    DiagnosticsRow,
    MacroConfig,
    MacroState,
    StepConfig,
    check_local_equilibrium,
    free_energy,
    free_energy_effective,
    run_macro,
    step_macro_pnp,
)
from .microdns import (
    FieldErrors,
    MicroDomain,
    MicroState,
    assemble_micro_domain,
    compare_fields,
    reconstruct_two_scale,
    run_micro,
    step_micro_pnp,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "GeometryError",
    "PermittivityParams",
    "UnitCell",
    "build_unit_cell",
    "permittivity_field",
    "porosity",
    "CorrectorSet",
    "PeriodicEllipticProblem",
    "SolverError",
    "solve_density_corrector_shape",
    "solve_periodic_elliptic",
    "solve_potential_corrector",
    "solve_second_order_potential_corrector",
    "EffectiveTensors",
    "MaterialTensorReport",
    "compute_effective_tensors",
    "diffusion_shape_tensor",
    "effective_permittivity",
    "electro_convection_tensor",
    "material_tensor_report",
    "permittivity_bounds",
    "DiagnosticsRow",
    "MacroConfig",
    "MacroState",
    "StepConfig",
    "check_local_equilibrium",
    "free_energy",
    "free_energy_effective",
    "run_macro",
    "step_macro_pnp",
    "FieldErrors",
    "MicroDomain",
    "MicroState",
    "assemble_micro_domain",
    "compare_fields",
    "reconstruct_two_scale",
    "run_micro",
    "step_micro_pnp",
    "ConfigError",
    "RunConfig",
    "load_config",
]
