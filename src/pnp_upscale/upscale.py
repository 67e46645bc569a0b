"""Effective tensors assembled from the cell correctors.

Quadrature is face-based and matches the finite-volume operator exactly:
the i-th row of a tensor averages face fluxes over the faces normal to
direction i.  This preserves, at the discrete level, the identity between
the flux form and the energy form of the effective permittivity, and puts
its eigenvalues inside the harmonic/arithmetic (Reuss/Voigt) bounds.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .cellcorrect import (
    CorrectorSet,
    SolverError,
    face_gradient,
    harmonic_face_coefficients,
    solve_density_corrector_shape,
    solve_potential_corrector,
    solve_second_order_potential_corrector,
)
from .config import ConfigError, RunConfig
from .unitcell import PermittivityParams, UnitCell, permittivity_field, porosity

logger = logging.getLogger(__name__)

FLUX_ENERGY_RTOL = 1e-8
SYMMETRY_RTOL = 1e-8
BOUNDS_SLACK = 1e-6


def symmetry_defect(t: np.ndarray) -> float:
    scale = max(float(np.abs(t).max()), 1e-300)
    return float(np.abs(t - t.T).max()) / scale


def eps0_defect(eps0: np.ndarray) -> str | None:
    """Why a finite square eps0 cannot make a Poisson operator, or None: a
    ``symmetry_defect`` above 1e-8, or an eigenvalue <= 0.  One line."""
    if symmetry_defect(eps0) > SYMMETRY_RTOL:
        return "eps0 is not symmetric"
    eigs = np.linalg.eigvalsh(0.5 * (eps0 + eps0.T))
    if eigs.min() <= 0.0:
        return f"eps0 is not positive definite (eigenvalues {np.array2string(eigs, np.inf)})"
    return None


@dataclass(eq=False)
class EffectiveTensors:
    """Upscaled material data for the macroscopic model.

    eps0 is the effective permittivity, M the electro-convection tensor and
    Hhat the diffusion shape so that the concentration-proportional transport
    tensor of species r is z_r * u_r(t,x) * Hhat.  The dimension is eps0's.
    Raises ValueError, a line per violation, unless 0 < p <= 1, eps0, M and
    Hhat are finite and share one square shape, and ``eps0_defect`` passes.
    """

    p: float
    eps0: np.ndarray
    M: np.ndarray
    Hhat: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.p = float(self.p)
        errors = [] if 0.0 < self.p <= 1.0 else [f"porosity p = {self.p} is outside (0, 1]"]
        shape = np.shape(self.eps0)
        if len(shape) != 2 or shape[0] != shape[1]:
            errors.append(f"eps0 has shape {shape}, not a square matrix")
        for name in ("eps0", "M", "Hhat"):
            value = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, value)
            if value.shape != shape:
                errors.append(f"{name} has shape {value.shape}, eps0 {shape}")
            elif not np.isfinite(value).all():
                errors.append(f"{name} has non-finite entries")
        if not errors and (defect := eps0_defect(self.eps0)):
            errors.append(defect)
        if errors:
            raise ValueError("\n".join(errors))

    @property
    def dim(self) -> int:
        return len(self.eps0)

    def to_json_dict(self) -> dict:
        tensors = {name: getattr(self, name).tolist() for name in ("eps0", "M", "Hhat")}
        return {"p": self.p, **tensors, "provenance": {"dim": self.dim, **self.provenance}}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "EffectiveTensors":
        """Raises ConfigError unless every key is present and parses, and
        the tensors pass their own checks: one error per failed check."""
        if not isinstance(data, dict):
            raise ConfigError(["not a JSON object"])
        missing = [key for key in ("p", "eps0", "M", "Hhat") if key not in data]
        if missing:
            raise ConfigError([f"missing key {key!r}" for key in missing])
        try:
            p = float(data["p"])
            eps0, M, Hhat = (np.asarray(data[key], dtype=float) for key in ("eps0", "M", "Hhat"))
            provenance = dict(data.get("provenance", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError([f"malformed entry: {exc}"]) from exc
        try:
            return cls(p=p, eps0=eps0, M=M, Hhat=Hhat, provenance=provenance)
        except ValueError as exc:
            raise ConfigError(str(exc).split("\n")) from exc

    @classmethod
    def from_json(cls, text: str) -> "EffectiveTensors":
        return cls.from_json_dict(json.loads(text))


def effective_permittivity(cell: UnitCell, kappa: np.ndarray, xi3: np.ndarray,
                           tol: float = RunConfig.solver_tol) -> np.ndarray:
    """Effective permittivity from the potential correctors (flux form).

    eps0[i,k] averages kappa * (delta_ik - d_i xi_k) over the faces normal to
    i.  The energy form, averaging kappa (e_i - grad xi_i).(e_k - grad xi_k)
    over all faces, agrees with it up to the corrector solve residual; a
    larger disagreement raises, naming the contrast max/min kappa and the
    ``tol`` xi3 was solved to: the contrast amplifies the solve residual.
    """
    N = cell.dim
    h = cell.h
    faces = harmonic_face_coefficients(np.asarray(kappa, dtype=float))
    grad = [[face_gradient(xi3[k], d, h) for k in range(N)] for d in range(N)]

    def corrected(d, k):
        g = grad[d][k]
        return (1.0 - g) if d == k else -g

    flux = np.empty((N, N))
    energy = np.empty((N, N))
    for i in range(N):
        for k in range(N):
            flux[i, k] = float(np.mean(faces[i] * corrected(i, k)))
            energy[i, k] = sum(
                float(np.mean(faces[d] * corrected(d, i) * corrected(d, k)))
                for d in range(N)
            )
    scale = max(float(np.abs(flux).max()), 1e-300)
    defect = float(np.abs(flux - energy).max()) / scale
    if defect > FLUX_ENERGY_RTOL:
        raise SolverError(
            f"flux-form vs energy-form disagreement {defect:.3e} exceeds "
            f"{FLUX_ENERGY_RTOL:.0e}; likely cause: the coefficient contrast max/min "
            f"kappa = {kappa.max() / kappa.min():.3g} for correctors solved to tol = {tol:.3g}"
        )
    logger.debug("eps0 flux/energy agreement: %.3e", defect)
    return flux


def electro_convection_tensor(cell: UnitCell, xi3: np.ndarray) -> np.ndarray:
    """M[i,k] = (1/|Y|) int_{Y^s} (delta_ik - d_i xi_k); reduces to p*I when xi3 = 0."""
    N = cell.dim
    h = cell.h
    chi = cell.fluid_mask.astype(float)
    p = porosity(cell)
    M = np.zeros((N, N))
    for i in range(N):
        w = 0.5 * (chi + np.roll(chi, -1, axis=i))  # fluid volume carried by each face
        for k in range(N):
            g = face_gradient(xi3[k], i, h)
            M[i, k] = (p if i == k else 0.0) - float(np.mean(w * g))
    return M


def diffusion_shape_tensor(cell: UnitCell, eta: np.ndarray) -> np.ndarray:
    """Hhat[i,k] = (1/|Y|) int_{Y^s} d_i eta_k over fluid-fluid faces.

    The species transport tensor is recovered as z_r * u_r * Hhat; Hhat is
    reported unsymmetrized.
    """
    N = cell.dim
    h = cell.h
    mask = cell.fluid_mask
    H = np.zeros((N, N))
    for i in range(N):
        ff = (mask & np.roll(mask, -1, axis=i)).astype(float)
        for k in range(N):
            H[i, k] = float(np.mean(ff * face_gradient(eta[k], i, h)))
    return H


def permittivity_bounds(kappa: np.ndarray) -> tuple[float, float]:
    """(harmonic mean, arithmetic mean) of the coefficient over the cell."""
    kappa = np.asarray(kappa, dtype=float)
    return float(1.0 / np.mean(1.0 / kappa)), float(np.mean(kappa))


def check_spectral_bounds(eps0: np.ndarray, kappa: np.ndarray) -> tuple[float, float]:
    """Assert the eigenvalues of eps0 sit inside the Reuss/Voigt interval."""
    harm, arith = permittivity_bounds(kappa)
    sym = 0.5 * (eps0 + eps0.T)
    eigs = np.linalg.eigvalsh(sym)
    tol = BOUNDS_SLACK * arith
    if eigs.min() < harm - tol or eigs.max() > arith + tol:
        raise SolverError(f"eps0 eigenvalues {eigs} violate the bounds [{harm:.6g}, {arith:.6g}]")
    return float(eigs.min()), float(eigs.max())


def compute_effective_tensors(cell: UnitCell, params: PermittivityParams,
                              tol: float = RunConfig.solver_tol,
                              second_order: bool = RunConfig.solver_second_order):
    """Full cell-problem pipeline: correctors, tensors and certificates.

    Returns (EffectiveTensors, CorrectorSet).  The second-order correctors
    need the assembled eps0, so the natural order is xi3 -> eps0 -> zeta3.
    """
    kappa = permittivity_field(cell, params)
    xi3, res_xi = solve_potential_corrector(cell, kappa, tol=tol)
    eps0 = effective_permittivity(cell, kappa, xi3, tol)
    defect = symmetry_defect(eps0)
    if defect > SYMMETRY_RTOL:
        raise SolverError(f"eps0 symmetry defect {defect:.3e} exceeds {SYMMETRY_RTOL:.0e}")
    lo, hi = check_spectral_bounds(eps0, kappa)

    M = electro_convection_tensor(cell, xi3)
    eta, res_eta = solve_density_corrector_shape(cell, xi3, tol=tol)
    Hhat = diffusion_shape_tensor(cell, eta)

    residuals = {}
    for j in range(cell.dim):
        residuals[f"xi3_{j + 1}"] = res_xi[j]
        residuals[f"eta_{j + 1}"] = res_eta[j]

    zeta3 = None
    if second_order:
        zeta3, res_z = solve_second_order_potential_corrector(cell, kappa, xi3, eps0, tol=tol)
        for k in range(cell.dim):
            for l in range(cell.dim):
                residuals[f"zeta3_{k + 1}{l + 1}"] = res_z[k * cell.dim + l]

    correctors = CorrectorSet(xi3=xi3, eta=eta, zeta3=zeta3, residuals=residuals)
    provenance = {
        "cell_hash": cell.mask_hash,
        "geometry": cell.geometry_spec,
        "resolution": cell.resolution,
        "dim": cell.dim,
        "lambda": params.lam,
        "alpha": params.alpha,
        "solver_tol": tol,
        "max_residual": max(residuals.values()) if residuals else 0.0,
        "eps0_eig_range": [lo, hi],
    }
    tensors = EffectiveTensors(p=porosity(cell), eps0=eps0, M=M, Hhat=Hhat,
                               provenance=provenance)
    return tensors, correctors

