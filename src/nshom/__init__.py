"""Nonlocal stochastic Schrodinger equations on D = (-1, 1): dense singular-kernel
operators, periodic-cell correctors, effective drift assembly, Ito time stepping,
and coupled-path convergence experiments."""

__version__ = "0.1.0"

from .kernel import (
    Grid1D,
    KernelParams,
    gamma,
    rho,
    dstar_apply,
    assemble_heterogeneous_generator,
    pv_oracle,
)
from .cell import (
    CellGrid,
    CellSolution,
    periodized_kernel_weight,
    assemble_cell_form,
    solve_cell_problem,
    solve_periodic_poisson,
)
from .effective import (
    EffectiveCoefficients,
    compute_effective_coefficients,
    compute_zeta,
    apply_restricted_divergence,
    assemble_effective_generator,
)
from .integrator import (
    NoiseModel,
    BrownianPath,
    SimConfig,
    Heterogeneous,
    Effective,
    brownian_increments,
    simulate,
)

__all__ = [
    "Grid1D", "KernelParams",
    "gamma", "rho", "dstar_apply", "assemble_heterogeneous_generator", "pv_oracle",
    "CellGrid", "CellSolution", "periodized_kernel_weight", "assemble_cell_form",
    "solve_cell_problem", "solve_periodic_poisson",
    "EffectiveCoefficients", "compute_effective_coefficients",
    "compute_zeta", "apply_restricted_divergence", "assemble_effective_generator",
    "NoiseModel", "BrownianPath", "SimConfig", "Heterogeneous", "Effective",
    "brownian_increments", "simulate",
]
