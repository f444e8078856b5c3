"""Quasi-exact bound states of U = -alpha/r + beta*r + k*r^2.

The radial Schroedinger problem with a Coulomb + linear + harmonic potential
reduces to a bi-confluent Heun equation; terminating its 3-term series
recurrence yields polynomial bound states on a constraint manifold of the
potential parameters. This package computes those solutions and
cross-validates every energy against an independent Lagrange-Laguerre mesh
eigensolver.
"""

from .heun import (
    HeunParameters,
    coefficient_sequence,
    ode_residual,
    to_heun_params,
)
from .model import (
    PhysicalSystem,
    TurningPointSet,
    turning_points,
    vieta_residuals,
)
from .oracle import (
    EigenSolveResult,
    RadialGrid,
    confirm,
    fd_eigensolve,
    node_count,
)
from .quantize import (
    QuasiExactSolution,
    closed_form_n0,
    closed_form_n1,
    energy_from_termination,
    solve_family,
    wavefunction,
)
from .verify import run_acceptance

__all__ = [
    "EigenSolveResult",
    "HeunParameters",
    "PhysicalSystem",
    "QuasiExactSolution",
    "RadialGrid",
    "TurningPointSet",
    "closed_form_n0",
    "closed_form_n1",
    "coefficient_sequence",
    "confirm",
    "energy_from_termination",
    "fd_eigensolve",
    "node_count",
    "ode_residual",
    "run_acceptance",
    "solve_family",
    "to_heun_params",
    "turning_points",
    "vieta_residuals",
    "wavefunction",
]

__version__ = "0.1.0"
