"""Quasi-exact bound states of U = -alpha/r + beta*r + k*r^2.

The radial Schroedinger problem with a Coulomb + linear + harmonic potential
reduces to a bi-confluent Heun equation; terminating its 3-term series
recurrence yields polynomial bound states on a constraint manifold of the
potential parameters. This package computes those solutions and
cross-validates every energy against an independent Lagrange-Laguerre mesh
eigensolver.
"""

from .model import PhysicalSystem
from .oracle import RadialGrid, confirm, node_count
from .quantize import QuasiExactSolution, solve_family, wavefunction
from .verify import run_acceptance

__all__ = [
    "PhysicalSystem",
    "QuasiExactSolution",
    "RadialGrid",
    "confirm",
    "node_count",
    "run_acceptance",
    "solve_family",
    "wavefunction",
]

__version__ = "0.1.0"
