"""Independent finite-difference eigensolver for the radial equation.

Discretizes f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta r - k r^2] f = 0 with
the standard second-order central stencil on a uniform grid and Dirichlet
boundaries. Eigenvalues come from bisection on the Sturm sequence of the
symmetric tridiagonal matrix, computed only at the requested levels, and
eigenvectors, only when asked for, from inverse iteration (LAPACK
stebz/stein via scipy). The operator eigenvalue lambda maps to eps = lambda/2.

This module never touches the Heun machinery; it exists to confirm (or
refute) quasi-exact energies and wavefunctions independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import PhysicalSystem, turning_points

DEFAULT_POINTS = 6000

# K^2 rmax^2 / 2 >= 27 puts the Gaussian tail below 1e-12.
_GAUSSIAN_TAIL_EXPONENT = 27.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid r_i = r_min + i*h with Dirichlet ends.

    Auto-sized grids put the first node at r_min = h so that the implicit
    left boundary sits exactly at r = 0 (where f = 0 for every l); this
    keeps the stencil second-order accurate.
    """

    r_min: float
    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not (0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max (got {self.r_min}, {self.r_max})")
        if self.points < 16:
            raise ValueError(f"points must be >= 16 (got {self.points})")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.points)

    @classmethod
    def auto(
        cls,
        sys: PhysicalSystem,
        epsilon_hint: float | None = None,
        points: int = DEFAULT_POINTS,
    ) -> "RadialGrid":
        """Turning-point-aware domain: r_max covers 1.5x the outer turning
        point and the radius where the Gaussian envelope drops below 1e-12."""
        K = sys.K
        r_gauss = (2.0 * _GAUSSIAN_TAIL_EXPONENT) ** 0.5 / K
        if epsilon_hint is None:
            epsilon_hint = K * K * (sys.l + 1.5)
        tp = turning_points(sys, epsilon_hint)
        r_outer = max((z.real for z in tp.roots if abs(z.imag) == 0.0), default=0.0)
        r_edge = max(1.5 * r_outer, r_gauss)
        h = r_edge / (points + 1)
        return cls(r_min=h, r_max=points * h, points=points)

    def refined(self) -> "RadialGrid":
        """Grid with exactly halved spacing covering the same domain."""
        h2 = self.spacing / 2.0
        if abs(self.r_min - self.spacing) < 1e-12 * self.spacing:
            # aligned grid: keep the implicit boundaries at 0 and r_max + h
            n = 2 * self.points + 1
            return RadialGrid(r_min=h2, r_max=n * h2, points=n)
        return RadialGrid(r_min=self.r_min, r_max=self.r_max, points=2 * self.points - 1)


@dataclass(frozen=True)
class EigenSolveResult:
    """Eigenvalues of the discretized radial operator at the requested levels.

    ``energies[i]`` belongs to the i-th requested level (0 = ground state). When
    eigenvectors were asked for, ``vectors[i]`` samples f(r) = r R(r) on the
    grid nodes, L2-normalized (sum f^2 h = 1) with positive leading sign;
    otherwise ``vectors`` is None.
    """

    energies: np.ndarray
    vectors: np.ndarray | None  # shape (len(levels), points)
    grid: RadialGrid


@dataclass(frozen=True)
class Confirmation:
    """Outcome of checking one energy against the oracle level at ``level``.

    ``gap`` = |richardson - epsilon|; ``vector`` is the level's coarse-grid
    eigenvector (as in EigenSolveResult), or None unless it was asked for.
    """

    level: int
    plain: float
    richardson: float
    gap: float
    passed: bool
    vector: np.ndarray | None


def fd_eigensolve(
    sys: PhysicalSystem, grid: RadialGrid, levels: range, vectors: bool = False
) -> EigenSolveResult:
    """Eigenvalues at ``levels`` (consecutive, ascending) of the radial problem
    on grid, plus their eigenvectors when ``vectors`` is true."""
    if levels.step != 1 or len(levels) < 1 or levels.start < 0:
        raise ValueError(f"levels must be a non-empty range from >= 0 (got {levels})")
    if levels.stop > grid.points - 2:
        raise ValueError(f"levels {levels} exceed points-2={grid.points - 2}")
    r = grid.nodes()
    h = grid.spacing
    v = -sys.alpha / r + sys.beta * r + sys.k * r * r + sys.l * (sys.l + 1) / (r * r)
    diag = 2.0 / (h * h) + v
    off = np.full(grid.points - 1, -1.0 / (h * h))
    select = (levels.start, levels.stop - 1)
    if not vectors:
        lam = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=select
        )
        return EigenSolveResult(energies=lam / 2.0, vectors=None, grid=grid)
    lam, vec = eigh_tridiagonal(diag, off, select="i", select_range=select)
    vec = vec.T / h**0.5  # columns to rows; sum f^2 h = 1
    for i in range(len(vec)):
        nz = np.nonzero(np.abs(vec[i]) > 1e-10 * np.max(np.abs(vec[i])))[0]
        if len(nz) and vec[i][nz[0]] < 0:
            vec[i] = -vec[i]
    return EigenSolveResult(energies=lam / 2.0, vectors=vec, grid=grid)


def _richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """One Richardson step: (4 E_{h/2} - E_h) / 3, cancelling the h^2 error."""
    return (4.0 * fine - coarse) / 3.0


def fd_eigenvalues_richardson(
    sys: PhysicalSystem, grid: RadialGrid, levels: range
) -> np.ndarray:
    """Richardson-extrapolated eigenvalues at ``levels`` from grid and grid.refined()."""
    coarse = fd_eigensolve(sys, grid, levels).energies
    fine = fd_eigensolve(sys, grid.refined(), levels).energies
    return _richardson(coarse, fine)


def confirm(
    sys: PhysicalSystem,
    epsilon: float,
    level: int,
    grid: RadialGrid,
    rel_tol: float,
    vector: bool = False,
) -> Confirmation:
    """Check epsilon against the oracle eigenvalue at index ``level``.

    By Sturm oscillation a bound state with m nodes is level m of its
    potential, so the caller passes the node count of its own solution and
    the oracle computes that one eigenvalue on grid and on grid.refined().
    Passes when the Richardson gap is within rel_tol * max(1, |epsilon|).
    """
    levels = range(level, level + 1)
    coarse = fd_eigensolve(sys, grid, levels, vectors=vector)
    fine = fd_eigensolve(sys, grid.refined(), levels)
    plain = float(coarse.energies[0])
    rich = float(_richardson(coarse.energies, fine.energies)[0])
    gap = abs(rich - epsilon)
    return Confirmation(
        level=level,
        plain=plain,
        richardson=rich,
        gap=gap,
        passed=gap <= rel_tol * max(1.0, abs(epsilon)),
        vector=coarse.vectors[0] if vector else None,
    )


def node_count(vector: np.ndarray, floor: float = 1e-10) -> int:
    """Strict sign changes between consecutive interior samples with |f| > floor."""
    v = np.asarray(vector)
    scale = np.max(np.abs(v)) if len(v) else 0.0
    if scale == 0:
        return 0
    interior = v[1:-1]
    significant = interior[np.abs(interior) > floor * scale]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] * signs[:-1] < 0))
