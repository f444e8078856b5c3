"""Independent finite-difference eigensolver for the radial equation.

Discretizes f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta r - k r^2] f = 0 on
(0, r_edge) with the second-order central stencil on a uniform grid and
Dirichlet walls at r = 0 and r = r_edge. Eigenvalues come from bisection on
the Sturm sequence of the symmetric tridiagonal matrix, computed only at the
requested levels, and eigenvectors, only when asked for, from inverse
iteration (LAPACK stebz/stein via scipy). The operator eigenvalue lambda maps
to eps = lambda/2. One Richardson step between h and h/2 on the same walls
cancels the h^2 error.

This module never touches the Heun machinery; it exists to confirm (or
refute) quasi-exact energies and wavefunctions independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import PhysicalSystem, turning_points

MAX_POINTS = 6000  # the most points a grid sized to its state gets
RTOL = 1e-5  # confirm's bound on the Richardson gap, relative to max(1, |eps|)
_TAIL_DROP = np.log(1e12)  # the edge: where f has fallen 1e-12 below its peak
# h w on a grid sized to its state; at 0.02 the plain-FD gaps of acceptance
# criteria 1 and 2 exceed their 1e-5 bound
_KAPPA = 0.012


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on (0, r_edge): nodes r_i = i*h, i = 1..points, h = r_edge/(points+1).

    The Dirichlet walls sit at r = 0, where f = r R vanishes for every l, and
    at r = r_edge; neither is a node. ``refined()`` halves h between the same
    walls, so Richardson extrapolation always compares one problem.
    """

    r_edge: float
    points: int

    def __post_init__(self) -> None:
        if not 0 < self.r_edge < np.inf:
            raise ValueError(f"r_edge must be positive and finite (got {self.r_edge})")
        if self.points < 16:
            raise ValueError(f"points must be >= 16 (got {self.points})")
        # the refined stencil 2/(h/2)^2 = 8/h^2 must stay finite; written as a
        # product, the test cannot raise when h^2 underflows or overflows
        h = self.spacing
        if h * h <= 8.0 / np.finfo(float).max:
            raise ValueError(f"r_edge {self.r_edge} gives a grid whose 1/h^2 overflows")

    @property
    def spacing(self) -> float:
        return self.r_edge / (self.points + 1)

    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.points + 1)

    @classmethod
    def auto(cls, sys: PhysicalSystem, epsilon_hint: float | None = None) -> "RadialGrid":
        """Grid sized to the state at energy epsilon_hint (default K^2 (l + 3/2)).

        r_edge covers 1.5x the outer turning point and the radius where
        f ~ r^p exp(-K^2 r^2/2 - beta r/2K^2), p = eps/K^2 + b^2/8 - 1/2
        (n + l + 1 on the manifold), falls 1e-12 below its peak. points sets
        h w = _KAPPA, up to MAX_POINTS, for the oscillator and Coulomb
        wavenumber w = sqrt(max(2|eps|, K^2) + (alpha/(l+1))^2)."""
        K2 = sys.k**0.5
        eps = K2 * (sys.l + 1.5) if epsilon_hint is None else epsilon_hint
        p = max(eps / K2 + sys.beta**2 / (8.0 * K2**3) - 0.5, 1.0)
        s = sys.beta / (2.0 * K2)
        q = np.sqrt(s * s + 4.0 * K2 * p)  # the peak without cancellation in q - s
        r_peak = 2.0 * p / (q + s) if s > 0 else (q - s) / (2.0 * K2)
        log_f = lambda r: p * np.log(r) - K2 * r * r / 2.0 - s * r  # noqa: E731
        # log f has curvature <= -K^2: Newton descends onto the root monotonically,
        # so only rounding (at large alpha/K) can step back across the peak
        target, r = log_f(r_peak) - _TAIL_DROP, r_peak + (2.0 * _TAIL_DROP / K2) ** 0.5
        for _ in range(4):
            step = (log_f(r) - target) / (p / r - K2 * r - s)
            if r - step <= r_peak:
                break
            r -= step
        r_outer = max(turning_points(sys, eps).real_roots, default=0.0)
        r_edge = max(1.5 * r_outer, float(r))
        w = np.sqrt(max(2.0 * abs(eps), K2) + (sys.alpha / (sys.l + 1)) ** 2)
        return cls(r_edge, max(16, min(MAX_POINTS, int(np.ceil(r_edge * w / _KAPPA)))))

    def refined(self) -> "RadialGrid":
        """The same walls with exactly half the spacing."""
        return RadialGrid(self.r_edge, 2 * self.points + 1)


@dataclass(frozen=True)
class EigenSolveResult:
    """Eigenvalues of the discretized radial operator at the requested levels.

    ``energies[i]`` belongs to the i-th requested level (0 = ground state). When
    eigenvectors were asked for, ``vectors[i]`` samples f(r) = r R(r) on the
    grid nodes, L2-normalized (sum f^2 h = 1), of either sign; otherwise
    ``vectors`` is None.
    """

    energies: np.ndarray
    vectors: np.ndarray | None  # shape (len(levels), points)
    grid: RadialGrid


@dataclass(frozen=True)
class Confirmation:
    """Outcome of checking one energy against the oracle level at ``level``.

    ``grid`` is the coarse grid, sized to the state by ``RadialGrid.auto``;
    ``gap`` = |richardson - epsilon|; ``vector`` is the level's eigenvector on
    ``grid`` (as in EigenSolveResult), or None unless it was asked for.
    """

    grid: RadialGrid
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
    return EigenSolveResult(energies=lam / 2.0, vectors=vec, grid=grid)


def confirm(
    sys: PhysicalSystem, epsilon: float, level: int, vector: bool = False
) -> Confirmation:
    """Check epsilon against the oracle eigenvalue at index ``level``.

    By Sturm oscillation a bound state with m nodes is level m of its
    potential, so the caller passes the node count of its own solution and
    the oracle computes that one eigenvalue on ``RadialGrid.auto(sys,
    epsilon)`` and on its refinement. Passes when the Richardson gap is
    within RTOL * max(1, |epsilon|).
    """
    grid = RadialGrid.auto(sys, epsilon)
    levels = range(level, level + 1)
    coarse = fd_eigensolve(sys, grid, levels, vectors=vector)
    fine = fd_eigensolve(sys, grid.refined(), levels)
    plain = float(coarse.energies[0])
    rich = (4.0 * float(fine.energies[0]) - plain) / 3.0  # cancels the h^2 error
    gap = abs(rich - epsilon)
    return Confirmation(
        grid=grid,
        level=level,
        plain=plain,
        richardson=rich,
        gap=gap,
        passed=gap <= RTOL * max(1.0, abs(epsilon)),
        vector=coarse.vectors[0] if vector else None,
    )


def node_count(vector: np.ndarray) -> int:
    """Strict sign changes between consecutive interior samples with |f| > 1e-10 max|f|."""
    v = np.asarray(vector)
    scale = np.max(np.abs(v)) if len(v) else 0.0
    if scale == 0:
        return 0
    interior = v[1:-1]
    significant = interior[np.abs(interior) > 1e-10 * scale]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] * signs[:-1] < 0))
