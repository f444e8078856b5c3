"""Independent Lagrange-Laguerre mesh eigensolver for the radial equation.

Solves f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta r - k r^2] f = 0, f = r R,
on the regularised Lagrange-Laguerre mesh (Baye, Phys. Rep. 565, 1 (2015)):
nodes r_i = h x_i at the zeros x_i of L_N, the basis's exact kinetic matrix,
the potential diagonal at the nodes, and eps = lambda/2 for each eigenvalue
lambda of one dense symmetric eigensolve at the requested levels.

This module never touches the Heun machinery; it exists to confirm (or
refute) quasi-exact energies and wavefunctions independently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import PhysicalSystem, turning_points

RTOL = 1e-5  # confirm's bound on the energy gap, relative to max(1, |eps|)
_TAIL_DROP = np.log(1e12)  # the edge: where f has fallen 1e-12 below its peak
# the most points a mesh takes (eigenvalues in 17 ms, 27 ms with one vector, on a
# 2-core VM; the weights stay finite to 600): an epsilon far from every bound state
# or a large l would ask auto for gigabytes
_LARGEST_MESH = 400


@functools.cache
def _mesh(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeros x_i of L_N, N = points, ascending, as eigenvalues of its Jacobi matrix
    (Golub-Welsch), and Christoffel weights lambda_i = 1 / sum_{k<N} (L_k(x_i) e^(-x_i/2))^2.

    The recurrence carries q_k = L_k(x) g^(k+1), g = exp(-x/2N), and s_k =
    sum_{j<=k} L_j^2 g^(2k+2): they reach e^(-x/2) and e^(-x) at k = N-1
    without the underflow of a start at e^(-x/2) for x > 1,400 (N > 360)."""
    i = np.arange(points, dtype=float)
    x = np.linalg.eigvalsh(np.diag(2.0 * i + 1.0) + np.diag(i[1:], -1))
    g = np.exp(-x / (2.0 * points))
    q_prev, q = np.zeros_like(x), g
    s = q * q
    for k in range(1, points):
        q_prev, q = q, g * ((2.0 * k - 1.0 - x) * q - (k - 1.0) * g * q_prev) / k
        s = s * g * g + q * q
    lam = 1.0 / s
    for a in (x, lam):
        a.setflags(write=False)  # shared by every caller through the cache
    return x, lam


@dataclass(frozen=True)
class RadialGrid:
    """Regularised Lagrange-Laguerre mesh: nodes r_i = h x_i at the zeros x_i of L_N,
    N = points, with h = r_edge / x_N. Every basis function vanishes at r = 0, as
    f = r R does, and decays like exp(-r/2h) past the last node, r_edge."""

    r_edge: float
    points: int

    def __post_init__(self) -> None:
        if not 0 < self.r_edge < np.inf:
            raise ValueError(f"r_edge must be positive and finite (got {self.r_edge})")
        if not 16 <= self.points <= _LARGEST_MESH:
            raise ValueError(f"points must be in 16..{_LARGEST_MESH} (got {self.points})")

    def nodes(self) -> np.ndarray:
        x, _ = _mesh(self.points)
        return self.r_edge / x[-1] * x

    def weights(self) -> np.ndarray:
        """Quadrature weights h lambda_i: sum_i w_i g(r_i) approximates the integral of g."""
        x, lam = _mesh(self.points)
        return self.r_edge / x[-1] * lam

    @classmethod
    def auto(cls, sys: PhysicalSystem, epsilon_hint: float | None = None) -> "RadialGrid":
        """Mesh sized to the state at energy epsilon_hint (default K^2 (l + 3/2)).

        r_edge covers 1.5x the outer turning point and the radius where
        f ~ r^p exp(-K^2 r^2/2 - beta r/2K^2), p = eps/K^2 + b^2/8 - 1/2
        (n + l + 1 on the manifold), falls 1e-12 below its peak. N = 40 + 3n + l,
        up to _LARGEST_MESH, for n = ceil(p - l - 1) >= 0, the degree of H:
        f's r^(l+1) factor needs the + l (at 40 + 3n, l = 20 shows false nodes)."""
        K2 = sys.k**0.5
        eps = K2 * (sys.l + 1.5) if epsilon_hint is None else epsilon_hint
        # b^2/8 as (beta/K^3)^2/8, not beta^2/(8 K2^3): K2^3 underflows to 0 for k < ~1e-216
        p = max(eps / K2 + (sys.beta / sys.K**3) ** 2 / 8.0 - 0.5, 1.0)
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
        # 1e-6 absorbs the rounding of p, so that n is the same for K-scaled systems
        n = max(0.0, np.ceil(p - sys.l - 1 - 1e-6))
        return cls(r_edge, int(min(40 + 3 * n + sys.l, _LARGEST_MESH)))


@dataclass(frozen=True)
class EigenSolveResult:
    """``energies[i]`` of the i-th requested level (0 = ground state) of the mesh operator;
    ``vectors[i]`` its f(r) = r R(r) at the nodes, of either sign, normalized in the
    mesh's quadrature (sum w f^2 = 1, w = ``grid.weights()``), or None if not asked for."""

    energies: np.ndarray
    vectors: np.ndarray | None  # shape (len(levels), points)
    grid: RadialGrid


@dataclass(frozen=True)
class Confirmation:
    """Outcome of checking one energy against the oracle level at ``level``: ``energy``
    on the mesh ``grid`` sized by ``RadialGrid.auto``, ``gap`` = |energy - epsilon|, and
    ``vector`` the level's f on ``grid`` (as in EigenSolveResult) or None if not asked for."""

    grid: RadialGrid
    level: int
    energy: float
    gap: float
    passed: bool
    vector: np.ndarray | None


def fd_eigensolve(
    sys: PhysicalSystem, grid: RadialGrid, levels: range, vectors: bool = False
) -> EigenSolveResult:
    """Eigenvalues at ``levels`` (consecutive, ascending) of the radial problem
    on the mesh ``grid``, plus their eigenvectors when ``vectors`` is true.

    The name is from the finite-difference grid the mesh replaced; it stays
    because ``perfbench/tracer.py`` wraps this function by name to attribute
    the oracle's time and mesh size."""
    if levels.step != 1 or len(levels) < 1 or levels.start < 0:
        raise ValueError(f"levels must be a non-empty range from >= 0 (got {levels})")
    if levels.stop > grid.points - 2:
        raise ValueError(f"levels {levels} exceed points-2={grid.points - 2}")
    x, _ = _mesh(grid.points)
    h = grid.r_edge / x[-1]
    r = h * x
    i = np.arange(grid.points)
    sign = 1 - 2 * ((i[:, None] + i) % 2)  # (-1)^(i-j)
    dx = x[:, None] - x
    np.fill_diagonal(dx, 1.0)
    H = sign * (x[:, None] + x) / (np.sqrt(np.outer(x, x)) * dx * dx * (h * h))
    t_ii = (4.0 + (4.0 * grid.points + 2.0) * x - x * x) / (12.0 * x * x * h * h)
    v = -sys.alpha / r + sys.beta * r + sys.k * r * r + sys.l * (sys.l + 1) / (r * r)
    np.fill_diagonal(H, t_ii + v)
    lam = np.linalg.eigvalsh(H)[levels.start:levels.stop]
    if not vectors:
        return EigenSolveResult(energies=lam / 2.0, vectors=None, grid=grid)
    c = np.array([_inverse_iteration(H, shift) for shift in lam])
    # f(r_i) = c_i / sqrt(h lambda_i): sum w f^2 = sum c^2 = 1
    return EigenSolveResult(energies=lam / 2.0, vectors=c / np.sqrt(grid.weights()), grid=grid)


def _inverse_iteration(H: np.ndarray, shift: float) -> np.ndarray:
    """Unit eigenvector of H at the eigenvalue ``shift``: two solves of (H - shift) y = v.

    Each component comes out accurate to its own size, where divide-and-conquer
    (``np.linalg.eigh``) leaves ~u |H| noise in the tiny ones near r = 0 and false
    nodes at l >= 40. An exactly singular pivot moves the shift by a few ulps."""
    step = 4.0 * np.spacing(np.max(np.abs(H)))
    for _ in range(8):
        try:
            A = H - shift * np.eye(len(H))
            v = np.linalg.solve(A, np.ones(len(H)))
            v = np.linalg.solve(A, v / np.linalg.norm(v))
            return v / np.linalg.norm(v)
        except np.linalg.LinAlgError:
            shift, step = shift + step, 2.0 * step
    raise RuntimeError(f"H - {shift} I stays singular after 8 shifts")


def confirm(
    sys: PhysicalSystem, epsilon: float, level: int, vector: bool = False
) -> Confirmation:
    """Check epsilon against the oracle eigenvalue at index ``level``.

    By Sturm oscillation a bound state with m nodes is level m of its potential,
    so the caller passes the node count of its own solution and the oracle computes
    that one eigenvalue on ``RadialGrid.auto(sys, epsilon)``. Passes when the gap
    is within RTOL * max(1, |epsilon|)."""
    grid = RadialGrid.auto(sys, epsilon)
    res = fd_eigensolve(sys, grid, range(level, level + 1), vectors=vector)
    energy = float(res.energies[0])
    gap = abs(energy - epsilon)
    passed = gap <= RTOL * max(1.0, abs(epsilon))
    return Confirmation(grid, level, energy, gap, passed, res.vectors[0] if vector else None)


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
