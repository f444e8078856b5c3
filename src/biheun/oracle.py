"""Independent Lagrange-Laguerre mesh eigensolver for the radial equation.

Solves f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta r - k r^2] f = 0, f = r R,
on the regularised Lagrange-Laguerre mesh (Baye, Phys. Rep. 565, 1 (2015)):
nodes r_i = h x_i at the zeros x_i of L_N, the basis's exact kinetic matrix,
the potential diagonal at the nodes, and eps = lambda/2 for each eigenvalue
lambda of one dense symmetric eigensolve.

``_solve`` is the one mesh solve: the states' H, grouped by mesh size, are
solved as (g, N, N) stacks of at most one 600-point matrix's bytes, one
``eigvalsh`` each, and a requested vector comes from its state's H in the
stack. ``confirm_all`` checks a batch of states, such as the branches of one
(n, l) family, on meshes sized by one stacked ``quartic_roots`` solve and a
scalar tail search per state. ``confirm`` and ``RadialGrid.auto`` are its
batch of one.

This module never touches the Heun machinery; it exists to confirm (or
refute) quasi-exact energies and wavefunctions independently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import PhysicalSystem, quartic_roots, roots_in_r

RTOL = 1e-9  # confirm's bound on the energy gap, relative to max(1, |eps|)
_TAIL_DROP = np.log(1e12)  # the edge: where f has fallen 1e-12 below its peak
_MESH_BASE = 30  # N = 30 + 3n + l: the gaps leave rounding level from a base of 26 down
# the most points a mesh takes (eigenvalues in 40 ms, 50 ms with one vector, on a 2-core
# VM; the weights stay finite to 640): level 190 at l = 0 needs all 600, and an epsilon
# far from every bound state or a large l would ask auto for gigabytes
_LARGEST_MESH = 600


@functools.lru_cache(maxsize=_LARGEST_MESH)  # every legal size fits: about 3 MB in all
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


def _kinetic(points: int) -> np.ndarray:
    """The h-free kinetic matrix T of the mesh, whose kinetic part at scale h is T / h^2:

        T_ij = (-1)^(i-j) (x_i + x_j) / (sqrt(x_i x_j) (x_i - x_j)^2),
        T_ii = (4 + (4N + 2) x_i - x_i^2) / (12 x_i^2)."""
    x, _ = _mesh(points)
    T = x[:, None] + x
    T[1::2, ::2] *= -1.0  # (-1)^(i-j): every entry with i + j odd
    T[::2, 1::2] *= -1.0
    dx = x[:, None] - x
    np.fill_diagonal(dx, 1.0)
    T /= np.sqrt(np.outer(x, x)) * dx * dx
    np.fill_diagonal(T, (4.0 + (4.0 * points + 2.0) * x - x * x) / (12.0 * x * x))
    return T


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
        if not (16 <= self.points <= _LARGEST_MESH and float(self.points).is_integer()):
            raise ValueError(
                f"points must be an integer in 16..{_LARGEST_MESH} (got {self.points})")
        object.__setattr__(self, "points", int(self.points))

    def nodes(self) -> np.ndarray:
        x, _ = _mesh(self.points)
        return self.r_edge / x[-1] * x

    def weights(self) -> np.ndarray:
        """Quadrature weights h lambda_i: sum_i w_i g(r_i) approximates the integral of g."""
        x, lam = _mesh(self.points)
        return self.r_edge / x[-1] * lam

    @classmethod
    def auto(cls, sys: PhysicalSystem, epsilon_hint: float | None = None) -> "RadialGrid":
        """``_auto_grids``' mesh for the state at energy epsilon_hint (default K^2 (l + 3/2))."""
        eps = sys.k**0.5 * (sys.l + 1.5) if epsilon_hint is None else epsilon_hint
        return _auto_grids([sys], [eps])[0]


def _auto_grids(systems: list[PhysicalSystem], epsilons: list[float]) -> list[RadialGrid]:
    """One mesh per (system, epsilon) state, sized to it, from one stacked
    ``quartic_roots`` solve and a scalar tail search per state.

    r_edge covers 1.5x the outer turning point (the largest real root of ``roots_in_r``,
    which ``turning_points`` reads too) and the radius where
    f ~ r^p exp(-K^2 r^2/2 - beta r/2K^2), p = eps/K^2 + b^2/8 - 1/2 (n + l + 1 on the
    manifold), falls 1e-12 below its peak. N = _MESH_BASE + 3n + l, up to _LARGEST_MESH,
    for n = ceil(p - l - 1) >= 0, the degree of H: f's r^(l+1) factor needs the + l (at
    _MESH_BASE + 3n, l = 20 shows false nodes). OverflowError when a root overflows in r."""
    grids = []
    for sys, eps, zs in zip(systems, epsilons, quartic_roots(systems, epsilons).tolist()):
        K = sys.K
        r_outer = max([0.0, *roots_in_r(zs, K)[0]])  # a negative one never sets the edge
        K2 = sys.k**0.5
        # b^2/8 as (beta/K^3)^2/8, not beta^2/(8 K2^3): K2^3 underflows to 0 for k < ~1e-216
        p = max(eps / K2 + (sys.beta / K**3) ** 2 / 8.0 - 0.5, 1.0)
        s = sys.beta / (2.0 * K2)
        q = np.sqrt(s * s + 4.0 * K2 * p)  # the peak without cancellation in q - s
        r_peak = 2.0 * p / (q + s) if s > 0 else (q - s) / (2.0 * K2)
        log_f = lambda r: p * np.log(r) - K2 * r * r / 2.0 - s * r  # noqa: E731
        # log f has curvature <= -K^2: Newton descends onto the root monotonically,
        # so only rounding (at large alpha/K) can step back across the peak, or make
        # the step 0/0 where r_peak absorbs the start's offset (at tiny k, where p is
        # rebuilt from eps by cancellation); either stops the search
        target, r = log_f(r_peak) - _TAIL_DROP, r_peak + (2.0 * _TAIL_DROP / K2) ** 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(4):
                step = (log_f(r) - target) / (p / r - K2 * r - s)
                if not r - step > r_peak:
                    break
                r -= step
        r_edge = max(1.5 * r_outer, float(r))
        # 1e-6 absorbs the rounding of p, so that n is the same for K-scaled systems
        n = max(0.0, np.ceil(p - sys.l - 1 - 1e-6))
        grids.append(RadialGrid(r_edge, int(min(_MESH_BASE + 3 * n + sys.l, _LARGEST_MESH))))
    return grids


@dataclass(frozen=True)
class Confirmation:
    """Outcome of checking one energy against the oracle level at ``level``: ``energy`` on
    the mesh ``grid`` sized by ``RadialGrid.auto``, ``gap`` = |energy - eps| / max(1, |eps|),
    ``vector`` the level's f on ``grid`` and ``nodes`` its node_count, None if not asked for."""

    grid: RadialGrid
    level: int
    energy: float
    gap: float
    passed: bool
    vector: np.ndarray | None
    nodes: int | None


def _solve(
    systems: list[PhysicalSystem], grids: list[RadialGrid], levels: list[int], vectors: bool
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(energies, f) of each system on ``grids[i]``, in order: ``energies`` its whole mesh
    spectrum eps = lambda/2, ascending, and ``f`` None unless asked for, else level
    ``levels[i]``'s f(r) = r R(r) at the nodes (0 = ground state), of either sign,
    normalized in the mesh's quadrature (sum w f^2 = 1, w = ``grid.weights()``).

    Every level is checked to lie in 0..points - 3 before any solve. The states are grouped
    by mesh size; each size's kinetic matrix is built once, and its H are solved as
    (g, N, N) stacks of at most _LARGEST_MESH^2 doubles (2.9 MB), one ``np.linalg.eigvalsh``
    each. A requested vector comes from ``_inverse_iteration`` on its state's H."""
    by_size: dict[int, list[int]] = {}
    for i, (grid, level) in enumerate(zip(grids, levels)):
        if not 0 <= level <= grid.points - 3:
            raise ValueError(f"level {level} is outside 0..{grid.points - 3}, "
                             f"the levels of a {grid.points}-point mesh")
        by_size.setdefault(grid.points, []).append(i)
    solved = [None] * len(grids)
    for points, members in by_size.items():
        kinetic, per_stack = _kinetic(points), _LARGEST_MESH**2 // points**2
        for start in range(0, len(members), per_stack):
            stack = members[start:start + per_stack]
            H = _hamiltonians([systems[i] for i in stack], [grids[i].r_edge for i in stack],
                              kinetic)
            lams = np.linalg.eigvalsh(H)
            for j, i in enumerate(stack):
                f = None
                if vectors:
                    c = _inverse_iteration(H[j], lams[j, levels[i]])
                    f = c / np.sqrt(grids[i].weights())  # sum w f^2 = sum c^2 = 1
                solved[i] = (lams[j] / 2.0, f)
            del H  # freed before the next stack is built
    return solved


def _hamiltonians(
    systems: list[PhysicalSystem], r_edges: list[float], kinetic: np.ndarray
) -> np.ndarray:
    """The stack of H, shape (len(systems), N, N), of ``systems[i]`` on the N-point mesh
    of edge ``r_edges[i]``: ``kinetic``, ``_kinetic(N)``, divided by h^2, plus the
    potential at the nodes on the diagonal."""
    points = len(kinetic)
    x, _ = _mesh(points)
    h = np.array(r_edges, dtype=float)[:, None] / x[-1]
    r = h * x
    H = kinetic / (h * h)[:, :, None]
    alpha, beta, k, ll = np.array(
        [(s.alpha, s.beta, s.k, s.l * (s.l + 1)) for s in systems], dtype=float).T[:, :, None]
    v = -alpha / r + beta * r + k * r * r + ll / (r * r)
    H.reshape(len(H), -1)[:, ::points + 1] += v
    return H


def _inverse_iteration(H: np.ndarray, shift: float) -> np.ndarray:
    """Unit eigenvector of H at the eigenvalue ``shift``: two solves of (H - shift) y = v.

    Each component comes out accurate to its own size, where divide-and-conquer
    (``np.linalg.eigh``) leaves ~u |H| noise in the tiny ones near r = 0 and false
    nodes at l >= 40. H - shift I is divided by max|H|, and v by max|v| before each
    norm, so that neither overflows where |H| is tiny (k = 1e-300). An exactly
    singular pivot, or a solve that overflows even so, moves the shift by a few ulps."""
    def unit(v: np.ndarray) -> np.ndarray:
        v = v / np.max(np.abs(v))
        return v / np.linalg.norm(v)

    scale = np.max(np.abs(H))
    step = 4.0 * np.spacing(scale)
    for _ in range(8):
        try:
            with np.errstate(over="raise", invalid="raise"):
                A = (H - shift * np.eye(len(H))) / scale
                return unit(np.linalg.solve(A, unit(np.linalg.solve(A, np.ones(len(H))))))
        except (np.linalg.LinAlgError, FloatingPointError):
            shift, step = shift + step, 2.0 * step
    raise RuntimeError(f"H - {shift} I stays singular or overflows after 8 shifts")


def confirm(
    sys: PhysicalSystem, epsilon: float, level: int, vector: bool = False
) -> Confirmation:
    """Check epsilon against the oracle eigenvalue at index ``level``: ``confirm_all``
    of the one state."""
    return confirm_all([sys], [epsilon], [level], vector)[0]


def confirm_all(
    systems: list[PhysicalSystem], epsilons: list[float], levels: list[int],
    vector: bool = False,
) -> list[Confirmation]:
    """Check each epsilon against the oracle eigenvalue at index ``levels[i]`` of its
    system, in order.

    By Sturm oscillation a bound state with m nodes is level m of its potential,
    so the caller passes the node count of its own solution and the oracle computes
    that one eigenvalue on the mesh ``_auto_grids`` sizes to the state (what
    ``RadialGrid.auto(sys, epsilon)`` gives). One ``_solve`` call takes every state,
    with or without its ``vector``. A state passes when its gap is within RTOL and a requested vector has
    ``levels[i]`` nodes, the count its verdict carries as ``nodes``."""
    grids = _auto_grids(systems, epsilons)
    solved = _solve(systems, grids, levels, vector)
    confirmations = []
    for grid, level, epsilon, (energies, f) in zip(grids, levels, epsilons, solved):
        energy = float(energies[level])
        nodes = None if f is None else node_count(f)
        gap = abs(energy - epsilon) / max(1.0, abs(epsilon))
        passed = gap <= RTOL and nodes in (None, level)
        confirmations.append(Confirmation(grid, level, energy, gap, passed, f, nodes))
    return confirmations


def node_count(vector: np.ndarray) -> int:
    """Strict sign changes between consecutive interior samples with |f| > 1e-8 max|f|:
    the cut clears the noise near 1e-9 of the peak in a mesh vector's far tail, which gave
    199 of 42,126 states (n <= 80, l <= 45) false nodes at 1e-10; none lost one at 1e-6."""
    v = np.asarray(vector)
    scale = np.max(np.abs(v)) if len(v) else 0.0
    if scale == 0:
        return 0
    interior = v[1:-1]
    significant = interior[np.abs(interior) > 1e-8 * scale]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] * signs[:-1] < 0))
