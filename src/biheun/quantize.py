"""Termination constraints: admissible linear strengths b, energies, wavefunctions.

Forcing c_{n+1} = c_{n+2} = 0 in the Heun series pins the energy through

    c = 2(n + l + 1) + 1   =>   eps = K^2 (n + l + 3/2) - K^2 b^2 / 8

and leaves the recurrence linear in b:

    b (j+l+1) c_j = (j+1)(j+2l+2) c_{j+1} + 2(n+1-j) c_{j-1} + (alpha/K) c_j,

for j = 0..n with c_{-1} = c_{n+1} = 0, i.e. M c = b W c with W = diag(j+l+1).
Both off-diagonals of M are positive, so W^-1 M is similar to a symmetric
tridiagonal (Jacobi) matrix: its n+1 eigenvalues are the admissible b, real
and distinct (the Bender-Dunne orthogonal-polynomial structure of quasi-exactly
solvable problems). H's coefficients span the null space of M - b W. Each b
fixes a linear coefficient beta = b K^3 for which the radial problem has a
polynomial bound state.

Note: every root defines a *different* potential. The quasi-exact spectrum
is a constraint manifold in (alpha, beta, k, l), not a spectrum of one
fixed potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heun import HeunParameters, ode_residual
from .model import PhysicalSystem, turning_points


@dataclass(frozen=True)
class QuasiExactSolution:
    """One terminated solution: degree n, root b, induced beta, energy, H coefficients.

    ``level`` is the state's index (0 = ground state) in the spectrum of its
    own potential: the number of positive zeros of H, i.e. radial nodes.
    """

    n: int
    l: int
    alpha: float
    k: float
    b_root: float
    beta: float
    epsilon: float
    heun_coefficients: np.ndarray  # c_0..c_n of the degree-n polynomial H
    level: int
    ode_residual: float  # sup of the relative Heun ODE residual of H (_ode_residual_sup)

    @property
    def K(self) -> float:
        return self.k ** 0.25

    def system(self) -> PhysicalSystem:
        return PhysicalSystem(alpha=self.alpha, beta=self.beta, k=self.k, l=self.l)

    def heun_parameters(self) -> HeunParameters:
        return _manifold_parameters(self.n, self.l, self.b_root, self.alpha / self.K)


def _manifold_parameters(n: int, l: int, b: float, alpha_over_K: float) -> HeunParameters:
    """Heun parameters with c = 2(n+l+1)+1 exact, not 2 eps/K^2 + b^2/4 from the
    rounded energy, whose cancellation against b^2/4 loses c's digits at large b."""
    return HeunParameters(2.0 * l + 1.0, b, 2.0 * (n + l + 1) + 1.0, -2.0 * alpha_over_K)


def energy_from_termination(n: int, l: int, K: float, b: float) -> float:
    """eps = K^2 (n + l + 3/2) - K^2 b^2 / 8, from c = 2(n+l+1)+1."""
    if K <= 0:
        raise ValueError(f"K must be positive (got {K})")
    return K * K * (n + l + 1.5) - K * K * b * b / 8.0


def _assemble_solution(
    n: int, l: int, alpha: float, k: float, b: float, coeffs: np.ndarray, level: int
) -> QuasiExactSolution:
    K = k ** 0.25
    beta = b * K**3
    eps = energy_from_termination(n, l, K, b)
    sys = PhysicalSystem(alpha=alpha, beta=beta, k=k, l=l)
    hp = _manifold_parameters(n, l, b, alpha / K)
    try:
        ode_sup = _ode_residual_sup(sys, eps, hp, coeffs)
    except FloatingPointError as exc:
        raise RuntimeError(f"(n={n}, l={l}, branch={n - level}): ODE residual {exc}") from exc
    return QuasiExactSolution(
        n=n,
        l=l,
        alpha=alpha,
        k=k,
        b_root=b,
        beta=beta,
        epsilon=eps,
        heun_coefficients=coeffs,
        level=level,
        ode_residual=ode_sup,
    )


def _ode_residual_sup(
    sys: PhysicalSystem, epsilon: float, hp: HeunParameters, coeffs: np.ndarray
) -> float:
    """Sup of the relative Heun ODE residual at 50 z in (0, 2*K*r4]; FloatingPointError
    on overflow, which would give a nan sample (dropped by max) or a 0 one."""
    tp = turning_points(sys, epsilon)
    r4 = max((abs(z) for z in tp.roots), default=1.0)
    z_hi = 2.0 * sys.K * max(r4, 1.0)
    zs = np.linspace(z_hi / 50, z_hi, 50)
    with np.errstate(over="raise", invalid="raise"):
        return max(ode_residual(hp, coeffs, z) for z in zs)


def closed_form_n0(l: int, alpha: float, K: float) -> QuasiExactSolution:
    """The unique n=0 solution: b = alpha/(K(l+1)), H = 1, level 0.

    Its energy is eps = K^2 (l + 3/2) - K^2 b^2 / 8.
    """
    b = alpha / (K * (l + 1.0))
    return _assemble_solution(0, l, alpha, K**4, b, np.array([1.0]), level=0)


def closed_form_n1(l: int, alpha: float, K: float) -> list[QuasiExactSolution]:
    """Both n=1 branches in closed form, ascending b (levels 1 and 0).

    The termination quadratic is

        (l+1)(l+2) b^2 - (alpha/K)(2l+3) b + alpha^2/K^2 - 2(2l+2) = 0,

    with roots

        b = (alpha/K)(l+3/2)/((l+1)(l+2))
            +- sqrt[ (alpha/K)^2 / (4 (l+1)^2 (l+2)^2) + 4/(l+2) ],

    and H = 1 + (b (l+1) - alpha/K) z / (2l+2).
    """
    aK = alpha / K
    mid = aK * (l + 1.5) / ((l + 1.0) * (l + 2.0))
    disc = aK * aK / (4.0 * (l + 1.0) ** 2 * (l + 2.0) ** 2) + 4.0 / (l + 2.0)
    return [
        _assemble_solution(
            1, l, alpha, K**4, b, np.array([1.0, (b * (l + 1.0) - aK) / (2.0 * l + 2.0)]),
            level=level,
        )
        for b, level in ((mid - disc**0.5, 1), (mid + disc**0.5, 0))
    ]


def solve_family(n: int, l: int, alpha: float, k: float) -> list[QuasiExactSolution]:
    """All n+1 quasi-exact solutions of degree n, in ascending b order.

    The b are the eigenvalues of the Jacobi matrix S = P^-1 W^-1 M P, P diagonal
    and positive (module docstring); H's coefficients c are the null vector of
    M - b W at each b (``_heun_coefficients``), scaled to c_0 = 1.

    ``level`` is n - i for the i-th b in ascending order: the eigenvector
    P^-1 c of the m-th largest eigenvalue of a Jacobi matrix with positive
    off-diagonals has m sign changes, so the coefficients of that H change
    sign n - i times. By Descartes's rule this bounds H's positive zeros;
    they reach the bound, which ``oracle.confirm`` checks independently by
    finding the energy at exactly that level.
    """
    if k <= 0:
        raise ValueError(f"k must be positive (got {k})")
    if n < 0 or l < 0:
        raise ValueError(f"n and l must be non-negative (got n={n}, l={l})")
    aK = alpha / k ** 0.25
    if not np.isfinite(aK):
        raise OverflowError(f"alpha/K = {alpha}/{k ** 0.25} overflows a double")
    j = np.arange(n + 1.0)
    w = j + l + 1  # diagonal of W
    up = (j[:-1] + 1) * (j[:-1] + 2 * l + 2) / w[:-1]  # (W^-1 M)_{j, j+1}
    down = 2 * (n - j[:-1]) / w[1:]  # (W^-1 M)_{j+1, j}
    b_roots = np.linalg.eigvalsh(np.diag(aK / w) + np.diag(np.sqrt(up * down), -1))
    coeffs = _heun_coefficients(n, l, aK, b_roots)
    if not np.isfinite(coeffs).all():
        i = np.argmin(np.isfinite(coeffs).all(axis=0))
        raise RuntimeError(f"H's coefficients are not finite for (n={n}, l={l}, branch={i})")
    return [
        _assemble_solution(n, l, alpha, k, float(b), coeffs[:, i], n - i)
        for i, b in enumerate(b_roots)
    ]


def _heun_coefficients(n: int, l: int, alpha_over_K: float, b: np.ndarray) -> np.ndarray:
    """H's coefficients for each root in b, one column each, scaled to c_0 = 1.

    A twisted factorisation of M - b W (Dhillon & Parlett, Linear Algebra
    Appl. 387, 1 (2004)): eliminate from row 0 down (pivots fwd) and from
    row n up (pivots bwd), set c_r = 1 at the row r where the two meet with
    the smallest defect |fwd_r + bwd_r - d_r|, and fill outward by the pivot
    ratios. Each c_j is then accurate to its own size, so the ratio c_j/c_0
    survives where an eigenvector's small components hold only rounding.
    """
    j = np.arange(n + 1.0)
    lo, up = 2 * (n + 1 - j), (j + 1) * (j + 2 * l + 2)  # M_{j, j-1}, M_{j, j+1}
    d = alpha_over_K - np.outer(j + l + 1, b)  # (M - b W)_{j, j}, a column per root
    fwd, bwd = d.copy(), d.copy()
    # overflow, a c_0 that underflows and an exactly zero pivot give inf or nan,
    # which the caller rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(1, n + 1):
            fwd[t] -= lo[t] * up[t - 1] / fwd[t - 1]
            bwd[n - t] -= up[n - t] * lo[n - t + 1] / bwd[n - t + 1]
        r = np.argmin(np.abs(fwd + bwd - d), axis=0)
        c = (j[:, None] == r).astype(float)
        for t in range(1, n + 1):
            c[n - t] = np.where(n - t < r, -up[n - t] * c[n - t + 1] / fwd[n - t], c[n - t])
            c[t] = np.where(t > r, -lo[t] * c[t - 1] / bwd[t], c[t])
        return c / c[0]


def wavefunction(sol: QuasiExactSolution, radii: np.ndarray) -> np.ndarray:
    """Unnormalized R(r) = r^l exp(-beta r / 2K^2) exp(-K^2 r^2 / 2) H(K r).

    The envelope is one exp(l log r - beta r / 2K^2 - K^2 r^2 / 2): r^l alone
    overflows at large l (r^300 at r = 17) where the product does not."""
    r = np.asarray(radii, dtype=float)
    if np.any(r < 0):
        raise ValueError("radii must be non-negative")
    K = sol.K
    z = K * r
    h = np.zeros_like(z)
    for c in sol.heun_coefficients[::-1]:
        h = h * z + c
    with np.errstate(divide="ignore"):  # r = 0: log r = -inf, r^l = 0 for l > 0
        power = sol.l * np.log(r) if sol.l else 0.0
    return np.exp(power - sol.beta * r / (2.0 * K * K) - K * K * r * r / 2.0) * h
