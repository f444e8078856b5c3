"""Termination constraints: admissible linear strengths b, energies, wavefunctions.

Forcing c_{n+1} = c_{n+2} = 0 in the Heun series pins the energy through

    c = 2(n + l + 1) + 1   =>   eps = K^2 (n + l + 3/2) - K^2 b^2 / 8

and leaves the recurrence linear in b:

    b (j+l+1) c_j = (j+1)(j+2l+2) c_{j+1} + 2(n+1-j) c_{j-1} + (alpha/K) c_j,

for j = 0..n with c_{-1} = c_{n+1} = 0, i.e. M c = b W c with W = diag(j+l+1).
Both off-diagonals of M are positive, so W^-1 M is similar to a symmetric
tridiagonal (Jacobi) matrix: its n+1 eigenvalues are the admissible b, real
and distinct, and its eigenvectors are the coefficients of H (the
Bender-Dunne orthogonal-polynomial structure of quasi-exactly solvable
problems). Each b fixes a linear coefficient beta = b K^3 for which the
radial problem has a polynomial bound state.

Note: every root defines a *different* potential. The quasi-exact spectrum
is a constraint manifold in (alpha, beta, k, l), not a spectrum of one
fixed potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .heun import HeunParameters, ode_residual
from .model import PhysicalSystem, turning_points


@dataclass(frozen=True)
class ResidualReport:
    constraint: float
    ode_sup: float


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
    residuals: ResidualReport

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


def _recurrence_defect(
    n: int, l: int, alpha_over_K: float, b: float, coeffs: np.ndarray
) -> float:
    """max_j |(M - b W) c|_j relative to max_j (|M| + |b| W) |c|, the scale of its terms.

    Normwise, not row by row: a row whose terms all vanish exactly (odd j at
    alpha = 0, b = 0) holds only rounding noise, which a row-wise ratio
    would report as a defect of order 1.
    """
    j = np.arange(n + 1.0)
    terms = np.array([
        (j + 1) * (j + 2 * l + 2) * np.append(coeffs[1:], 0.0),
        2 * (n + 1 - j) * np.append(0.0, coeffs[:-1]),
        alpha_over_K * coeffs,
        -b * (j + l + 1) * coeffs,
    ])
    scale = np.max(np.abs(terms).sum(axis=0))
    return float(np.max(np.abs(terms.sum(axis=0))) / scale) if scale else 0.0


def _assemble_solution(
    n: int, l: int, alpha: float, k: float, b: float, coeffs: np.ndarray, level: int
) -> QuasiExactSolution:
    K = k ** 0.25
    beta = b * K**3
    eps = energy_from_termination(n, l, K, b)
    sys = PhysicalSystem(alpha=alpha, beta=beta, k=k, l=l)
    hp = _manifold_parameters(n, l, b, alpha / K)
    residuals = ResidualReport(
        constraint=_recurrence_defect(n, l, alpha / K, b, coeffs),
        ode_sup=_ode_residual_sup(sys, eps, hp, coeffs),
    )
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
        residuals=residuals,
    )


def _ode_residual_sup(
    sys: PhysicalSystem, epsilon: float, hp: HeunParameters, coeffs: np.ndarray,
    n_samples: int = 50,
) -> float:
    """Sup of the relative Heun ODE residual over z in (0, 2*K*r4]."""
    tp = turning_points(sys, epsilon)
    r4 = max((abs(z) for z in tp.roots), default=1.0)
    z_hi = 2.0 * sys.K * max(r4, 1.0)
    zs = np.linspace(z_hi / n_samples, z_hi, n_samples)
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

    Solves M c = b W c (module docstring) as the symmetric tridiagonal
    eigenproblem S v = b v, S = P^-1 W^-1 M P with P diagonal and positive;
    H's coefficients are c = P v scaled to c_0 = 1.

    ``level`` is n - i for the i-th b in ascending order: the eigenvector of
    the m-th largest eigenvalue of a Jacobi matrix with positive
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
    j = np.arange(n + 1.0)
    w = j + l + 1  # diagonal of W
    up = (j[:-1] + 1) * (j[:-1] + 2 * l + 2) / w[:-1]  # (W^-1 M)_{j, j+1}
    down = 2 * (n - j[:-1]) / w[1:]  # (W^-1 M)_{j+1, j}
    off = np.sqrt(up * down)
    b_roots, vectors = eigh_tridiagonal(aK / w, off)
    scale = np.append(1.0, np.cumprod(off / up))  # P: p_{j+1}/p_j = sqrt(down/up)
    coeffs = scale[:, None] * vectors
    return [
        _assemble_solution(n, l, alpha, k, float(b), coeffs[:, i] / coeffs[0, i], n - i)
        for i, b in enumerate(b_roots)
    ]


def wavefunction(sol: QuasiExactSolution, radii: np.ndarray) -> np.ndarray:
    """Unnormalized R(r) = r^l exp(-beta r / 2K^2) exp(-K^2 r^2 / 2) H(K r)."""
    r = np.asarray(radii, dtype=float)
    if np.any(r < 0):
        raise ValueError("radii must be non-negative")
    K = sol.K
    z = K * r
    h = np.zeros_like(z)
    for c in sol.heun_coefficients[::-1]:
        h = h * z + c
    return r**sol.l * np.exp(-sol.beta * r / (2.0 * K * K) - K * K * r * r / 2.0) * h


def normalize(radii: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Scale so trapezoid(R^2 r^2 dr) = 1; sign fixed positive at the first
    grid point where |R| > 1e-12."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(r) < 3:
        raise ValueError("need at least 3 grid points")
    norm2 = np.trapezoid(v * v * r * r, r)
    if norm2 <= 0:
        raise ValueError("cannot normalize an all-zero wavefunction")
    out = v / norm2**0.5
    nonzero = np.nonzero(np.abs(out) > 1e-12)[0]
    if len(nonzero) and out[nonzero[0]] < 0:
        out = -out
    return out
