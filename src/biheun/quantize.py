"""Termination constraints: admissible linear strengths b, energies, wavefunctions.

Forcing c_{n+1} = c_{n+2} = 0 in the Heun series pins the energy through

    c = 2(n + l + 1) + 1   =>   eps = K^2 (n + l + 3/2) - K^2 b^2 / 8

and leaves one scalar condition, -2 c_{n-1}(b) + (n b - D(b)) c_n(b) = 0,
a degree-(n+1) polynomial in b. Each real root b fixes a linear coefficient
beta = b K^3 for which the radial problem has a polynomial bound state.

Note: every root defines a *different* potential. The quasi-exact spectrum
is a constraint manifold in (alpha, beta, k, l), not a spectrum of one
fixed potential.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .heun import (
    CoefficientSequence,
    HeunParameters,
    coefficient_sequence,
    horner,
    ode_residual,
    to_heun_params,
)
from .model import PhysicalSystem, turning_points

# Roots of the constraint polynomial, and zeros of H, with |Im| above this
# (scale-aware) are discarded as non-real.
ROOT_IMAG_TOL = 1e-8

# Coefficient growth in the polynomial-in-b construction degrades beyond this.
DEFAULT_DEGREE_CAP = 32


@dataclass(frozen=True)
class ConstraintPolynomial:
    """Degree-(n+1) polynomial in b whose real roots admit termination at degree n."""

    n: int
    l: int
    alpha_over_K: float
    coeffs: np.ndarray  # ascending

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, b: float) -> float:
        return horner(self.coeffs, b)


@dataclass(frozen=True)
class ResidualReport:
    constraint: float
    ode_sup: float


@dataclass(frozen=True)
class QuasiExactSolution:
    """One terminated solution: degree n, root b, induced beta, energy, H coefficients."""

    n: int
    l: int
    alpha: float
    k: float
    b_root: float
    beta: float
    epsilon: float
    heun_coefficients: np.ndarray  # c_0..c_n of the degree-n polynomial H
    residuals: ResidualReport

    @property
    def K(self) -> float:
        return self.k ** 0.25

    def system(self) -> PhysicalSystem:
        return PhysicalSystem(alpha=self.alpha, beta=self.beta, k=self.k, l=self.l)

    def heun_parameters(self) -> HeunParameters:
        return to_heun_params(self.system(), self.epsilon)

    @property
    def level(self) -> int:
        """Number of positive real zeros of H: the radial nodes of the state.

        By Sturm oscillation this is the state's level (0 = ground state) in
        the spectrum of its own potential. Zeros of H are counted directly,
        because sampling R misses far nodes under the Gaussian tail.
        """
        cs = np.trim_zeros(self.heun_coefficients, "b")
        if len(cs) < 2:
            return 0
        z = Polynomial(cs).roots()
        real = np.abs(z.imag) <= ROOT_IMAG_TOL * (1.0 + np.abs(z.real))
        return int(np.sum(real & (z.real > 0)))


def energy_from_termination(n: int, l: int, K: float, b: float) -> float:
    """eps = K^2 (n + l + 3/2) - K^2 b^2 / 8, from c = 2(n+l+1)+1."""
    if K <= 0:
        raise ValueError(f"K must be positive (got {K})")
    return K * K * (n + l + 1.5) - K * K * b * b / 8.0


def constraint_polynomial(
    n: int, l: int, alpha_over_K: float, degree_cap: int = DEFAULT_DEGREE_CAP
) -> ConstraintPolynomial:
    """Build the termination condition as an exact polynomial in b.

    Runs the 3-term recurrence with c = 2(n+l+1)+1 over polynomial-in-b
    arithmetic (each c_j is a degree-j polynomial in b; D = -b(l+1) +
    alpha/K) and returns -2 c_{n-1} + (n b - D) c_n for n >= 1, or
    b(l+1) - alpha/K for n = 0.
    """
    if n < 0 or l < 0:
        raise ValueError(f"n and l must be non-negative (got n={n}, l={l})")
    if n > degree_cap:
        warnings.warn(
            f"degree n={n} exceeds the cap {degree_cap}; coefficient growth may "
            "make roots unreliable",
            stacklevel=2,
        )

    D = Polynomial([alpha_over_K, -(l + 1.0)])
    if n == 0:
        poly = -D
        return ConstraintPolynomial(n=0, l=l, alpha_over_K=alpha_over_K, coeffs=poly.coef)

    a = 2.0 * l + 1.0
    c = 2.0 * (n + l + 1) + 1.0
    c_prev = Polynomial([1.0])  # c_0
    c_cur = -D / (1.0 + a)  # c_1
    for j in range(1, n):
        c_next = (
            (2.0 * j + a - c) * c_prev + (Polynomial([0.0, float(j)]) - D) * c_cur
        ) / ((j + 1.0) * (a + j + 1.0))
        c_prev, c_cur = c_cur, c_next
    poly = -2.0 * c_prev + (Polynomial([0.0, float(n)]) - D) * c_cur
    coeffs = np.asarray(poly.coef, dtype=float)
    if len(coeffs) != n + 2:
        coeffs = np.pad(coeffs, (0, n + 2 - len(coeffs)))
    return ConstraintPolynomial(n=n, l=l, alpha_over_K=alpha_over_K, coeffs=coeffs)


def solve_b_roots(poly: ConstraintPolynomial) -> tuple[list[float], int]:
    """All real roots of the constraint polynomial, ascending, Newton-polished.

    Returns (roots, discarded_complex_count). Raises on degree-0 input.
    """
    coeffs = np.trim_zeros(poly.coeffs, "b")
    if len(coeffs) < 2:
        raise ValueError("constraint polynomial has degree 0; no roots to solve")
    scale = float(np.max(np.abs(coeffs)))
    raw = Polynomial(coeffs).roots()

    deriv = np.polyder(coeffs[::-1])
    real: list[float] = []
    discarded = 0
    for z in raw:
        for _ in range(4):
            dp = np.polyval(deriv, z)
            if dp == 0:
                break
            step = np.polyval(coeffs[::-1], z) / dp
            if not np.isfinite(step):
                break
            z = z - step
        if abs(z.imag) <= ROOT_IMAG_TOL * (1.0 + abs(z.real)):
            real.append(float(z.real))
        else:
            discarded += 1
    real.sort()
    for b in real:
        if abs(poly(b)) > 1e-12 * scale * max(1.0, abs(b)) ** poly.degree:
            warnings.warn(
                f"root b={b} polished to |P(b)|={abs(poly(b)):.3e}, above target",
                stacklevel=2,
            )
    return real, discarded


def _assemble_solution(
    n: int, l: int, alpha: float, k: float, b: float, poly: ConstraintPolynomial
) -> QuasiExactSolution:
    K = k ** 0.25
    beta = b * K**3
    eps = energy_from_termination(n, l, K, b)
    sys = PhysicalSystem(alpha=alpha, beta=beta, k=k, l=l)
    hp = to_heun_params(sys, eps)
    seq = coefficient_sequence(hp, n + 8)
    ode_sup = _ode_residual_sup(sys, eps, hp, seq)
    return QuasiExactSolution(
        n=n,
        l=l,
        alpha=alpha,
        k=k,
        b_root=b,
        beta=beta,
        epsilon=eps,
        heun_coefficients=seq.coefficients[: n + 1].copy(),
        residuals=ResidualReport(constraint=abs(poly(b)), ode_sup=ode_sup),
    )


def _ode_residual_sup(
    sys: PhysicalSystem,
    epsilon: float,
    hp: HeunParameters,
    seq: CoefficientSequence,
    n_samples: int = 50,
) -> float:
    """Sup of the Heun ODE residual over z in (0, 2*K*r4]."""
    tp = turning_points(sys, epsilon)
    r4 = max((abs(z) for z in tp.roots), default=1.0)
    z_hi = 2.0 * sys.K * max(r4, 1.0)
    zs = np.linspace(z_hi / n_samples, z_hi, n_samples)
    return max(ode_residual(hp, seq, z) for z in zs)


def closed_form_n0(l: int, alpha: float, K: float) -> QuasiExactSolution:
    """The unique n=0 solution: b = alpha/(K(l+1)), H = 1.

    eps = K^2 (l + 3/2) - (1/8) (alpha/(l+1))^2 / K^2 ... in scaled form
    eps = K^2 (l + 3/2) - K^2 b^2 / 8 with b = alpha/(K(l+1)).
    """
    b = alpha / (K * (l + 1.0))
    poly = constraint_polynomial(0, l, alpha / K)
    return _assemble_solution(0, l, alpha, K**4, b, poly)


def closed_form_n1(l: int, alpha: float, K: float) -> list[QuasiExactSolution]:
    """Both n=1 branches in closed form.

    The termination quadratic is

        (l+1)(l+2) b^2 - (alpha/K)(2l+3) b + alpha^2/K^2 - 2(2l+2) = 0,

    with roots

        b = (alpha/K)(l+3/2)/((l+1)(l+2))
            +- sqrt[ (alpha/K)^2 / (4 (l+1)^2 (l+2)^2) + 4/(l+2) ].
    """
    aK = alpha / K
    mid = aK * (l + 1.5) / ((l + 1.0) * (l + 2.0))
    disc = aK * aK / (4.0 * (l + 1.0) ** 2 * (l + 2.0) ** 2) + 4.0 / (l + 2.0)
    poly = constraint_polynomial(1, l, aK)
    return [
        _assemble_solution(1, l, alpha, K**4, b, poly)
        for b in sorted((mid - disc**0.5, mid + disc**0.5))
    ]


def solve_family(n: int, l: int, alpha: float, k: float) -> list[QuasiExactSolution]:
    """All quasi-exact solutions of degree n: one per real root of the constraint.

    Returns solutions in ascending b order; empty list if no real roots.
    """
    if k <= 0:
        raise ValueError(f"k must be positive (got {k})")
    K = k ** 0.25
    poly = constraint_polynomial(n, l, alpha / K)
    roots, _ = solve_b_roots(poly)
    return [_assemble_solution(n, l, alpha, k, b, poly) for b in roots]


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
