"""Bi-confluent Heun parameter map, 3-term recurrence, relative ODE residual.

The equation solved by H(z) is

    H'' + (-2z - b + (1+a)/z) H' + (-2 - a + c + D/z) H = 0,
    D = -b(a+1)/2 - d/2,

which the scaled radial problem reaches through z = K*r and

    a = 2l + 1,   b = beta/K^3,   c = 2 eps/K^2 + b^2/4,   d = -2 alpha/K.

The series H = sum c_j z^j obeys the 3-term recurrence

    c_1 = -D / (1+a),
    c_{j+1} = [(2j + a - c) c_{j-1} + (j b - D) c_j] / ((j+1)(a+j+1)),  j >= 1.

Solutions become degree-n polynomials exactly when c_{n+1} = c_{n+2} = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalSystem


@dataclass(frozen=True)
class HeunParameters:
    """Parameters (a, b, c, d) of the bi-confluent Heun equation above."""

    a: float
    b: float
    c: float
    d: float

    @property
    def D(self) -> float:
        return -self.b * (self.a + 1.0) / 2.0 - self.d / 2.0


def to_heun_params(sys: PhysicalSystem, epsilon: float) -> HeunParameters:
    """Map a physical system plus energy to bi-confluent Heun parameters.

    c is derived from epsilon, so it carries epsilon's rounding scaled by
    2/K^2; on the termination manifold ``QuasiExactSolution.heun_parameters``
    sets c = 2(n+l+1)+1 exactly instead.
    """
    K = sys.K
    b = sys.beta / K**3
    return HeunParameters(
        a=2.0 * sys.l + 1.0,
        b=b,
        c=2.0 * epsilon / K**2 + b * b / 4.0,
        d=-2.0 * sys.alpha / K,
    )


def coefficient_sequence(hp: HeunParameters, n_coeffs: int) -> np.ndarray:
    """c_0..c_{n_coeffs} by the 3-term recurrence, c_0 = 1.

    On the termination manifold c_{n+1}, c_{n+2} and every later coefficient
    come out at rounding level; off it, ``verify.termination_residual`` reads
    from them how far termination fails.
    """
    if n_coeffs < 0:
        raise ValueError(f"n_coeffs must be >= 0 (got {n_coeffs})")
    a, b, c, D = hp.a, hp.b, hp.c, hp.D
    cs = np.zeros(n_coeffs + 1)
    cs[0] = 1.0
    if n_coeffs >= 1:
        cs[1] = -D / (1.0 + a)
    for j in range(1, n_coeffs):
        cs[j + 1] = ((2.0 * j + a - c) * cs[j - 1] + (j * b - D) * cs[j]) / (
            (j + 1.0) * (a + j + 1.0)
        )
    return cs


def ode_residual(hp: HeunParameters, coeffs: np.ndarray, z: float) -> float:
    """Relative residual of the Heun ODE for H = sum coeffs[j] z^j at one z > 0.

    |H'' + (-2z - b + (1+a)/z) H' + (-2-a+c+D/z) H| divided by its
    absolute-value (backward-error) scale, in which every monomial and ODE
    coefficient enters with |.|, floored at 1. Cancellation inside H(z)
    therefore cannot shrink the denominator below the rounding floor of the
    evaluation, and a solution of the ODE reads at the level of rounding.
    """
    if z <= 0:
        raise ValueError(f"z must be positive (got {z})")
    coef1 = -2.0 * z - hp.b + (1.0 + hp.a) / z
    coef0 = -2.0 - hp.a + hp.c + hp.D / z
    # term j of H'' + coef1 H' + coef0 H is c_j z^j [j(j-1)/z^2 + coef1 j/z + coef0]
    j = np.arange(len(coeffs))
    terms = coeffs * z**j
    d2, d1 = j * (j - 1) / (z * z), j / z
    residual = abs(terms @ (d2 + coef1 * d1 + coef0))
    scale = np.abs(terms) @ (d2 + abs(coef1) * d1 + abs(coef0))
    return float(residual / max(scale, 1.0))
