"""Bi-confluent Heun parameter map, 3-term recurrence, series evaluation.

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

# Two consecutive coefficients below this (relative to the running max)
# mark a terminated sequence.
TERMINATION_RTOL = 1e-10


@dataclass(frozen=True)
class HeunParameters:
    a: float
    b: float
    c: float
    d: float

    @property
    def D(self) -> float:
        return -self.b * (self.a + 1.0) / 2.0 - self.d / 2.0


@dataclass(frozen=True)
class CoefficientSequence:
    """Series coefficients c_0..c_N with c_0 = 1, plus termination marker.

    ``terminated_at`` = n means |c_{n+1}| and |c_{n+2}| fell below the
    relative termination tolerance (and, by the 3-term structure, every
    later coefficient is then annihilated as well).
    """

    coefficients: np.ndarray
    terminated_at: int | None = None


def to_heun_params(sys: PhysicalSystem, epsilon: float) -> HeunParameters:
    """Map a physical system plus energy to bi-confluent Heun parameters."""
    K = sys.K
    b = sys.beta / K**3
    return HeunParameters(
        a=2.0 * sys.l + 1.0,
        b=b,
        c=2.0 * epsilon / K**2 + b * b / 4.0,
        d=-2.0 * sys.alpha / K,
    )


def recurrence_factors(hp: HeunParameters, l: int, n: int) -> tuple[float, float]:
    """(E_{n-1}, A_n) of the compact recurrence c_{n+1} = E_{n-1} c_{n-1} + A_n c_n.

    E_{n-1} = [2(n+l) + (1-c)] / [(n+1)(2(l+1)+n)]
    A_n     = (n b - D)        / [(n+1)(2(l+1)+n)]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    denom = (n + 1.0) * (2.0 * (l + 1) + n)
    e = (2.0 * (n + l) + (1.0 - hp.c)) / denom
    a_n = (n * hp.b - hp.D) / denom
    return e, a_n


def coefficient_sequence(hp: HeunParameters, n_coeffs: int) -> CoefficientSequence:
    """Generate c_0..c_{n_coeffs} by the 3-term recurrence, c_0 = 1.

    Sets ``terminated_at`` to the first n for which c_{n+1} and c_{n+2}
    both vanish within TERMINATION_RTOL of the running coefficient scale;
    all later coefficients are forced to exact zero in that case.
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

    terminated_at = None
    running_max = abs(cs[0])
    for n in range(n_coeffs - 1):
        # scale relative to the whole sequence AND to the trailing pair: a
        # smoothly decaying (entire, non-terminating) series eventually dips
        # below the global scale, but only true termination shows the abrupt
        # rounding-level drop against c_{n-1}, c_n.
        local = max(abs(cs[n]), abs(cs[n - 1]) if n >= 1 else abs(cs[n]))
        bound = TERMINATION_RTOL * min(running_max, local) if local > 0 else 0.0
        if abs(cs[n + 1]) <= bound and abs(cs[n + 2]) <= bound:
            terminated_at = n
            cs[n + 1 :] = 0.0
            break
        running_max = max(running_max, abs(cs[n + 1]))
    return CoefficientSequence(coefficients=cs, terminated_at=terminated_at)


def eval_series(
    hp: HeunParameters,
    z: float,
    order: int | None = None,
    tail_tol: float | None = None,
    max_terms: int = 2000,
) -> float:
    """Evaluate H(z) = sum c_j z^j on z >= 0 by Horner's scheme.

    Exactly one of ``order`` (fixed truncation) or ``tail_tol`` must be
    given. In tail-tolerance mode the truncation order is raised until the
    last two partial terms |c_j z^j| fall below tail_tol, failing if
    ``max_terms`` coefficients do not suffice.
    """
    if z < 0:
        raise ValueError(f"z must be non-negative (got {z})")
    if (order is None) == (tail_tol is None):
        raise ValueError("specify exactly one of order or tail_tol")

    if order is not None:
        seq = coefficient_sequence(hp, order)
        return horner(seq.coefficients, z)

    n = 32
    while n <= max_terms:
        seq = coefficient_sequence(hp, n)
        cs = seq.coefficients
        if seq.terminated_at is not None:
            return horner(cs, z)
        zp = z ** (n - 1) if z > 0 else 0.0
        if abs(cs[-2]) * zp <= tail_tol and abs(cs[-1]) * zp * max(z, 1.0) <= tail_tol:
            return horner(cs, z)
        n *= 2
    raise RuntimeError(
        f"series tail below {tail_tol} not reached within {max_terms} terms"
    )


def horner(coeffs_ascending: np.ndarray, z: float) -> float:
    acc = 0.0
    for c in coeffs_ascending[::-1]:
        acc = acc * z + c
    return float(acc)


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
