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

import functools
import math
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
    come out near rounding level, but the forward recurrence loses digits at
    large b, so H is built by ``quantize`` and only criterion 4 of ``verify``
    calls this, against its power-matching oracle.
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


@functools.cache
def _derivative_weights(m: int) -> np.ndarray:
    """The (m, 3) matrix with columns 1, j, j(j-1), j = 0..m-1."""
    j = np.arange(m, dtype=float)
    w = np.column_stack((np.ones(m), j, j * (j - 1.0)))
    w.setflags(write=False)  # shared by every caller through the cache
    return w


def ode_residual(hp: HeunParameters, coeffs: np.ndarray, z: float) -> float:
    """Relative residual of the Heun ODE for H = sum coeffs[j] z^j at one z, 0 < z < inf.

    The terms t_j = c_j z^j give three moment sums against the cached weights
    1, j, j(j-1): S_0 = H, S_1 = z H' and S_2 = z^2 H''. The residual
    |S_2/z^2 + coef1 S_1/z + coef0 S_0|, with coef1 = -2z - b + (1+a)/z and
    coef0 = -2 - a + c + D/z, is divided by its absolute-value (backward-error)
    scale A_2/z^2 + |coef1| A_1/z + |coef0| A_0, where A_k are the same sums over
    |t_j|: every monomial and ODE coefficient enters with |.|, floored at 1.
    Cancellation inside H(z) therefore cannot shrink the denominator below the
    rounding floor of the evaluation (|S_k| <= A_k, so rounding stays within u
    times the scale), and a solution of the ODE reads at the level of rounding.

    ValueError unless 0 < z < inf. The terms and sums are numpy work under the
    caller's ``np.errstate``; whatever passes it, a residual or scale that is not
    finite (an infinite scale would read 0) raises FloatingPointError.
    """
    z = float(z)
    if not 0.0 < z < math.inf:
        raise ValueError(f"z must be positive and finite (got {z})")
    coef1 = -2.0 * z - hp.b + (1.0 + hp.a) / z
    coef0 = -2.0 - hp.a + hp.c + hp.D / z
    w = _derivative_weights(len(coeffs))
    j = w[:, 1]
    if (len(coeffs) - 1) * math.log(z) < 700.0:
        terms = coeffs * z**j
    else:  # z^n overflows where no c_j z^j need: form each term in logs
        with np.errstate(divide="ignore"):  # log 0 = -inf gives a 0 term
            terms = np.sign(coeffs) * np.exp(np.log(np.abs(coeffs)) + j * math.log(z))
    s0, s1, s2 = terms.dot(w).tolist()
    a0, a1, a2 = np.abs(terms).dot(w).tolist()
    residual = abs((s2 / z + coef1 * s1) / z + coef0 * s0)
    scale = (a2 / z + abs(coef1) * a1) / z + abs(coef0) * a0
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise FloatingPointError(f"not finite at z = {z}: residual {residual}, scale {scale}")
    return residual / max(scale, 1.0)
