"""The bi-confluent Heun equation: its parameters, 3-term recurrence rows, relative ODE residual.

The equation solved by H(z) is

    H'' + (-2z - b + (1+a)/z) H' + (-2 - a + c + D/z) H = 0,
    D = -b(a+1)/2 - d/2,

which the scaled radial problem reaches through z = K*r and

    a = 2l + 1,   b = beta/K^3,   c = 2 eps/K^2 + b^2/4,   d = -2 alpha/K.

The series H = sum c_j z^j obeys the 3-term recurrence

    c_{j+1} = [(2j + a - c) c_{j-1} + (j b - D) c_j] / ((j+1)(a+j+1)),  j >= 0,

with c_{-1} = 0. Solutions become degree-n polynomials exactly when
c_{n+1} = c_{n+2} = 0. Row j of the recurrence is the coefficient of z^j in
z times the ODE applied to H, so ``recurrence_rows`` gives the series, the
termination figure and the ODE residual alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _row_factors(hp: HeunParameters, j: np.ndarray) -> tuple[np.ndarray, ...]:
    """Factors of c_{j+1}, c_{j-1} and c_j in row j: (j+1)(a+j+1), 2j + a - c, jb - D."""
    return (j + 1) * (hp.a + j + 1), 2 * j + hp.a - hp.c, j * hp.b - hp.D


def recurrence_rows(hp: HeunParameters, coeffs: np.ndarray, c_size: float) -> np.ndarray:
    """Defects R_j and sizes T_j of the rows j = 0..N for H = sum coeffs[..., j] z^j, N =
    coeffs.shape[-1], one H per row of a leading axis, with ``hp.b`` one or (rows, 1).

    R_j = (j+1)(a+j+1) c_{j+1} - (2j + a - c) c_{j-1} - (jb - D) c_j with
    c_{-1} = 0 and zeros past the last coefficient, so that z times the ODE
    applied to H is exactly sum_j R_j z^j. T_j is the same three terms in |.|,
    with D counted by its parts as (j + (a+1)/2)|b| + |d|/2 (D itself is a
    cancellation) and c by the magnitude ``c_size`` the caller knows it to have.
    Returns the (..., 2, N + 1) array of rows R and T.
    """
    j = np.arange(coeffs.shape[-1] + 1.0)
    lead, previous, current = _row_factors(hp, j)
    cs = np.zeros(coeffs.shape[:-1] + (len(j) + 2,))  # c_{-1}..c_{n+2}
    cs[..., 1:-2] = coeffs
    before, at, after = cs[..., :-2], cs[..., 1:-1], cs[..., 2:]
    defect = lead * after - previous * before - current * at
    size = (lead * np.abs(after) + (2 * j + hp.a + c_size) * np.abs(before)
            + ((j + (hp.a + 1) / 2) * abs(hp.b) + abs(hp.d) / 2) * np.abs(at))
    return np.stack((defect, size), axis=-2)


def coefficient_sequence(hp: HeunParameters, n_coeffs: int) -> np.ndarray:
    """c_0..c_{n_coeffs} with c_0 = 1, each row j of ``recurrence_rows`` solved for c_{j+1}.

    On the termination manifold c_{n+1}, c_{n+2} and every later coefficient
    come out near rounding level, but the forward recurrence loses digits at
    large b, so H is built by ``quantize`` and only criterion 4 of ``verify``
    calls this, against its power-matching oracle.
    """
    if n_coeffs < 0:
        raise ValueError(f"n_coeffs must be >= 0 (got {n_coeffs})")
    cs = [0.0, 1.0]  # c_{-1}, c_0
    for lead, previous, current in zip(*_row_factors(hp, np.arange(float(n_coeffs)))):
        cs.append((previous * cs[-2] + current * cs[-1]) / lead)
    return np.array(cs[1:])


def ode_residual(rows: np.ndarray, powers: np.ndarray) -> float:
    """Relative Heun ODE residual |sum_j R_j z^j| / sum_j T_j z^j of the rows
    (R, T) of ``recurrence_rows`` at one z > 0, from ``powers``, its z^j for each column j.

    The numerator is |z times the ODE applied to H|, the denominator the same
    sum with every term in |.|, so a solution reads at the level of rounding.
    T_1 >= (2 + a + c)|c_0| keeps the denominator positive when c_0 != 0.
    """
    # ndarray.dot makes the gemv that rows @ powers makes, without the matmul ufunc's overhead
    defect, size = rows.dot(powers).tolist()
    return abs(defect) / size
