"""Physical system in scaled units and its classical turning points.

The radial problem is taken in the dimensionless form

    f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta*r - k*r^2] f = 0,

with the 2M/hbar^2 factors already absorbed into (alpha, beta, k, eps).
The quartic scale is K = k^(1/4); k > 0 is required throughout.

The turning points are the roots of the quartic
-k r^4 - beta r^3 + 2 eps r^2 + alpha r - l(l+1), taken as the
companion-matrix eigenvalues of the same quartic in z = K r, with no
refinement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Scale-aware tolerance for deciding a quartic root is real.
QUARTIC_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class PhysicalSystem:
    """Potential U = -alpha/r + beta*r + k*r^2 plus angular momentum l."""

    alpha: float
    beta: float
    k: float
    l: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive (got {self.k})")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative (got {self.alpha})")
        if self.l < 0 or int(self.l) != self.l:
            raise ValueError(f"l must be a non-negative integer (got {self.l})")
        object.__setattr__(self, "l", int(self.l))

    @property
    def K(self) -> float:
        """Quartic length/energy scale K = k^(1/4)."""
        return self.k ** 0.25


@dataclass(frozen=True)
class TurningPointSet:
    """Roots of the turning-point quartic, with Vieta residual diagnostics.

    Roots are ordered real-ascending first, then complex conjugate pairs by
    ascending real part. ``vieta_residuals`` holds the absolute defects of
    the four elementary-symmetric-function identities.
    """

    roots: tuple[complex, complex, complex, complex]
    real_count: int
    vieta_residuals: tuple[float, float, float, float]

    @property
    def real_roots(self) -> list[float]:
        return [r.real for r in self.roots[: self.real_count]]


def _quartic_coeffs(sys: PhysicalSystem, epsilon: float) -> list[float]:
    """Descending coefficients of the turning-point quartic in z = K r,
    -z^4 - b z^3 + (2 eps/K^2) z^2 + (alpha/K) z - l(l+1), with b = beta/K^3.

    In z the leading coefficient is 1 whatever k is, so k = 1e-300 cannot
    overflow the companion matrix; ValueError when a coefficient does."""
    K = sys.K
    coeffs = [-1.0, -float(sys.beta) / K**3, 2.0 * float(epsilon) / K**2,
              float(sys.alpha) / K, -float(sys.l * (sys.l + 1))]
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"turning-point quartic out of range: coefficients in K r are {coeffs}")
    return coeffs


def turning_points(sys: PhysicalSystem, epsilon: float) -> TurningPointSet:
    """All four roots of the turning-point quartic, classified and ordered.

    One backward-stable eigensolve of the companion matrix of the quartic in
    z = K r (``np.roots``), then r = z/K; a root is classified real when
    |Im| <= 1e-9 * (1 + |Re|). ValueError when the quartic's coefficients in
    z or its roots in r overflow a double.
    """
    K = sys.K
    real: list[complex] = []
    cplx: list[complex] = []
    for z in np.roots(_quartic_coeffs(sys, epsilon)):
        r = complex(z) / K  # Python arithmetic: an overflow is inf, not a warning
        if not cmath.isfinite(r):
            raise ValueError(f"turning point out of range: {z} / K = {r}")
        if abs(r.imag) <= QUARTIC_IMAG_TOL * (1.0 + abs(r.real)):
            real.append(complex(r.real, 0.0))
        else:
            cplx.append(r)
    real.sort(key=lambda z: z.real)
    cplx.sort(key=lambda z: (z.real, z.imag))
    ordered = tuple(real + cplx)

    residuals = vieta_residuals(ordered, sys, epsilon)
    return TurningPointSet(roots=ordered, real_count=len(real), vieta_residuals=residuals)


def vieta_residuals(
    roots: tuple[complex, ...], sys: PhysicalSystem, epsilon: float
) -> tuple[float, float, float, float]:
    """Absolute defects of the four Vieta identities for the quartic roots."""
    r1, r2, r3, r4 = roots
    e1 = r1 + r2 + r3 + r4
    e2 = r1 * r2 + r1 * r3 + r1 * r4 + r2 * r3 + r2 * r4 + r3 * r4
    e3 = r2 * r3 * r4 + r1 * r3 * r4 + r1 * r2 * r4 + r1 * r2 * r3
    e4 = r1 * r2 * r3 * r4
    k = sys.k
    return (
        abs(e1 + sys.beta / k),
        abs(e2 + 2.0 * epsilon / k),
        abs(e3 - sys.alpha / k),
        abs(e4 - sys.l * (sys.l + 1) / k),
    )
