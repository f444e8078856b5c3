"""Physical system in scaled units, effective momentum curve, classical turning points.

The radial problem is taken in the dimensionless form

    f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta*r - k*r^2] f = 0,

with the 2M/hbar^2 factors already absorbed into (alpha, beta, k, eps).
The quartic scale is K = k^(1/4); k > 0 is required throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def effective_momentum_squared(sys: PhysicalSystem, epsilon: float, r: float) -> float:
    """P^2(r) = 2 eps + alpha/r - l(l+1)/r^2 - beta*r - k*r^2 at radius r > 0."""
    if r <= 0:
        raise ValueError(f"r must be positive (got {r})")
    return (
        2.0 * epsilon
        + sys.alpha / r
        - sys.l * (sys.l + 1) / r**2
        - sys.beta * r
        - sys.k * r**2
    )


def _quartic_coeffs(sys: PhysicalSystem, epsilon: float) -> np.ndarray:
    """Descending coefficients of -k r^4 - beta r^3 + 2 eps r^2 + alpha r - l(l+1)."""
    return np.array(
        [-sys.k, -sys.beta, 2.0 * epsilon, sys.alpha, -float(sys.l * (sys.l + 1))]
    )


def _newton_polish(coeffs: np.ndarray, root: complex, iters: int = 3) -> complex:
    deriv = np.polyder(coeffs)
    z = root
    for _ in range(iters):
        dp = np.polyval(deriv, z)
        if dp == 0:
            break
        step = np.polyval(coeffs, z) / dp
        if not np.isfinite(step):
            break
        z = z - step
    return z


def turning_points(sys: PhysicalSystem, epsilon: float) -> TurningPointSet:
    """All four roots of the turning-point quartic, classified and ordered.

    Roots come from the companion-matrix eigenvalues, polished by Newton
    iteration on the quartic. A root is classified real when
    |Im| <= 1e-9 * (1 + |Re|).
    """
    coeffs = _quartic_coeffs(sys, epsilon)
    raw = np.roots(coeffs)
    polished = [_newton_polish(coeffs, z) for z in raw]

    real: list[complex] = []
    cplx: list[complex] = []
    for z in polished:
        if abs(z.imag) <= QUARTIC_IMAG_TOL * (1.0 + abs(z.real)):
            real.append(complex(z.real, 0.0))
        else:
            cplx.append(z)
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
