"""Physical system in scaled units and the roots of its turning-point quartic.

The radial problem is taken in the dimensionless form

    f'' + [2 eps + alpha/r - l(l+1)/r^2 - beta*r - k*r^2] f = 0,

with the 2M/hbar^2 factors already absorbed into (alpha, beta, k, eps).
The quartic scale is K = k^(1/4); k > 0 is required throughout.

The classical turning points are the roots of the quartic
-k r^4 - beta r^3 + 2 eps r^2 + alpha r - l(l+1), taken as the
companion-matrix eigenvalues of the same quartic in z = K r; a small pair far
below the large one is taken from the large pair through Vieta's identities.
The oracle's mesh sizing and the ODE-residual certificate read them.
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
    """Potential U = -alpha/r + beta*r + k*r^2 plus angular momentum l; the one place
    the rules on (alpha, beta, k, l) are stated."""

    alpha: float
    beta: float
    k: float
    l: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "k"):  # NaN or inf: OverflowError, as in _quartic_coeffs
            if not math.isfinite(getattr(self, name)):
                raise OverflowError(f"{name} must be finite (got {getattr(self, name)})")
        if self.k <= 0:
            raise ValueError(f"k must be positive (got {self.k})")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative (got {self.alpha})")
        if not (self.l >= 0 and float(self.l).is_integer()):  # NaN and inf fail too
            raise ValueError(f"l must be a non-negative integer (got {self.l})")
        object.__setattr__(self, "l", int(self.l))

    @property
    def K(self) -> float:
        """Quartic length/energy scale K = k^(1/4)."""
        return self.k ** 0.25


def _quartic_coeffs(sys: PhysicalSystem, epsilon: float) -> list[float]:
    """Descending coefficients of the turning-point quartic in z = K r,
    -z^4 - b z^3 + (2 eps/K^2) z^2 + (alpha/K) z - l(l+1), with b = beta/K^3.

    In z the leading coefficient is 1 whatever k is, so k = 1e-300 cannot
    overflow the companion matrix; OverflowError when a coefficient does."""
    K = sys.K
    coeffs = [-1.0, -float(sys.beta) / K**3, 2.0 * float(epsilon) / K**2,
              float(sys.alpha) / K, -float(sys.l * (sys.l + 1))]
    if not all(map(math.isfinite, coeffs)):
        raise OverflowError(f"turning-point quartic out of range: coefficients in K r are {coeffs}")
    return coeffs


def quartic_roots(systems: list[PhysicalSystem], eps: list[float]) -> np.ndarray:
    """The four roots z = K r of the turning-point quartic of each (system, epsilon) pair,
    shape (len(systems), 4), unordered: one stacked eigensolve of the companion matrices of
    ``_quartic_coeffs``, the matrix ``np.roots`` builds. Trailing zero coefficients (l = 0,
    and alpha = 0 with it) are not deflated: LAPACK's balancing isolates each such root as
    an exact 0, and the others can sit a few ulps from ``np.roots``' deflated solve.

    The eigensolve holds a small root only to about u max|coeff|. So in a row whose two
    smallest |z| lie below 1e-4 of the third, their product and sum are recomputed as
    e4/(z3 z4) and (e3 - z1 z2 (z3 + z4))/(z3 z4) from Vieta's e3 = alpha/K and
    e4 = l(l+1), and the quadratic is solved in its stable form. Such a row lists the
    retaken pair first; every other row is left as the eigensolve gives it."""
    c = np.array([_quartic_coeffs(*pair) for pair in zip(systems, eps)])
    companion = np.zeros((len(c), 16))  # flat: ones on the sub-diagonal, -c/c_0 = c on top
    companion[:, 4::5] = 1.0
    companion[:, :4] = c[:, 1:]
    eig = np.linalg.eigvals(companion.reshape(-1, 4, 4))  # float if every root is real
    roots = eig.astype(complex)
    moduli = np.sort(np.abs(eig), axis=1)
    for i in np.flatnonzero(moduli[:, 1] < 1e-4 * moduli[:, 2]):
        zs = sorted(eig[i].tolist(), key=abs)  # Python arithmetic, in eig's own type
        big = zs[2] * zs[3]
        if 0 < abs(big) < math.inf:
            _, _, _, c3, c4 = c[i].tolist()
            p = -c4 / big
            s = (c3 - p * (zs[2] + zs[3])) / big
            d = cmath.sqrt(s * s - 4.0 * p)
            t = (s + d if abs(s + d) >= abs(s - d) else s - d) / 2.0  # no cancellation
            roots[i] = t, (p / t if t else 0j), zs[2], zs[3]
    return roots


def roots_in_r(zs: list[complex], K: float) -> tuple[list[float], list[complex]]:
    """The roots r = z/K of the quartic in z = K r, split into the real ones, ascending,
    and the complex ones, by ascending real then imaginary part: a root is real when
    |Im| <= QUARTIC_IMAG_TOL (1 + |Re|). OverflowError at the first root, in the order
    given, that overflows a double in r."""
    real: list[float] = []
    cplx: list[complex] = []
    for z in zs:
        r = complex(z) / K  # Python arithmetic: an overflow is inf, not a warning
        if not cmath.isfinite(r):
            raise OverflowError(f"turning point out of range: {z} / K = {r}")
        if abs(r.imag) <= QUARTIC_IMAG_TOL * (1.0 + abs(r.real)):
            real.append(r.real)
        else:
            cplx.append(r)
    return sorted(real), sorted(cplx, key=lambda r: (r.real, r.imag))


def _vieta_residuals(
    zs: list[complex], sys: PhysicalSystem, epsilon: float
) -> tuple[float, float, float, float]:
    """Absolute defects of the four Vieta identities of the roots z = K r, one row of
    ``quartic_roots``, of the monic quartic z^4 + b z^3 - (2 eps/K^2) z^2 - (alpha/K) z
    + l(l+1) that it solves."""
    _, c1, c2, c3, c4 = _quartic_coeffs(sys, epsilon)  # the negated monic quartic
    z1, z2, z3, z4 = zs
    e1 = z1 + z2 + z3 + z4
    e2 = z1 * z2 + z1 * z3 + z1 * z4 + z2 * z3 + z2 * z4 + z3 * z4
    e3 = z2 * z3 * z4 + z1 * z3 * z4 + z1 * z2 * z4 + z1 * z2 * z3
    e4 = z1 * z2 * z3 * z4
    return abs(e1 - c1), abs(e2 + c2), abs(e3 - c3), abs(e4 + c4)
