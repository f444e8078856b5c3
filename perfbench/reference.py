"""High-precision reference for the quasi-exact spectrum, independent of biheun.

With the energy fixed at termination, the Heun recurrence reads

    (j+1)(j+2l+2) c_{j+1} = -2(n+1-j) c_{j-1} + (b (j+l+1) - alpha/K) c_j,

c_{-1} = 0, c_0 = 1, and the family of degree n terminates exactly where
c_{n+1}(b) = 0, a polynomial of degree n+1 in b. Its roots are the
eigenvalues of a symmetric tridiagonal (Jacobi) matrix, so they are real and
distinct. Double-precision eigenvalues of that matrix seed Newton's method on
c_{n+1}(b), run in mpmath at ``DPS`` digits.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf

DPS = 50


def _termination(n: int, l: int, aK, b):
    """(c_{n+1}(b), d c_{n+1} / d b) by the recurrence and its derivative."""
    c_prev, c = mpf(0), mpf(1)
    d_prev, d = mpf(0), mpf(0)
    for j in range(n + 1):
        lin = b * (j + l + 1) - aK
        den = (j + 1) * (j + 2 * l + 2)
        c_next = (-2 * (n + 1 - j) * c_prev + lin * c) / den
        d_next = (-2 * (n + 1 - j) * d_prev + (j + l + 1) * c + lin * d) / den
        c_prev, c = c, c_next
        d_prev, d = d, d_next
    return c, d


def _jacobi_guess(n: int, l: int, aK: float) -> np.ndarray:
    j = np.arange(n + 1, dtype=float)
    diag = aK / (j + l + 1)
    jj = j[:-1]
    off = np.sqrt(2 * (n - jj) * (jj + 1) * (jj + 2 * l + 2) / ((jj + l + 1) * (jj + l + 2)))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def b_roots(n: int, l: int, alpha: float, k: float) -> list:
    """All n+1 roots b of the termination condition, ascending, as mpf."""
    with mp.workdps(DPS):
        aK = mpf(alpha) / mpf(k) ** mpf(0.25)
        roots = []
        for guess in _jacobi_guess(n, l, float(aK)):
            b = mpf(guess)
            for _ in range(40):
                f, df = _termination(n, l, aK, b)
                step = f / df
                b -= step
                if abs(step) <= mpf(10) ** (8 - DPS) * max(1, abs(b)):
                    break
            else:
                raise ArithmeticError(f"Newton did not converge for n={n}, l={l}")
            roots.append(b)
        roots.sort()
        if any(hi - lo <= mpf(10) ** (8 - DPS) * max(1, abs(hi)) for lo, hi in zip(roots, roots[1:])):
            raise ArithmeticError(f"two Newton starts met one root for n={n}, l={l}")
        return roots


def energy(n: int, l: int, k: float, b):
    """eps = K^2 (n + l + 3/2) - K^2 b^2 / 8, at DPS digits."""
    with mp.workdps(DPS):
        K2 = mp.sqrt(mpf(k))
        return K2 * (n + l + mpf(1.5)) - K2 * b * b / 8
