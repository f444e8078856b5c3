"""Termination constraints: admissible linear strengths b, energies, wavefunctions.

Forcing c_{n+1} = c_{n+2} = 0 in the Heun series pins the energy through

    c = 2(n + l + 1) + 1   =>   eps = K^2 (n + l + 3/2) - K^2 b^2 / 8

and leaves the recurrence linear in b:

    b (j+l+1) c_j = (j+1)(j+2l+2) c_{j+1} + 2(n+1-j) c_{j-1} + (alpha/K) c_j,

for j = 0..n with c_{-1} = c_{n+1} = 0, i.e. M c = b W c with W = diag(j+l+1).
Both off-diagonals of M are positive, so W^-1 M is similar to a symmetric
tridiagonal (Jacobi) matrix: its n+1 eigenvalues are the admissible b, real
and distinct (the Bender-Dunne orthogonal-polynomial structure of quasi-exactly
solvable problems). H's coefficients span the null space of M - b W. Each b
fixes a linear coefficient beta = b K^3 for which the radial problem has a
polynomial bound state.

Note: every root defines a *different* potential. The quasi-exact spectrum
is a constraint manifold in (alpha, beta, k, l), not a spectrum of one
fixed potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heun import HeunParameters, ode_residual, recurrence_rows
from .model import PhysicalSystem, quartic_roots

_SAMPLES = np.linspace(1 / 50, 1.0, 50)  # the certificate's z / z_hi


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

    @property
    def K(self) -> float:
        return self.k ** 0.25

    @property
    def label(self) -> str:
        """The state's name in every refusal; branch n - level is b's index, ascending."""
        return f"(n={self.n}, l={self.l}, branch={self.n - self.level})"

    def system(self) -> PhysicalSystem:
        return PhysicalSystem(alpha=self.alpha, beta=self.beta, k=self.k, l=self.l)


def _family(sols: list[QuasiExactSolution]) -> tuple[int, int, float, float]:
    """(n, l, alpha, K) of solutions that share one (n, l, alpha, k), the family whose Heun
    parameters ``certify`` and ``verify.termination_residual`` form once for every branch.
    ValueError naming the first solution when any other differs from it."""
    first = sols[0]
    if any((s.n, s.l, s.alpha, s.k) != (first.n, first.l, first.alpha, first.k) for s in sols):
        raise ValueError(f"expected one (n, l, alpha, k) family, not all {first.label}'s")
    return first.n, first.l, first.alpha, first.K


def certify(sols: list[QuasiExactSolution]) -> list[float]:
    """The ODE-residual certificate of each solution of one (n, l, alpha, k) family: the
    sup of the relative Heun ODE residual of H at 50 z in (0, z_hi], z_hi = 2 max(K r4, 1),
    r4 the largest |turning point| of the branch.

    One stacked ``model.quartic_roots`` solve gives every z_hi (its largest |z|) and one
    ``heun.recurrence_rows`` call every branch's rows. Their Heun parameters take c =
    2(n+l+1)+1 exactly, not 2 eps/K^2 + b^2/4 from the rounded energy, whose cancellation
    against b^2/4 loses c's digits at large b. Row j is scaled once, in logs, by z_hi^j over
    the geometric mean of the largest T_j z^j at the top and the bottom sample, so each
    branch's 50 ``heun.ode_residual`` calls take the powers of t = z / z_hi <= 1 from one
    (50, n + 2) table the family shares, no power can overflow, and every sample's sums stay
    within range while n log 50 < 1400 (n < 360). ValueError from ``_family`` when the
    solutions are not one family; RuntimeError naming the first branch with rows not finite."""
    n, l, alpha, K = _family(sols)
    zs = quartic_roots([s.system() for s in sols], [s.epsilon for s in sols])
    z_hi = 2.0 * np.maximum(np.abs(zs).max(axis=1), 1.0)
    hp = HeunParameters(2.0 * l + 1.0, np.array([[s.b_root] for s in sols]),
                        2.0 * (n + l + 1) + 1.0, -2.0 * (alpha / K))
    with np.errstate(all="ignore"):  # a row that is not finite is refused below
        rows = recurrence_rows(hp, np.array([s.heun_coefficients for s in sols]), hp.c)
        j = np.arange(rows.shape[-1])
        logs = np.log(np.abs(rows)) + j * np.log(z_hi)[:, None, None]
        # log of the largest T_j z^j at the top and the bottom sample
        top, bottom = np.max(logs[:, 1], axis=-1), np.max(logs[:, 1] - j * math.log(50), axis=-1)
        rows = np.sign(rows) * np.exp(logs - ((top + bottom) / 2)[:, None, None])
    bad = [s for s, finite in zip(sols, np.isfinite(rows).all(axis=(1, 2))) if not finite]
    if bad:
        raise RuntimeError(f"{bad[0].label}: recurrence rows of the ODE residual are not finite")
    powers = list(_SAMPLES[:, None] ** np.arange(float(rows.shape[-1])))  # row i: t_i^j
    return [max([ode_residual(branch, p) for p in powers]) for branch in rows]


def _assemble_solution(
    n: int, l: int, alpha: float, k: float, b: float, coeffs: np.ndarray, level: int
) -> QuasiExactSolution:
    K = k ** 0.25
    return QuasiExactSolution(
        n=n,
        l=l,
        alpha=alpha,
        k=k,
        b_root=b,
        beta=b * K**3,
        epsilon=K * K * (n + l + 1.5) - K * K * b * b / 8.0,
        heun_coefficients=coeffs,
        level=level,
    )


def solve_family(n: int, l: int, alpha: float, k: float) -> list[QuasiExactSolution]:
    """All n+1 quasi-exact solutions of degree n, in ascending b order.

    The b are the eigenvalues of the Jacobi matrix S = P^-1 W^-1 M P, P diagonal
    and positive (module docstring); H's coefficients c are the null vector of
    M - b W at each b (``_null_vectors``), scaled to c_0 = 1.

    ``level`` is n - i for the i-th b in ascending order: the eigenvector
    P^-1 c of the m-th largest eigenvalue of a Jacobi matrix with positive
    off-diagonals has m sign changes, so the coefficients of that H change
    sign n - i times. By Descartes's rule this bounds H's positive zeros;
    they reach the bound, which ``oracle.confirm`` checks independently by
    finding the energy at exactly that level.
    """
    sys = PhysicalSystem(alpha, 0.0, k, l)  # checks alpha, k and l
    if not (n >= 0 and float(n).is_integer()):
        raise ValueError(f"n must be non-negative and an integer (got {n})")
    n, l, K = int(n), sys.l, sys.K
    aK = alpha / K
    if not np.isfinite(aK):
        raise OverflowError(f"alpha/K = {alpha}/{K} overflows a double")
    j = np.arange(n + 1.0)
    lo, up, w = 2 * (n + 1 - j), (j + 1) * (j + 2 * l + 2), j + l + 1  # M_{j,j-1}, M_{j,j+1}, W_jj
    off = np.sqrt(up[:-1] / w[:-1] * (lo[1:] / w[1:]))  # S's sub-diagonal, symmetrised W^-1 M
    b_roots = np.linalg.eigvalsh(np.diag(aK / w) + np.diag(off, -1))
    coeffs = _null_vectors(lo, up, aK - np.outer(w, b_roots))
    if not np.isfinite(coeffs).all():
        i = np.argmin(np.isfinite(coeffs).all(axis=0))
        raise RuntimeError(f"H's coefficients are not finite for (n={n}, l={l}, branch={i})")
    return [
        _assemble_solution(n, l, alpha, k, float(b), coeffs[:, i], n - i)
        for i, b in enumerate(b_roots)
    ]


def _null_vectors(lo: np.ndarray, up: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Null vectors of the tridiagonal matrices with sub-diagonal lo[1:], super-diagonal
    up[:-1] and diagonal d[:, i], one column each, scaled to c_0 = 1.

    A twisted factorisation (Dhillon & Parlett, Linear Algebra Appl. 387, 1
    (2004)): eliminate from row 0 down (pivots fwd) and from row n up (pivots
    bwd), set c_r = 1 at the row r where the two meet with the smallest defect
    |fwd_r + bwd_r - d_r|, and fill outward by the pivot ratios. Each c_j is
    then accurate to its own size, so the ratio c_j/c_0 survives where an
    eigenvector's small components hold only rounding.
    """
    n = len(lo) - 1
    j = np.arange(n + 1.0)
    fwd, bwd = d.copy(), d.copy()
    # overflow, a c_0 that underflows and an exactly zero pivot give inf or nan,
    # which the caller rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(1, n + 1):
            fwd[t] -= lo[t] * up[t - 1] / fwd[t - 1]
            bwd[n - t] -= up[n - t] * lo[n - t + 1] / bwd[n - t + 1]
        r = np.argmin(np.abs(fwd + bwd - d), axis=0)
        c = (j[:, None] == r).astype(float)
        for t in range(1, n + 1):
            c[n - t] = np.where(n - t < r, -up[n - t] * c[n - t + 1] / fwd[n - t], c[n - t])
            c[t] = np.where(t > r, -lo[t] * c[t - 1] / bwd[t], c[t])
        return c / c[0]


def wavefunction(sol: QuasiExactSolution, radii: np.ndarray) -> np.ndarray:
    """R(r) = r^l exp(-beta r / 2K^2) exp(-K^2 r^2 / 2) H(K r), scaled so that
    max |R r| over ``radii`` is 1.

    The envelope is one exp of its log, with the log's maximum taken out first:
    r^l alone overflows at large l (r^300 at r = 17), the product overflows from
    l ~ 330 (its peak is near exp((l/2)(ln l - 1)) at k = 1) and underflows at
    every radius at alpha = 1e9, l = 60. RuntimeError naming the state when the
    peak is 0 or not finite."""
    r = np.asarray(radii, dtype=float)
    if not 0 <= r.min() <= r.max() < np.inf:  # a NaN fails every comparison
        raise ValueError("radii must be finite and non-negative")
    K = sol.K
    z = K * r
    h = np.zeros_like(z)
    # r = 0: log r = -inf, r^l = 0 for l > 0; an H that is not finite is refused below
    with np.errstate(all="ignore"):
        for c in sol.heun_coefficients[::-1]:
            h = h * z + c
        power = sol.l * np.log(r) if sol.l else 0.0
        log_envelope = power - sol.beta * r / (2.0 * K * K) - K * K * r * r / 2.0
        R = np.exp(log_envelope - np.max(log_envelope)) * h
        peak = np.max(np.abs(R * r))
    if not 0 < peak < np.inf:
        raise RuntimeError(f"R has max |R r| {peak} for {sol.label}")
    return R / peak
