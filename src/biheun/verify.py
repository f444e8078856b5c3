"""Acceptance checks: every claim the library makes, tested against independent routes.

Each criterion function returns a CriterionResult of the Figures it prints, each
held to the bound its name states; the record derives the verdict (a NaN figure
fails) and the pass/fail line that run_acceptance prints. The Lagrange-Laguerre
mesh oracle (module ``oracle``), the n = 0 and n = 1 closed forms and the
power-matching series oracle (below) are deliberately separate from the
production code paths they check; the closed forms share only the assembly of
a solution from its b and H (energy and beta) with
``solve_family``. Termination is read on each solution's own H, not on a
series rebuilt from its energy."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .heun import HeunParameters, coefficient_sequence, recurrence_rows, to_heun_params
from .model import PhysicalSystem, turning_points
from .oracle import RTOL, Confirmation, RadialGrid, _solve, confirm_all
from .quantize import ODE_RTOL, QuasiExactSolution, _assemble_solution, certify, solve_family

# Largest termination_residual a solution on the manifold may show.
TERMINATION_RTOL = 1e-10


@dataclass(frozen=True)
class Figure:
    """One printed figure: the worst of its values, held to its bound."""
    label: str
    values: object  # array-like
    bound: float
    fmt: str = "{:.2e}"
    at_least: bool = False  # the bound is a floor, not a ceiling

    @property
    def value(self) -> float:
        """The worst value, NaN if any is NaN (Python's max and min drop a NaN that is
        not first), so the verdict fails on it."""
        return float(np.min(self.values) if self.at_least else np.max(self.values))

    @property
    def passed(self) -> bool:
        return self.value >= self.bound if self.at_least else self.value <= self.bound


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    figures: tuple[Figure, ...]
    note: str = ""  # printed before the figures
    elapsed_s: float | None = None  # wall time, filled in by run_acceptance

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.figures)

    @property
    def detail(self) -> str:
        pairs = ", ".join(f"{f.label}={f.fmt.format(f.value)}" for f in self.figures)
        return f"{self.note}; {pairs}" if self.note else pairs

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} -- {self.detail}"


def closed_form_n0(l: int, alpha: float, K: float) -> QuasiExactSolution:
    """The unique n=0 solution: b = alpha/(K(l+1)), H = 1, level 0.

    Its energy is eps = K^2 (l + 3/2) - K^2 b^2 / 8.
    """
    b = alpha / (K * (l + 1.0))
    return _assemble_solution(0, l, alpha, K**4, b, np.array([1.0]), level=0)


def closed_form_n1(l: int, alpha: float, K: float) -> list[QuasiExactSolution]:
    """Both n=1 branches in closed form, ascending b (levels 1 and 0).

    The termination quadratic is

        (l+1)(l+2) b^2 - (alpha/K)(2l+3) b + alpha^2/K^2 - 2(2l+2) = 0,

    with roots

        b = (alpha/K)(l+3/2)/((l+1)(l+2))
            +- sqrt[ (alpha/K)^2 / (4 (l+1)^2 (l+2)^2) + 4/(l+2) ],

    and H = 1 + (b (l+1) - alpha/K) z / (2l+2).
    """
    aK = alpha / K
    mid = aK * (l + 1.5) / ((l + 1.0) * (l + 2.0))
    disc = aK * aK / (4.0 * (l + 1.0) ** 2 * (l + 2.0) ** 2) + 4.0 / (l + 2.0)
    return [
        _assemble_solution(
            1, l, alpha, K**4, b, np.array([1.0, (b * (l + 1.0) - aK) / (2.0 * l + 2.0)]),
            level=level,
        )
        for b, level in ((mid - disc**0.5, 1), (mid + disc**0.5, 0))
    ]


def power_matching_coefficients(
    a: float, b: float, c: float, d: float, n_coeffs: int
) -> np.ndarray:
    """Series coefficients of the Heun equation by direct operator assembly.

    Multiplies the ODE by z, assembles the banded linear operator acting on
    truncated power series, and solves the triangular system order by order.
    Shares no code with the recurrence in ``heun.coefficient_sequence``.
    """
    D = -b * (a + 1.0) / 2.0 - d / 2.0
    m = n_coeffs + 1
    # op[N, j] = coefficient of z^N in (z * ODE) applied to the monomial z^j
    op = np.zeros((m + 2, m))
    for j in range(m):
        # ((-2 - a + c) z + D) * z^j
        op[j + 1, j] += -2.0 - a + c
        op[j, j] += D
        if j >= 1:
            # (-2 z^2 - b z + (1 + a)) * j z^{j-1}
            op[j + 1, j] += -2.0 * j
            op[j, j] += -b * j
            op[j - 1, j] += (1.0 + a) * j
        if j >= 2:
            # z * j (j-1) z^{j-2}
            op[j - 1, j] += j * (j - 1.0)
    cs = np.zeros(m)
    cs[0] = 1.0
    for N in range(m - 1):
        known = op[N, : N + 1] @ cs[: N + 1]
        cs[N + 1] = -known / op[N, N + 1]
    return cs


def termination_residual(sols: list[QuasiExactSolution]) -> list[float]:
    """Normwise defect of each solution's own H, for one (n, l) family, in the
    recurrence rows j = 0..n+1 (``heun.recurrence_rows``; rows n and n+1 hold the
    constraint on b and the energy): the largest |R_j| over the largest T_j, at the
    Heun parameters of the solution's system and energy. c = 2 eps/K^2 + b^2/4 counts
    as |2 eps/K^2| + b^2/4: at large b the two cancel, and the rounding of eps shows at
    the scale of b^2. One ``recurrence_rows`` call takes every branch, with each
    branch's ``to_heun_params`` as columns."""
    hps = [to_heun_params(sol.system(), sol.epsilon) for sol in sols]
    # Python's b**2, as for one branch: numpy's can differ by an ulp
    c_size = [[2.0 * abs(sol.epsilon) / sol.K**2 + hp.b**2 / 4.0] for sol, hp in zip(sols, hps)]
    columns = np.array([list(vars(hp).values()) for hp in hps]).T[:, :, None]  # a, b, c, d
    rows = recurrence_rows(HeunParameters(*columns),
                           np.array([sol.heun_coefficients for sol in sols]), np.array(c_size))
    return (np.max(np.abs(rows[:, 0]), axis=-1) / np.max(rows[:, 1], axis=-1)).tolist()


def confirm_solutions(sols: list[QuasiExactSolution], vector: bool = False) -> list[Confirmation]:
    """The oracle's verdict on each solution at its Sturm level, from one ``confirm_all``
    call: the one place that turns solutions into the oracle's states."""
    return confirm_all([sol.system() for sol in sols], [sol.epsilon for sol in sols],
                       [sol.level for sol in sols], vector)


def criterion_1() -> CriterionResult:
    """n=0 closed form energies appear in the oracle spectrum."""
    t0 = time.perf_counter()
    sols = [closed_form_n0(l, alpha, 1.0) for l in (0, 1, 2, 3) for alpha in (0.5, 1.0, 2.0)]
    gaps = [c.gap for c in confirm_solutions(sols)]
    return CriterionResult(1, f"n=0 closed form vs oracle ({RTOL:g}, <10 s)", (
        Figure("worst rel gap", gaps, RTOL),
        Figure("elapsed", [time.perf_counter() - t0], 10.0, "{:.1f}s")))


def criterion_2() -> CriterionResult:
    """n=1 closed form vs the solve_family roots and the oracle."""
    mismatches, closed = [], []
    for l in (0, 1, 2):
        for alpha in (0.0, 1.0):
            sols = closed_form_n1(l, alpha, 1.0)
            roots = [s.b_root for s in solve_family(1, l, alpha, 1.0)]
            closed += sols
            mismatches += [abs(sol.b_root - root) / max(1.0, abs(root))
                           for sol, root in zip(sols, roots)]
    return CriterionResult(
        2, f"n=1 closed form vs solve_family roots (1e-12) and oracle ({RTOL:g})",
        (Figure("worst root mismatch", mismatches, 1e-12),
         Figure("worst oracle gap", [c.gap for c in confirm_solutions(closed)], RTOL)))


def criterion_3() -> CriterionResult:
    """General n: termination, ODE residual, oracle confirmation."""
    families = [solve_family(n, l, alpha, 1.0)
                for n in range(0, 9) for l in range(0, 4) for alpha in (0.0, 1.0)]
    sols = [sol for family in families for sol in family]
    return CriterionResult(
        3, f"general n<=8: termination {TERMINATION_RTOL:g}, ODE residual {ODE_RTOL:g}, "
        f"oracle {RTOL:g}",
        (Figure("worst termination", [r for fam in families for r in termination_residual(fam)],
                TERMINATION_RTOL),
         Figure("ode", [r for fam in families for r in certify(fam)], ODE_RTOL),
         Figure("oracle gap", [c.gap for c in confirm_solutions(sols)], RTOL)),
        f"{len(sols)} solutions")


def criterion_4() -> CriterionResult:
    """Recurrence vs power-matching oracle on 100 random parameter sets."""
    rng = np.random.default_rng(20260826)
    mismatches = []
    for _ in range(100):
        l = int(rng.integers(0, 6))
        a = 2.0 * l + 1.0
        b, c, d = rng.uniform(-3.0, 3.0, size=3)
        rec = coefficient_sequence(HeunParameters(a=a, b=b, c=c, d=d), 14)
        ora = power_matching_coefficients(a, b, c, d, 14)
        denom = np.maximum(np.abs(ora), 1e-12 * max(np.max(np.abs(ora)), 1.0))
        mismatches.append(np.abs(rec - ora) / denom)
    return CriterionResult(4, "recurrence matches power-matching oracle (100 random sets, 1e-12)",
                           (Figure("worst relative mismatch", mismatches, 1e-12),))


def criterion_5() -> CriterionResult:
    """Oscillator limit: eps = 2 n_r + l + 3/2 within 1e-5."""
    # an absolute bound: confirm's gap is relative to max(1, |eps|)
    systems, eps, levels = zip(*[(PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=l),
                                  2.0 * nr + l + 1.5, nr) for l in (0, 1, 2) for nr in range(3)])
    errors = [abs(c.energy - e) for c, e in zip(confirm_all(systems, eps, levels), eps)]
    return CriterionResult(5, "oscillator limit levels within 1e-5",
                           (Figure("worst abs error", errors, 1e-5),))


def criterion_6() -> CriterionResult:
    """Spectrum scaling: (alpha, beta, k) output = K^2 x (alpha/K, beta/K^3, 1) output."""
    rng = np.random.default_rng(42)
    defects = []
    for _ in range(10):
        alpha = float(rng.uniform(0.0, 2.0))
        k = float(rng.uniform(0.3, 4.0))
        n = int(rng.integers(0, 5))
        l = int(rng.integers(0, 3))
        K = k ** 0.25
        sols = solve_family(n, l, alpha, k)
        sols_scaled = solve_family(n, l, alpha / K, 1.0)
        defects += [abs(s.epsilon - K * K * ss.epsilon) / max(1.0, abs(s.epsilon))
                    for s, ss in zip(sols, sols_scaled)]
        # oracle side, on correspondingly scaled meshes
        beta = float(rng.uniform(-1.5, 1.5))
        sys = PhysicalSystem(alpha=alpha, beta=beta, k=k, l=l)
        sys_s = PhysicalSystem(alpha=alpha / K, beta=beta / K**3, k=1.0, l=l)
        grid = RadialGrid.auto(sys)
        grid_s = RadialGrid(grid.r_edge * K, grid.points)
        (e1, _), (e2, _) = _solve([sys, sys_s], [grid, grid_s], [0, 0], False)
        e1, e2 = e1[:3], e2[:3]
        defects += (np.abs(e1 - K * K * e2) / np.maximum(1.0, np.abs(e1))).tolist()
    return CriterionResult(6, "K-scaling invariance within 1e-8 (10 random sets)",
                           (Figure("worst relative defect", defects, 1e-8),))


def criterion_7() -> CriterionResult:
    """Vieta residuals below 1e-9 for 20 random (system, epsilon) pairs."""
    rng = np.random.default_rng(7)
    residuals = []
    for _ in range(20):
        sys = PhysicalSystem(
            alpha=float(rng.uniform(0.0, 3.0)),
            beta=float(rng.uniform(-3.0, 3.0)),
            k=float(rng.uniform(0.2, 5.0)),
            l=int(rng.integers(0, 4)),
        )
        eps = float(rng.uniform(-5.0, 10.0))
        residuals += turning_points(sys, eps).vieta_residuals
    return CriterionResult(7, "Vieta residuals < 1e-9 (20 random pairs)",
                           (Figure("worst residual", residuals, 1e-9),))


def criterion_8() -> CriterionResult:
    """Perturbing beta off-manifold breaks termination by >= 10x tolerance."""
    ratios = [r / TERMINATION_RTOL for n in (1, 2, 3, 5) for l in (0, 1)
              for r in termination_residual([replace(sol, beta=sol.beta + 1e-3)
                                             for sol in solve_family(n, l, 1.0, 1.0)])]
    return CriterionResult(
        8, "off-manifold beta perturbation breaks termination by >= 10x",
        (Figure("smallest residual/tolerance ratio", ratios, 10.0, "{:.1e}", at_least=True),),
        f"{len(ratios)} solutions",
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_acceptance() -> list[CriterionResult]:
    """Run every criterion, printing one timed PASS/FAIL line each."""
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.perf_counter()
        res = replace(fn(), elapsed_s=time.perf_counter() - t0)
        results.append(res)
        print(f"{res.line} [{res.elapsed_s:.2f} s]")
    return results
