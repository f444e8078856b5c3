"""Acceptance checks: every claim the library makes, tested against independent routes.

Each criterion function returns a CriterionResult; run_acceptance prints one
pass/fail line per criterion. The Lagrange-Laguerre mesh oracle (module
``oracle``), the n = 0 and n = 1 closed forms and the power-matching series
oracle (below) are deliberately separate from the production code paths they
check; the closed forms share only the assembly of a solution from its b and
H (energy, beta and ODE residual) with ``solve_family``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .heun import HeunParameters, coefficient_sequence, to_heun_params
from .model import PhysicalSystem, turning_points
from .oracle import RadialGrid, confirm, fd_eigensolve
from .quantize import QuasiExactSolution, _assemble_solution, solve_family

# Largest termination_residual a solution on the manifold may show.
TERMINATION_RTOL = 1e-10


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float | None = None  # wall time, filled in by run_acceptance


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


def termination_residual(sol: QuasiExactSolution, beta_override: float | None = None) -> float:
    """Defect of the recurrence rows (j+1)(a+j+1) c_{j+1} = (2j + a - c) c_{j-1}
    + (jb - D) c_j at j = n, n+1, which should give c_{n+1} = c_{n+2} = 0, over the
    largest row of terms in absolute value (normwise: a row whose terms all vanish
    exactly holds only rounding noise), for the solution's parameters (optionally
    with a perturbed beta, holding epsilon fixed). c = 2 eps/K^2 + b^2/4 counts as
    |2 eps/K^2| + b^2/4: at large b the two cancel, and the rounding of eps shows
    at the scale of b^2."""
    sys = sol.system()
    if beta_override is not None:
        sys = PhysicalSystem(alpha=sys.alpha, beta=beta_override, k=sys.k, l=sys.l)
    hp = to_heun_params(sys, sol.epsilon)
    cs = np.abs(coefficient_sequence(hp, sol.n + 2))
    j = np.arange(sol.n + 2.0)
    defect = (j + 1) * (hp.a + j + 1) * cs[1:]
    c_size = 2.0 * abs(sol.epsilon) / sys.K**2 + hp.b**2 / 4.0
    previous = np.append(0.0, cs[:-2])  # c_{j-1}, c_{-1} = 0
    terms = defect + (2 * j + hp.a + c_size) * previous + np.abs(j * hp.b - hp.D) * cs[:-1]
    return float(np.max(defect[-2:]) / np.max(terms))


def criterion_1() -> CriterionResult:
    """n=0 closed form energies appear in the oracle spectrum."""
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for l in (0, 1, 2, 3):
        for alpha in (0.5, 1.0, 2.0):
            sol = closed_form_n0(l, alpha, 1.0)
            c = confirm(sol.system(), sol.epsilon, sol.level)
            rel = c.gap / max(1.0, abs(sol.epsilon))
            worst = max(worst, rel)
            if rel > 1e-6:
                ok = False
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        ok = False
    return CriterionResult(
        1,
        "n=0 closed form vs oracle (1e-6, <10 s)",
        ok,
        f"worst rel gap={worst:.2e}, elapsed={elapsed:.1f}s",
    )


def criterion_2() -> CriterionResult:
    """n=1 closed form vs the solve_family roots and the oracle."""
    worst_root = worst_gap = 0.0
    ok = True
    for l in (0, 1, 2):
        for alpha in (0.0, 1.0):
            sols = closed_form_n1(l, alpha, 1.0)
            roots = [s.b_root for s in solve_family(1, l, alpha, 1.0)]
            if len(roots) != 2:
                ok = False
                continue
            for sol, root in zip(sols, roots):
                err = abs(sol.b_root - root) / max(1.0, abs(root))
                worst_root = max(worst_root, err)
                if err > 1e-12:
                    ok = False
                c = confirm(sol.system(), sol.epsilon, sol.level)
                rel = c.gap / max(1.0, abs(sol.epsilon))
                worst_gap = max(worst_gap, rel)
                ok = ok and rel <= 1e-5
    return CriterionResult(
        2,
        "n=1 closed form vs solve_family roots (1e-12) and oracle (1e-5)",
        ok,
        f"worst root mismatch={worst_root:.2e}, worst oracle gap={worst_gap:.2e}",
    )


def criterion_3() -> CriterionResult:
    """General n: termination, ODE residual, oracle confirmation."""
    worst_term = worst_ode = worst_gap = 0.0
    n_solutions = 0
    ok = True
    for n in range(0, 9):
        for l in range(0, 4):
            for alpha in (0.0, 1.0):
                for sol in solve_family(n, l, alpha, 1.0):
                    n_solutions += 1
                    term = termination_residual(sol)
                    worst_term = max(worst_term, term)
                    if term > TERMINATION_RTOL:
                        ok = False
                    ode = sol.ode_residual
                    worst_ode = max(worst_ode, ode)
                    if ode > 1e-9:
                        ok = False
                    c = confirm(sol.system(), sol.epsilon, sol.level)
                    worst_gap = max(worst_gap, c.gap / max(1.0, abs(sol.epsilon)))
                    ok = ok and c.passed
    return CriterionResult(
        3,
        "general n<=8: termination 1e-10, ODE residual 1e-9, oracle 1e-5",
        ok,
        f"{n_solutions} solutions; worst termination={worst_term:.2e}, "
        f"ode={worst_ode:.2e}, oracle gap={worst_gap:.2e}",
    )


def criterion_4() -> CriterionResult:
    """Recurrence vs power-matching oracle on 100 random parameter sets."""
    rng = np.random.default_rng(20260826)
    worst = 0.0
    ok = True
    for _ in range(100):
        l = int(rng.integers(0, 6))
        a = 2.0 * l + 1.0
        b, c, d = rng.uniform(-3.0, 3.0, size=3)
        rec = coefficient_sequence(HeunParameters(a=a, b=b, c=c, d=d), 14)
        ora = power_matching_coefficients(a, b, c, d, 14)
        denom = np.maximum(np.abs(ora), 1e-12 * max(np.max(np.abs(ora)), 1.0))
        err = float(np.max(np.abs(rec - ora) / denom))
        worst = max(worst, err)
        if err > 1e-12:
            ok = False
    return CriterionResult(
        4,
        "recurrence matches power-matching oracle (100 random sets, 1e-12)",
        ok,
        f"worst relative mismatch={worst:.2e}",
    )


def criterion_5() -> CriterionResult:
    """Oscillator limit: eps = 2 n_r + l + 3/2 within 1e-5."""
    worst = 0.0
    for l in (0, 1, 2):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=l)
        # an absolute bound: confirm's pass test is relative to max(1, |eps|)
        for nr in range(3):
            worst = max(worst, confirm(sys, 2.0 * nr + l + 1.5, nr).gap)
    return CriterionResult(
        5, "oscillator limit levels within 1e-5", worst <= 1e-5, f"worst abs error={worst:.2e}"
    )


def criterion_6() -> CriterionResult:
    """Spectrum scaling: (alpha, beta, k) output = K^2 x (alpha/K, beta/K^3, 1) output."""
    rng = np.random.default_rng(42)
    worst = 0.0
    ok = True
    for _ in range(10):
        alpha = float(rng.uniform(0.0, 2.0))
        k = float(rng.uniform(0.3, 4.0))
        n = int(rng.integers(0, 5))
        l = int(rng.integers(0, 3))
        K = k ** 0.25
        sols = solve_family(n, l, alpha, k)
        sols_scaled = solve_family(n, l, alpha / K, 1.0)
        if len(sols) != len(sols_scaled):
            ok = False
            continue
        for s, ss in zip(sols, sols_scaled):
            err = abs(s.epsilon - K * K * ss.epsilon) / max(1.0, abs(s.epsilon))
            worst = max(worst, err)
            if err > 1e-8:
                ok = False
        # oracle side, on correspondingly scaled meshes
        beta = float(rng.uniform(-1.5, 1.5))
        sys = PhysicalSystem(alpha=alpha, beta=abs(beta), k=k, l=l)
        sys_s = PhysicalSystem(alpha=alpha / K, beta=abs(beta) / K**3, k=1.0, l=l)
        grid = RadialGrid.auto(sys)
        grid_s = RadialGrid(grid.r_edge * K, grid.points)
        e1 = fd_eigensolve(sys, grid, range(3)).energies
        e2 = fd_eigensolve(sys_s, grid_s, range(3)).energies
        err = float(np.max(np.abs(e1 - K * K * e2) / np.maximum(1.0, np.abs(e1))))
        worst = max(worst, err)
        if err > 1e-8:
            ok = False
    return CriterionResult(
        6, "K-scaling invariance within 1e-8 (10 random sets)", ok,
        f"worst relative defect={worst:.2e}",
    )


def criterion_7() -> CriterionResult:
    """Vieta residuals below 1e-9 for 20 random (system, epsilon) pairs."""
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for _ in range(20):
        sys = PhysicalSystem(
            alpha=float(rng.uniform(0.0, 3.0)),
            beta=float(rng.uniform(-3.0, 3.0)),
            k=float(rng.uniform(0.2, 5.0)),
            l=int(rng.integers(0, 4)),
        )
        eps = float(rng.uniform(-5.0, 10.0))
        res = max(turning_points(sys, eps).vieta_residuals)
        worst = max(worst, res)
        if res > 1e-9:
            ok = False
    return CriterionResult(
        7, "Vieta residuals < 1e-9 (20 random pairs)", ok, f"worst residual={worst:.2e}"
    )


def criterion_8() -> CriterionResult:
    """Perturbing beta off-manifold breaks termination by >= 10x tolerance."""
    worst_ratio = np.inf
    ok = True
    checked = 0
    for n in (1, 2, 3, 5):
        for l in (0, 1):
            for sol in solve_family(n, l, 1.0, 1.0):
                checked += 1
                perturbed = termination_residual(sol, beta_override=sol.beta + 1e-3)
                ratio = perturbed / TERMINATION_RTOL
                worst_ratio = min(worst_ratio, ratio)
                if ratio < 10.0:
                    ok = False
    return CriterionResult(
        8,
        "off-manifold beta perturbation breaks termination by >= 10x",
        ok and checked > 0,
        f"{checked} solutions; smallest residual/tolerance ratio={worst_ratio:.1e}",
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
        res = fn()
        res = replace(res, elapsed_s=time.perf_counter() - t0)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(
            f"[{status}] criterion {res.number}: {res.name} -- {res.detail} "
            f"[{res.elapsed_s:.2f} s]"
        )
    return results
