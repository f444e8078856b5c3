import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biheun.heun import ode_residual
from biheun.model import turning_points
from biheun.oracle import confirm
from biheun.quantize import energy_from_termination, solve_family, wavefunction
from biheun.verify import (
    TERMINATION_RTOL,
    closed_form_n0,
    closed_form_n1,
    termination_residual,
)


class TestEnergyFromTermination:
    def test_pure_oscillator_ground(self):
        assert energy_from_termination(0, 0, 1.0, 0.0) == 1.5

    def test_n0_with_b_one(self):
        assert energy_from_termination(0, 0, 1.0, 1.0) == 1.375

    def test_k_scaling(self):
        assert energy_from_termination(1, 0, 2.0, 0.0) == 10.0

    def test_rejects_nonpositive_k_scale(self):
        with pytest.raises(ValueError):
            energy_from_termination(0, 0, 0.0, 1.0)


def _n1_quadratic(l, aK, b):
    """The n=1 termination quadratic, (l+1)(l+2) b^2 - aK(2l+3) b + aK^2 - 2(2l+2)."""
    return (l + 1) * (l + 2) * b * b - aK * (2 * l + 3) * b + aK * aK - 2.0 * (2 * l + 2)


class TestConstraintPolynomial:
    """The termination constraint, solved by solve_family."""

    def test_n0_linear(self):
        # 3b - 3 = 0 for l = 2, alpha/K = 3
        (sol,) = solve_family(0, 2, 3.0, 1.0)
        assert sol.b_root == pytest.approx(1.0, rel=1e-15)

    def test_n1_quadratic_shape(self):
        for l in (0, 1, 3):
            for aK in (0.0, 0.5, 2.0):
                for sol in solve_family(1, l, aK, 1.0):
                    scale = (l + 1) * (l + 2) * sol.b_root**2 + 2.0 * (2 * l + 2)
                    assert abs(_n1_quadratic(l, aK, sol.b_root)) < 1e-13 * scale

    def test_degree_is_n_plus_one(self):
        for n in (*range(7), 20, 40):
            roots = [sol.b_root for sol in solve_family(n, 1, 1.0, 1.0)]
            assert len(roots) == n + 1
            assert np.all(np.diff(roots) > 0)

    def test_evaluates_recurrence_combination(self):
        # H's coefficients obey the forward recurrence and
        # -2 c_{n-1}(b) + (n b - D) c_n(b) vanishes at each root
        n, l, aK = 3, 1, 1.0
        a = 2.0 * l + 1.0
        c = 2.0 * (n + l + 1) + 1.0
        for sol in solve_family(n, l, aK, 1.0):
            b = sol.b_root
            D = -b * (l + 1.0) + aK
            cs = np.zeros(n + 1)
            cs[0] = 1.0
            cs[1] = -D / (1.0 + a)
            for j in range(1, n):
                cs[j + 1] = ((2 * j + a - c) * cs[j - 1] + (j * b - D) * cs[j]) / (
                    (j + 1) * (a + j + 1)
                )
            assert np.allclose(sol.heun_coefficients, cs, rtol=1e-12, atol=1e-14)
            assert abs(-2.0 * cs[n - 1] + (n * b - D) * cs[n]) < 1e-12
            assert sol.ode_residual < 1e-14

    def test_n2_roots_terminate(self):
        for l, alpha, k in ((0, 1.0, 1.0), (1, 2.5, 0.3)):
            sols = solve_family(2, l, alpha, k)
            assert len(sols) == 3
            for sol in sols:
                assert termination_residual(sol) <= TERMINATION_RTOL


class TestSolveBRoots:
    """Roots b of the termination constraint, from solve_family."""

    def test_linear_root(self):
        assert [sol.b_root for sol in solve_family(0, 0, 1.0, 1.0)] == [1.0]

    def test_n1_alpha_zero(self):
        roots = [sol.b_root for sol in solve_family(1, 0, 0.0, 1.0)]
        assert np.allclose(roots, [-np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-14)

    def test_n1_matches_closed_form(self):
        roots = [sol.b_root for sol in solve_family(1, 0, 1.0, 1.0)]
        sols = closed_form_n1(0, 1.0, 1.0)
        assert len(roots) == 2
        for root, sol in zip(roots, sols):
            assert abs(root - sol.b_root) < 1e-12


class TestClosedForms:
    def test_n0_coulomb(self):
        sol = closed_form_n0(0, 1.0, 1.0)
        assert sol.b_root == 1.0
        assert sol.beta == 1.0
        assert sol.epsilon == 1.375
        assert np.allclose(sol.heun_coefficients, [1.0])

    def test_n0_oscillator(self):
        sol = closed_form_n0(0, 0.0, 1.0)
        assert sol.b_root == 0.0
        assert sol.epsilon == 1.5

    def test_n0_l1(self):
        sol = closed_form_n0(1, 2.0, 1.0)
        assert sol.b_root == 1.0
        assert sol.epsilon == 2.375

    def test_n1_alpha_zero_branches(self):
        sols = closed_form_n1(0, 0.0, 1.0)
        assert np.allclose([s.b_root for s in sols], [-np.sqrt(2), np.sqrt(2)])
        for s in sols:
            assert s.epsilon == pytest.approx(2.25)

    def test_n1_roots_satisfy_quadratic(self):
        for l in (0, 1, 2):
            for alpha in (0.0, 0.5, 1.0, 2.0):
                for sol in closed_form_n1(l, alpha, 1.0):
                    scale = max((l + 1) * (l + 2), alpha * (2 * l + 3), 2.0 * (2 * l + 2))
                    assert abs(_n1_quadratic(l, alpha, sol.b_root)) < 1e-12 * scale

    def test_levels_and_coefficients(self):
        assert closed_form_n0(1, 2.0, 1.0).level == 0
        for l, alpha, K in ((0, 0.0, 1.0), (2, 1.5, 1.3)):
            closed = closed_form_n1(l, alpha, K)
            assert [s.level for s in closed] == [1, 0]
            for got, ref in zip(closed, solve_family(1, l, alpha, K**4)):
                assert np.allclose(got.heun_coefficients, ref.heun_coefficients, rtol=1e-12)
                assert got.ode_residual < 1e-14


class TestSolveFamily:
    @pytest.mark.parametrize("l", range(6))
    @pytest.mark.parametrize("aK", [0.0, 0.5, 1.0, 2.0])
    def test_agrees_with_closed_forms(self, l, aK):
        sols0 = solve_family(0, l, aK, 1.0)
        ref0 = closed_form_n0(l, aK, 1.0)
        assert len(sols0) == 1
        assert abs(sols0[0].b_root - ref0.b_root) < 1e-12
        assert abs(sols0[0].epsilon - ref0.epsilon) < 1e-12

        sols1 = solve_family(1, l, aK, 1.0)
        refs1 = closed_form_n1(l, aK, 1.0)
        assert len(sols1) == 2
        for got, ref in zip(sols1, refs1):
            assert abs(got.b_root - ref.b_root) < 1e-12
            assert abs(got.epsilon - ref.epsilon) < 1e-12

    def test_energy_b_consistency(self):
        for sol in solve_family(3, 1, 1.0, 2.0):
            K2 = sol.k**0.5
            assert sol.epsilon + K2 * sol.b_root**2 / 8.0 == pytest.approx(
                K2 * (sol.n + sol.l + 1.5), rel=1e-14
            )

    def test_termination_of_every_root(self):
        for n in (2, 4, 6, 12, 13, 20):
            for sol in solve_family(n, 0, 1.0, 1.0):
                assert termination_residual(sol) <= TERMINATION_RTOL

    def test_termination_at_large_b(self):
        # b ~ 1.6e7: c = 2 eps/K^2 + b^2/4 carries the rounding of eps at the
        # scale of b^2, which a scale of max|c_j| read as 3.6e-4 and 2.3e3
        for sol in solve_family(1, 0, 1e6, 1e-6):
            assert termination_residual(sol) <= TERMINATION_RTOL

    def test_manifold_parameters_at_large_b(self):
        # c = 2 eps/K^2 + b^2/4 from the rounded energy reads 4.992 here, not 5
        for sol in solve_family(1, 0, 1e6, 1e-6):
            assert sol.heun_parameters().c == 5.0
            assert sol.ode_residual <= 1e-12

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            solve_family(1, 0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "n, l, alpha, match",
        [(1, 0, -1.0, "alpha must be non-negative"), (1, -1, 1.0, "l must be"),
         (-1, 0, 1.0, "n must be non-negative")],
        ids=["alpha", "l", "n"],
    )
    def test_rejects_bad_input_before_the_eigensolve(self, monkeypatch, n, l, alpha, match):
        # a negative alpha used to pass the eigensolve and fail in the first solution
        def eigensolve(*args):
            raise AssertionError("eigensolve reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigensolve)
        with pytest.raises(ValueError, match=match):
            solve_family(n, l, alpha, 1.0)

    def test_overflowing_h_is_solver_error(self):
        # alpha/K = 1e12: the lowest-b H has c_j beyond the largest double
        with pytest.raises(RuntimeError, match=r"\(n=60, l=0, branch=0\)"):
            solve_family(60, 0, 1e12, 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 40),
        l=st.integers(0, 3),
        aK=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
        k=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    )
    def test_every_family_builds_its_h(self, n, l, aK, k):
        sols = solve_family(n, l, aK * k**0.25, k)
        b = [sol.b_root for sol in sols]
        assert len(b) == n + 1 and all(np.diff(b) > 0)
        for sol in sols:
            c = sol.heun_coefficients
            assert np.all(np.isfinite(c)) and c[0] == 1.0
            signs = np.sign(c[c != 0])
            assert np.sum(signs[1:] != signs[:-1]) == sol.level
            assert sol.ode_residual <= 1e-12


class TestCoulombLimit:
    """At large alpha/K the spectrum is oscillator plus Coulomb: the Jacobi matrix is
    nearly diagonal, b_j ~ (alpha/K)/N with N = j + l + 1, and second order in K/alpha
    gives

        eps_j = K^2 (n + l + 3/2) - alpha^2 / (8 N^2)
                - (K^2 / 2N) [(n-j)(j+1)(j+2l+2) - j(n-j+1)(j+2l+1)] + K^2 O((K/alpha)^2),

    with j = level, the hydrogenic radial node count."""

    def test_energy_law(self):
        # C = |deviation| (alpha/K)^2 / K^2 reads up to 8.35e4 here, the same at
        # alpha/K = 1e3 and 1e4 (so the remainder scales as (K/alpha)^2) and at other k
        k = 0.3
        K = k ** 0.25
        worst = {}
        for aK in (1e2, 1e3, 1e4):
            for n in range(13):
                for l in range(4):
                    for sol in solve_family(n, l, aK * K, k):
                        j, N = sol.level, sol.level + l + 1
                        coulomb = (aK * K) ** 2 / (8 * N * N)
                        second = ((n - j) * (j + 1) * (j + 2 * l + 2)
                                  - j * (n - j + 1) * (j + 2 * l + 1)) * K * K / (2 * N)
                        law = K * K * (n + l + 1.5) - coulomb - second
                        C = abs(sol.epsilon - law) * aK**2 / K**2
                        worst[aK] = max(worst.get(aK, 0.0), C)
        assert max(worst.values()) <= 1e5
        assert worst[1e4] == pytest.approx(worst[1e3], rel=0.05)


class TestOdeResidual:
    """The ODE residual is each row's one accuracy figure, so it must catch a bad H."""

    @pytest.mark.parametrize(
        "n, l, alpha, k",
        [(3, 0, 1.0, 1.0), (12, 2, 2.0, 1.0), (25, 0, 300.0, 1.0), (40, 0, 1.0, 1.0)],
    )
    def test_flags_a_normwise_perturbation(self, n, l, alpha, k):
        # H off by 1e-8 of max|c_j|: the failure mode of an eigenvector's
        # small components holding only rounding
        rng = np.random.default_rng(n)
        for sol in solve_family(n, l, alpha, k):
            c = sol.heun_coefficients
            bad = c + 1e-8 * np.max(np.abs(c)) * rng.choice([-1.0, 1.0], size=c.size)
            tp = turning_points(sol.system(), sol.epsilon)
            z_hi = 2.0 * sol.K * max(max(abs(z) for z in tp.roots), 1.0)
            zs = np.linspace(z_hi / 50, z_hi, 50)
            assert max(ode_residual(sol.heun_parameters(), bad, z) for z in zs) > 1e-9


class TestWavefunction:
    def test_n0_envelope(self):
        sol = closed_form_n0(0, 1.0, 1.0)  # H == 1, beta = 1, K = 1
        r = np.linspace(0.01, 6.0, 200)
        got = wavefunction(sol, r)
        want = np.exp(-r / 2.0 - r * r / 2.0)
        assert np.allclose(got, want, rtol=1e-14)
        assert np.all(np.diff(got) < 0)

    def test_small_r_power_law(self):
        sol = closed_form_n0(2, 1.0, 1.0)
        r = np.array([1e-6, 1e-5, 1e-4])
        ratio = wavefunction(sol, r) / r**2
        assert np.allclose(ratio, 1.0, atol=1e-3)

    def test_overlap_with_oracle(self):
        sol = closed_form_n0(0, 1.0, 1.0)
        sys = sol.system()
        c = confirm(sys, sol.epsilon, sol.level, vector=True)
        assert c.passed
        r = c.grid.nodes()
        w = c.grid.weights()
        r_poly = wavefunction(sol, r)
        r_poly = r_poly / np.sqrt(np.sum(w * (r_poly * r) ** 2))
        r_orac = c.vector / r  # already sum w (R r)^2 = 1
        overlap = abs(np.sum(w * r_poly * r_orac * r * r))
        assert overlap >= 0.99999

