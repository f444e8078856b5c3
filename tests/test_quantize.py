import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biheun.heun import HeunParameters, recurrence_rows
from biheun.oracle import RadialGrid, confirm
from biheun.quantize import _SAMPLES, _assemble_solution, certify, solve_family, wavefunction
from biheun.verify import (
    TERMINATION_RTOL,
    closed_form_n0,
    closed_form_n1,
    termination_residual,
)
from judging import confirmed


class TestAssembledEnergy:
    # eps = K^2 (n + l + 3/2) - K^2 b^2 / 8, read on the assembled solution
    def test_pure_oscillator_ground(self):
        assert _assemble_solution(0, 0, 0.0, 1.0, 0.0, np.array([1.0]), 0).epsilon == 1.5

    def test_n0_with_b_one(self):
        assert _assemble_solution(0, 0, 1.0, 1.0, 1.0, np.array([1.0]), 0).epsilon == 1.375

    def test_k_scaling(self):
        # k = 16: K = 2
        sol = _assemble_solution(1, 0, 0.0, 16.0, 0.0, np.array([1.0, 0.0]), 0)
        assert sol.epsilon == 10.0


def _n1_quadratic(l, aK, b):
    """The n=1 termination quadratic, (l+1)(l+2) b^2 - aK(2l+3) b + aK^2 - 2(2l+2)."""
    return (l + 1) * (l + 2) * b * b - aK * (2 * l + 3) * b + aK * aK - 2.0 * (2 * l + 2)


class TestTerminationConstraint:
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
        sols = solve_family(n, l, aK, 1.0)
        for sol, ode_residual in zip(sols, certify(sols)):
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
            assert ode_residual < 1e-14

    def test_n2_roots_terminate(self):
        for l, alpha, k in ((0, 1.0, 1.0), (1, 2.5, 0.3)):
            sols = solve_family(2, l, alpha, k)
            assert len(sols) == 3
            assert all(r <= TERMINATION_RTOL for r in termination_residual(sols))


class TestBRoots:
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
            assert max(certify(closed)) < 1e-14


class TestSolveFamily:
    def test_label_names_each_branch(self):
        # branch i is the i-th b in ascending order, at level n - i
        for i, sol in enumerate(solve_family(3, 1, 1.0, 1.0)):
            assert sol.label == f"(n=3, l=1, branch={i})"
        for i, sol in enumerate(closed_form_n1(0, 1.0, 1.0)):
            assert sol.label == f"(n=1, l=0, branch={i})"

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
            residuals = termination_residual(solve_family(n, 0, 1.0, 1.0))
            assert all(r <= TERMINATION_RTOL for r in residuals)

    def test_termination_at_large_b(self):
        # b ~ 1.6e7: c = 2 eps/K^2 + b^2/4 carries the rounding of eps at the
        # scale of b^2, which a scale of max|c_j| read as 3.6e-4 and 2.3e3
        residuals = termination_residual(solve_family(1, 0, 1e6, 1e-6))
        assert all(r <= TERMINATION_RTOL for r in residuals)

    @pytest.mark.parametrize(
        "n, l, alpha, k",
        [(2, 1, 1e6, 1e-6), (5, 0, 1e5, 1e-4), (16, 0, 1e4, 1.0), (40, 3, 1e4, 1.0)],
    )
    def test_termination_at_large_b_and_n(self, n, l, alpha, k):
        # the exact b and H terminate; rebuilding H by the forward recurrence
        # from (beta, eps) grew rounding to 3.6e-4 and 0.37-0.40 on these
        residuals = termination_residual(solve_family(n, l, alpha, k))
        assert all(r <= TERMINATION_RTOL for r in residuals)

    @pytest.mark.parametrize(
        "n, l, alpha, k", [(3, 0, 1.0, 1.0), (8, 2, 1.0, 1.0), (12, 1, 2.0, 0.5), (1, 0, 1e6, 1e-6)]
    )
    def test_termination_refutes_epsilon_off_by_1e_6(self, n, l, alpha, k):
        # smallest residuals 2.7e-7, 2.1e-7, 1.4e-7 and 5.0e-7; a forward
        # rebuild of H read 2.1e-11 on a branch of (12, 1, 2, 0.5)
        off = [dataclasses.replace(sol, epsilon=sol.epsilon * (1 + 1e-6))
               for sol in solve_family(n, l, alpha, k)]
        assert all(r > TERMINATION_RTOL for r in termination_residual(off))

    def test_manifold_parameters_at_large_b(self, monkeypatch):
        # c = 2 eps/K^2 + b^2/4 from the rounded energy reads 4.992 here, not 5
        seen = []

        def rows(hp, *args):
            seen.append(hp)
            return recurrence_rows(hp, *args)

        monkeypatch.setattr("biheun.quantize.recurrence_rows", rows)
        assert max(certify(solve_family(1, 0, 1e6, 1e-6))) <= 1e-12
        assert [hp.c for hp in seen] == [5.0]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            solve_family(1, 0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "n, l, alpha, match",
        [(1, 0, -1.0, "alpha must be non-negative"), (1, -1, 1.0, "l must be"),
         (-1, 0, 1.0, "n must be non-negative"), (2.5, 0, 1.0, r"n must be .* an integer")],
        ids=["alpha", "l", "n", "n_not_integer"],
    )
    def test_rejects_bad_input_before_the_eigensolve(self, monkeypatch, n, l, alpha, match):
        # a negative alpha used to pass the eigensolve and fail in the first solution
        def eigensolve(*args):
            raise AssertionError("eigensolve reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigensolve)
        with pytest.raises(ValueError, match=match):
            solve_family(n, l, alpha, 1.0)

    def test_integral_float_n_is_stored_as_int(self):
        # n = 2.0 gave float n and level, which confirm refused with a TypeError
        for s in solve_family(2.0, 0, 1.0, 1.0):
            assert type(s.n) is int and type(s.level) is int
            assert confirmed(confirm(s.system(), s.epsilon, s.level))

    def test_rejects_non_finite_k(self):
        # k = inf returned one solution with eps = NaN; k = NaN was reported as
        # an alpha/K that "overflows a double"
        with pytest.raises(OverflowError, match=r"k must be finite \(got inf\)"):
            solve_family(0, 0, 1.0, float("inf"))
        with pytest.raises(OverflowError, match=r"k must be finite \(got nan\)"):
            solve_family(2, 0, 1.0, float("nan"))

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
        assert max(certify(sols)) <= 1e-12


def _termination_of_one(sol):
    """termination_residual's figure from the branch's own recurrence_rows call."""
    K = sol.K
    b = sol.beta / K**3
    e = 2.0 * sol.epsilon / K**2
    hp = HeunParameters(2.0 * sol.l + 1.0, b, e + b * b / 4.0, -2.0 * (sol.alpha / K))
    defect, size = recurrence_rows(hp, sol.heun_coefficients, abs(e) + b * b / 4.0)
    return float(np.max(np.abs(defect)) / np.max(size))


class TestFamilyTermination:
    @pytest.mark.parametrize("shift", ["none", "epsilon", "beta"])
    def test_equals_one_branch_at_a_time(self, shift):
        # bit for bit, on criterion 3's families and at b ~ 1e7
        families = [solve_family(n, l, alpha, 1.0)
                    for n in range(9) for l in range(4) for alpha in (0.0, 1.0)]
        families.append(solve_family(21, 1, 1e6, 1e-6))
        for sols in families:
            if shift == "epsilon":
                sols = [dataclasses.replace(s, epsilon=s.epsilon * (1 + 1e-6)) for s in sols]
            elif shift == "beta":
                sols = [dataclasses.replace(s, beta=s.beta + 1e-3) for s in sols]
            assert termination_residual(sols) == [_termination_of_one(s) for s in sols]


class TestCertificateCost:
    """The ODE-residual certificate costs nothing until a caller asks ``certify`` for it."""

    def test_computed_on_first_read_only(self, ode_residual_calls):
        sols = solve_family(8, 1, 1.0, 1.0)
        assert ode_residual_calls[0] == 0
        certify([sols[3]])
        assert ode_residual_calls[0] == 50

    def test_overflowing_terms_certify_without_raising(self):
        # alpha/K ~ 3.8e9: branch 0's terms c_j z^j reach 1e310 at the top
        # sample, which overflowed; the rows, scaled once, read at rounding level
        certificates = certify(solve_family(20, 0, 1.2e8, 1e-6))
        assert certificates[10] <= 1e-12
        assert certificates[0] <= 1e-12


def _bytes(figures) -> bytes:
    return np.array(figures, dtype=float).tobytes()


class TestFamilyCertificate:
    """``certify`` of a family and of each branch alone are one computation."""

    FAMILIES = ([(n, l, 1.7, 0.6) for n in range(33) for l in range(4)]
                + [(n, l, 1e4, 1.0) for n in range(20, 26) for l in range(3)]
                + [(20, 0, 1.2e8, 1e-6)])

    def test_family_equals_batches_of_one(self):
        for n, l, alpha, k in self.FAMILIES:
            sols = solve_family(n, l, alpha, k)
            family = certify(sols)
            assert _bytes(family) == _bytes([certify([sol])[0] for sol in sols]), (n, l, alpha)
            assert max(family) <= 1e-12

    def test_replaced_solution_certifies_its_own_h(self):
        sols = solve_family(8, 1, 1.0, 1.0)
        family = certify(sols)
        c = sols[3].heun_coefficients.copy()
        c[4] *= 1 + 1e-6
        bent = dataclasses.replace(sols[3], heun_coefficients=c)
        alone = certify([bent])[0]
        assert alone > 1e-9
        assert certify([*sols[:3], bent, *sols[4:]])[3] == alone
        assert certify(sols) == family  # the family is untouched

    def test_rows_not_finite_are_refused_for_their_branch_only(self):
        sols = solve_family(20, 0, 1.0, 1.0)
        c = sols[6].heun_coefficients.copy()
        c[5] = np.inf
        bad = dataclasses.replace(sols[6], heun_coefficients=c)
        message = r"\(n=20, l=0, branch=6\): recurrence rows of the ODE residual are not finite"
        with pytest.raises(RuntimeError, match=message):
            certify([*sols[:6], bad, *sols[7:]])
        with pytest.raises(RuntimeError, match=message):
            certify([bad])
        # its siblings, alone or as a family, do not read the bad branch
        assert max(certify([sol])[0] for sol in sols[:6] + sols[7:]) <= 1e-12
        assert max(certify(sols[:6] + sols[7:])) <= 1e-12

    def test_refuses_a_list_that_is_not_one_family(self):
        # both family figures take n, l, alpha and K from the first solution: another l
        # would be held to the wrong equation, another n gives rows of another length
        first = solve_family(3, 0, 1.0, 1.0)[1]
        message = r"one \(n, l, alpha, k\) family, not all \(n=3, l=0, branch=1\)'s"
        for figure in (certify, termination_residual):
            for n, l, alpha, k in ((3, 2, 1.0, 1.0), (4, 0, 1.0, 1.0), (3, 0, 2.0, 1.0),
                                   (3, 0, 1.0, 2.0)):
                with pytest.raises(ValueError, match=message):
                    figure([first, solve_family(n, l, alpha, k)[1]])

    def test_power_table_rows_are_the_fresh_powers(self, monkeypatch):
        # each sample t reads t^j from one broadcast over the family's table: it must give
        # the bits of t ** arange(m), or every printed ode_residual moves. H has n + 1 >= 1
        # coefficients and its rows one column more, so m runs from 2, and up to 362 covers
        # the certificate's range, n < 360
        seen = []
        monkeypatch.setattr("biheun.quantize.ode_residual",
                            lambda rows, powers: seen.append(powers) or 0.0)
        sol = solve_family(0, 0, 1.0, 1.0)[0]
        for m in range(2, 363):
            seen.clear()
            certify([dataclasses.replace(sol, heun_coefficients=np.ones(m - 1))])
            assert len(seen) == len(_SAMPLES)
            for t, powers in zip(_SAMPLES.tolist(), seen):
                assert powers.tobytes() == (t ** np.arange(float(m))).tobytes(), (t, m)


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
        bent = []
        for sol in solve_family(n, l, alpha, k):
            c = sol.heun_coefficients
            bad = c + 1e-8 * np.max(np.abs(c)) * rng.choice([-1.0, 1.0], size=c.size)
            bent.append(dataclasses.replace(sol, heun_coefficients=bad))
        assert min(certify(bent)) > 1e-9

    @pytest.mark.parametrize(
        "n, l, alpha, k",
        [(1, 0, 1.0, 1.0), (2, 1, 1.0, 1.0), (3, 0, 1.0, 1.0), (5, 0, 1.0, 1.0),
         (8, 1, 1.0, 1.0), (20, 0, 1e4, 1.0), (1, 0, 1e6, 1e-6)],
    )
    def test_flags_b_off_by_1e_6(self, n, l, alpha, k):
        # H and c kept, b moved: the rows no longer vanish, also at large b,
        # where counting c as b^2/2 would drown the defect
        off = [dataclasses.replace(sol, b_root=sol.b_root * (1 + 1e-6))
               for sol in solve_family(n, l, alpha, k)]
        assert min(certify(off)) >= 1e-8

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 24),
        l=st.integers(0, 3),
        alpha=st.floats(0.0, 5.0),
        k=st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
    )
    def test_k_scaling_covariance(self, n, l, alpha, k):
        # z = K r: the state at (alpha, k) is its twin at (alpha/K, 1) in z, with
        # the same b and H, eps = K^2 eps' and the same certificate
        K = k ** 0.25
        sols, twins = solve_family(n, l, alpha, k), solve_family(n, l, alpha / K, 1.0)
        for sol, twin in zip(sols, twins):
            assert sol.b_root == twin.b_root
            assert sol.epsilon == pytest.approx(K * K * twin.epsilon, rel=1e-13, abs=0)
        assert certify(sols) == pytest.approx(certify(twins), rel=1e-13, abs=0)


class TestWavefunction:
    # R is returned up to a constant factor: scaled so that max |R r| over the radii is 1
    def test_n0_envelope(self):
        sol = closed_form_n0(0, 1.0, 1.0)  # H == 1, beta = 1, K = 1
        r = np.linspace(0.01, 6.0, 200)
        got = wavefunction(sol, r)
        want = np.exp(-r / 2.0 - r * r / 2.0)
        assert np.allclose(got / want, got[0] / want[0], rtol=1e-14)
        assert np.max(np.abs(got * r)) == pytest.approx(1.0, rel=1e-15)
        assert np.all(np.diff(got) < 0)

    def test_small_r_power_law(self):
        sol = closed_form_n0(2, 1.0, 1.0)
        r = np.array([1e-6, 1e-5, 1e-4])
        ratio = wavefunction(sol, r) / r**2
        assert np.allclose(ratio / ratio[0], 1.0, atol=1e-3)

    def test_finite_on_the_mesh_at_large_l(self):
        # exp of the envelope overflowed from l ~ 330 (a RuntimeWarning, an error here)
        for sol in solve_family(3, 360, 1.0, 1.0):
            r = RadialGrid.auto(sol.system(), sol.epsilon).nodes()
            R = wavefunction(sol, r)
            assert np.isfinite(R).all()
            assert np.max(np.abs(R * r)) == pytest.approx(1.0, rel=1e-15)

    def test_not_all_zero_at_large_alpha(self):
        # exp of the envelope underflowed at every node, and R read 0 everywhere
        sol = solve_family(2, 60, 1e9, 1.0)[0]
        r = RadialGrid.auto(sol.system(), sol.epsilon).nodes()
        R = wavefunction(sol, r)
        assert np.any(R != 0)
        assert np.max(np.abs(R * r)) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_radii_that_are_not_finite_and_non_negative(self, bad):
        # nan and inf radii were blamed on the state: "R has max |R r| nan for (n=2, ..."
        sol = solve_family(2, 0, 1.0, 1.0)[0]
        with pytest.raises(ValueError, match="radii must be finite and non-negative"):
            wavefunction(sol, [bad, 1.0])

    def test_h_that_is_not_finite_names_the_state(self):
        sol = solve_family(3, 1, 1.0, 1.0)[1]
        bad = dataclasses.replace(sol, heun_coefficients=np.array([1.0, np.nan, 1.0, 1.0]))
        with pytest.raises(RuntimeError, match=r"\(n=3, l=1, branch=1\)"):
            wavefunction(bad, np.linspace(0.1, 5.0, 20))

    def test_overlap_with_oracle(self):
        sol = closed_form_n0(0, 1.0, 1.0)
        sys = sol.system()
        c = confirm(sys, sol.epsilon, sol.level, vector=True)
        assert confirmed(c)
        r = c.grid.nodes()
        w = c.grid.weights()
        r_poly = wavefunction(sol, r)
        r_poly = r_poly / np.sqrt(np.sum(w * (r_poly * r) ** 2))
        r_orac = c.vector / r  # already sum w (R r)^2 = 1
        overlap = abs(np.sum(w * r_poly * r_orac * r * r))
        assert overlap >= 0.99999

