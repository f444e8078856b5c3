from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval

from biheun.heun import (
    HeunParameters,
    coefficient_sequence,
    ode_residual,
    recurrence_rows,
    to_heun_params,
)
from biheun.model import PhysicalSystem
from biheun.quantize import certify, solve_family
from biheun.verify import power_matching_coefficients


def _tail(cs, n):
    """Largest |c_j| past degree n relative to the largest |c_j| up to it."""
    return np.max(np.abs(cs[n + 1 :])) / np.max(np.abs(cs[: n + 1]))


def _manifold_parameters(sol):
    """(a, b, c, d) of a solution with c = 2(n+l+1)+1 exact, as ``certify`` forms them."""
    return HeunParameters(2.0 * sol.l + 1.0, sol.b_root, 2.0 * (sol.n + sol.l + 1) + 1.0,
                          -2.0 * (sol.alpha / sol.K))


class TestParameterMap:
    def test_oscillator(self):
        hp = to_heun_params(PhysicalSystem(0.0, 0.0, 1.0, 0), epsilon=1.5)
        assert (hp.a, hp.b, hp.c, hp.d) == (1.0, 0.0, 3.0, 0.0)
        assert hp.D == 0.0

    def test_k16(self):
        hp = to_heun_params(PhysicalSystem(2.0, 0.0, 16.0, 0), epsilon=0.0)
        assert hp.b == 0.0
        assert hp.c == 0.0
        assert hp.d == -2.0

    def test_n0_manifold_point(self):
        # alpha=1, beta=1, k=1, l=0 at its quasi-exact energy: D must vanish
        hp = to_heun_params(PhysicalSystem(1.0, 1.0, 1.0, 0), epsilon=1.375)
        assert (hp.a, hp.b, hp.c, hp.d) == (1.0, 1.0, 3.0, -2.0)
        assert hp.D == 0.0

    def test_d_identity_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b, d = rng.uniform(-5, 5, size=2)
            a = 2.0 * rng.integers(0, 6) + 1.0
            hp = HeunParameters(a=a, b=b, c=0.0, d=d)
            assert hp.D == -b * (a + 1.0) / 2.0 - d / 2.0

    def test_neg_d_identity_from_system(self):
        sys = PhysicalSystem(alpha=1.3, beta=0.7, k=2.0, l=2)
        hp = to_heun_params(sys, epsilon=0.4)
        K = sys.K
        assert -hp.D == pytest.approx(hp.b * (sys.l + 1) - sys.alpha / K, rel=1e-14)


class TestRecurrenceFactors:
    # c_{j+1} = [(2j + a - c) c_{j-1} + (j b - D) c_j] / ((j+1)(a+j+1))

    def test_e_vanishes_at_termination_energy(self):
        # c = 2(n+l)+1 zeroes the factor of c_{n-1}: c_{n+1} depends on c_n alone
        for l in range(3):
            for n in range(1, 6):
                hp = HeunParameters(a=2 * l + 1, b=0.3, c=2 * (n + l) + 1, d=0.1)
                cs = coefficient_sequence(hp, n + 1)
                a, b, D = hp.a, hp.b, hp.D
                assert cs[n + 1] == (n * b - D) * cs[n] / ((n + 1.0) * (a + n + 1.0))

    def test_a_vanishes_for_zero_numerator(self):
        # b = D = 0 zeroes every factor of c_j: odd coefficients vanish
        hp = HeunParameters(a=3.0, b=0.0, c=1.0, d=0.0)
        cs = coefficient_sequence(hp, 9)
        assert np.all(cs[1::2] == 0.0)
        assert np.all(cs[0::2] != 0.0)

    def test_hand_arithmetic(self):
        # a=1, b=1, c=3, d=0 (D=-1): c_1 = 1/2, c_2 = (0*1 + 2*(1/2))/(2*3) = 1/6
        cs = coefficient_sequence(HeunParameters(a=1.0, b=1.0, c=3.0, d=0.0), 2)
        assert cs[1] == 0.5
        assert cs[2] == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_accepts_zero_rejects_negative(self):
        # the recurrence starts at j = 1: zero steps leave c_0 alone, fewer fail
        hp = HeunParameters(a=1.0, b=0.0, c=0.0, d=0.0)
        assert coefficient_sequence(hp, 0).tolist() == [1.0]
        with pytest.raises(ValueError):
            coefficient_sequence(hp, -1)


class TestCoefficientSequence:
    def test_c1_zero_when_d_zero(self):
        hp = HeunParameters(a=3.0, b=0.5, c=2.0, d=-2.0)  # D = -1+1 = 0
        assert hp.D == 0.0
        assert coefficient_sequence(hp, 5)[1] == 0.0

    def test_n0_termination(self):
        # a=1, b=1, c=3, D=0: H == 1
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        assert _tail(coefficient_sequence(hp, 10), 0) == 0.0

    def test_matches_power_matching_oracle(self):
        a, b, c, d = 3.0, 0.7, 2.2, -1.1
        got = coefficient_sequence(HeunParameters(a, b, c, d), 12)
        want = power_matching_coefficients(a, b, c, d, 12)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_random_parameters_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            a = 2.0 * rng.integers(0, 6) + 1.0
            b, c, d = rng.uniform(-3, 3, size=3)
            got = coefficient_sequence(HeunParameters(a, b, c, d), 14)
            want = power_matching_coefficients(a, b, c, d, 14)
            denom = np.maximum(np.abs(want), 1e-12 * max(np.abs(want).max(), 1.0))
            assert np.max(np.abs(got - want) / denom) < 1e-12

    def test_recurrence_consistency(self):
        # every c_{j+1} reproduces the 3-term relation exactly
        hp = HeunParameters(a=5.0, b=-0.4, c=1.9, d=2.3)
        cs = coefficient_sequence(hp, 20)
        a, b, c, D = hp.a, hp.b, hp.c, hp.D
        for j in range(1, 19):
            rhs = ((2 * j + a - c) * cs[j - 1] + (j * b - D) * cs[j]) / (
                (j + 1) * (a + j + 1)
            )
            assert cs[j + 1] == rhs

    def test_termination_closure(self):
        # on the manifold c_{n+1}, c_{n+2} and every later coefficient stay at
        # rounding level, also from n = 12, where their ratio to the last
        # nonzero pair is no longer small
        for n in (1, 4, 12, 13, 20):
            for l, alpha, k in ((0, 0.0, 1.0), (1, 2.5, 0.3)):
                for sol in solve_family(n, l, alpha, k):
                    cs = coefficient_sequence(_manifold_parameters(sol), n + 8)
                    assert _tail(cs, n) <= 1e-15

    def test_entire_function_tail_decay(self):
        # non-terminating parameters: |c_{j+1}/c_j| -> 0 (asymptotically
        # ~ sqrt(2/j), so it crosses 0.1 right around j = 200)
        hp = HeunParameters(a=3.0, b=1.2, c=2.7, d=0.9)
        cs = coefficient_sequence(hp, 260)
        assert all(abs(cs[j + 1] / cs[j]) < 0.1 for j in range(245, 255))


class TestEvalSeries:
    # partial sums of H(z) = sum c_j z^j over the coefficients of the recurrence

    def test_h_at_zero_is_one(self):
        hp = HeunParameters(a=7.0, b=-1.0, c=4.2, d=0.3)
        assert polyval(0.0, coefficient_sequence(hp, 50)) == 1.0

    def test_terminated_constant(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        assert polyval(3.7, coefficient_sequence(hp, 40)) == 1.0

    def test_truncation_stability(self):
        hp = HeunParameters(a=3.0, b=0.7, c=2.2, d=-1.1)
        cs = coefficient_sequence(hp, 80)
        assert abs(polyval(1.0, cs) - polyval(1.0, cs[:41])) < 1e-12

    def test_argument_validation(self):
        hp = HeunParameters(a=1.0, b=0.0, c=0.0, d=0.0)
        with pytest.raises(ValueError):
            coefficient_sequence(hp, -1)


class TestRecurrenceRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        l=st.integers(0, 49),
        bcd=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
        cs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=41),
        z=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    )
    def test_rows_are_z_times_the_ode(self, l, bcd, cs, z):
        # sum_j R_j z^j = z (H'' + (-2z - b + (1+a)/z) H' + (-2 - a + c + D/z) H)
        hp = HeunParameters(2.0 * l + 1.0, *bcd)
        defect, size = recurrence_rows(hp, np.array(cs), abs(hp.c)) @ z ** np.arange(len(cs) + 1)
        h, h1, h2 = (polyval(z, polyder(cs, m)) for m in (0, 1, 2))
        ode = z * h2 + (-2 * z * z - hp.b * z + 1 + hp.a) * h1 + ((-2 - hp.a + hp.c) * z + hp.D) * h
        assert abs(defect - ode) <= 1e-14 * size

    def test_hand_rows(self):
        # a=1, b=1, c=3, d=0 (D=-1), H = 1 + z: R_0 = 2*1 - 0 - 1*1, R_1 = 0 - 0*1 - 2*1,
        # R_2 = -2*1; T_j counts D as (j+1)|b| + 0
        rows = recurrence_rows(HeunParameters(1.0, 1.0, 3.0, 0.0), np.array([1.0, 1.0]), 3.0)
        assert rows.tolist() == [[1.0, -2.0, -2.0], [3.0, 8.0, 8.0]]

    def test_termination_rows_vanish(self):
        # the solver's H zeroes every row up to rounding, the last two included
        for sol in solve_family(5, 1, 1.0, 1.0):
            hp = _manifold_parameters(sol)
            defect, size = recurrence_rows(hp, sol.heun_coefficients, hp.c)
            assert len(defect) == 7
            assert np.max(np.abs(defect)) <= 1e-15 * np.max(size)


def _powers(z, rows):
    # z^j for each column j of rows
    return z ** np.arange(float(rows.shape[1]))


class TestOdeResidual:
    def test_terminated_polynomial_is_exact(self):
        # n=1 point: H is c_0 + c_1 z; the tail past it is rounding noise
        hp = HeunParameters(a=1.0, b=2.0**0.5, c=5.0, d=0.0)
        rows = recurrence_rows(hp, coefficient_sequence(hp, 1), hp.c)
        for z in (0.3, 1.0, 2.5, 7.0):
            assert ode_residual(rows, _powers(z, rows)) < 1e-12

    def test_constant_solution(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        rows = recurrence_rows(hp, coefficient_sequence(hp, 5), hp.c)
        assert ode_residual(rows, _powers(1.0, rows)) == 0.0

    def test_wrong_c_shifts_residual(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        cs = coefficient_sequence(hp, 5)
        bad = HeunParameters(a=1.0, b=1.0, c=3.1, d=-2.0)
        rows = recurrence_rows(bad, cs, bad.c)
        # H == 1: R_1 = 0.1 alone, over T_0 + T_1 = (|b| + |d|/2) + (2 + a + c)
        assert ode_residual(rows, _powers(1.0, rows)) == pytest.approx(0.1 / 8.1)

    def test_relative_to_absolute_value_scale(self):
        # H == 1, b = d = 0: the one defect R_1 = -(2 + a - c) has no cancellation,
        # so it reads 1 over the size with c counted as |c|
        hp = HeunParameters(a=1.0, b=0.0, c=-3.0, d=0.0)
        rows = recurrence_rows(hp, np.ones(1), 3.0)
        assert ode_residual(rows, _powers(0.7, rows)) == 1.0

    @pytest.mark.parametrize("errors", ["ignore", "raise"])
    def test_infinite_coefficient_raises(self, errors):
        # the certificate forms its rows under its own error state: the caller's
        # neither hides the inf nor turns it into a FloatingPointError
        sol = solve_family(2, 0, 1.0, 1.0)[1]
        bad = replace(sol, heun_coefficients=np.array([1.0, np.inf, 2.0]))
        with np.errstate(all=errors), pytest.raises(RuntimeError, match="not finite"):
            certify([bad])

    def test_infinite_coefficient_raises_without_warning(self):
        # under numpy's default error state, which the suite turns into errors
        sol = solve_family(2, 0, 1.0, 1.0)[1]
        bad = replace(sol, heun_coefficients=np.array([1.0, np.inf, 2.0]))
        with pytest.raises(RuntimeError, match=r"\(n=2, l=0, branch=1\): recurrence rows"):
            certify([bad])


def _fresh_residual(rows, z):
    # the residual with z^j formed afresh; one (2, m) product, as ode_residual takes
    # it (a separate R @ z^j and T @ z^j sum in another order and can round apart)
    defect, size = (rows @ _powers(z, rows)).tolist()
    return abs(defect) / size


_rows = st.integers(1, 40).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m),
    st.lists(st.floats(1e-6, 1e6), min_size=m, max_size=m),
)).map(lambda rt: np.array([rt[0], np.abs(rt[0]) + np.array(rt[1])]))


class TestTablePowers:
    # the powers z^j that a family's table holds for all of its branches
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rows=_rows, z=st.floats(0.0, 1.0, exclude_min=True))
    def test_equals_the_fresh_residual(self, rows, z):
        # the powers as the certificate passes them: a row of a table built in one
        # call, a view past the table's start
        table = np.array([[0.5], [z]]) ** np.arange(float(rows.shape[1]))
        assert ode_residual(rows, table[1]) == _fresh_residual(rows, z)
