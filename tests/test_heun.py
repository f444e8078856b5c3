import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from biheun.heun import (
    HeunParameters,
    coefficient_sequence,
    ode_residual,
    to_heun_params,
)
from biheun.model import PhysicalSystem
from biheun.quantize import solve_family
from biheun.verify import power_matching_coefficients


def _tail(cs, n):
    """Largest |c_j| past degree n relative to the largest |c_j| up to it."""
    return np.max(np.abs(cs[n + 1 :])) / np.max(np.abs(cs[: n + 1]))


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

    def test_rejects_n_zero(self):
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
                    cs = coefficient_sequence(sol.heun_parameters(), n + 8)
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
        with pytest.raises(ValueError):
            ode_residual(hp, coefficient_sequence(hp, 10), -1.0)


class TestOdeResidual:
    def test_terminated_polynomial_is_exact(self):
        # n=1 point: H is c_0 + c_1 z; the tail past it is rounding noise
        hp = HeunParameters(a=1.0, b=2.0**0.5, c=5.0, d=0.0)
        cs = coefficient_sequence(hp, 1)
        for z in (0.3, 1.0, 2.5, 7.0):
            assert ode_residual(hp, cs, z) < 1e-12

    def test_constant_solution(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        assert ode_residual(hp, coefficient_sequence(hp, 5), 1.0) == 0.0

    def test_wrong_c_shifts_residual(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        cs = coefficient_sequence(hp, 5)
        bad = HeunParameters(a=1.0, b=1.0, c=3.1, d=-2.0)
        # residual shifts by exactly 0.1 * |H(z)| = 0.1
        assert ode_residual(bad, cs, 1.0) == pytest.approx(0.1)

    def test_relative_to_absolute_value_scale(self):
        # c off by 10 with H == 1: residual 10 over the scale |coef0| |H| = 10
        cs = coefficient_sequence(HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0), 5)
        bad = HeunParameters(a=1.0, b=1.0, c=13.0, d=-2.0)
        assert ode_residual(bad, cs, 1.0) == pytest.approx(1.0)

    def test_rejects_z_zero(self):
        hp = HeunParameters(a=1.0, b=0.0, c=0.0, d=0.0)
        with pytest.raises(ValueError):
            ode_residual(hp, coefficient_sequence(hp, 5), 0.0)
