import numpy as np
import pytest

from biheun.heun import (
    HeunParameters,
    coefficient_sequence,
    eval_series,
    ode_residual,
    recurrence_factors,
    to_heun_params,
)
from biheun.model import PhysicalSystem
from biheun.verify import power_matching_coefficients


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
    def test_e_vanishes_at_termination_energy(self):
        for l in range(3):
            for n in range(1, 6):
                hp = HeunParameters(a=2 * l + 1, b=0.3, c=2 * (n + l) + 1, d=0.1)
                e, _ = recurrence_factors(hp, l, n)
                assert e == 0.0

    def test_a_vanishes_for_zero_numerator(self):
        hp = HeunParameters(a=3.0, b=0.0, c=1.0, d=0.0)  # D = 0
        for n in range(1, 5):
            _, a_n = recurrence_factors(hp, 1, n)
            assert a_n == 0.0

    def test_hand_arithmetic(self):
        # l=0, n=1, b=1, D=0 (d=-2), c=3
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        e0, a1 = recurrence_factors(hp, 0, 1)
        assert e0 == 0.0
        assert a1 == pytest.approx(1.0 / 6.0)

    def test_rejects_n_zero(self):
        hp = HeunParameters(a=1.0, b=0.0, c=0.0, d=0.0)
        with pytest.raises(ValueError):
            recurrence_factors(hp, 0, 0)


class TestCoefficientSequence:
    def test_c1_zero_when_d_zero(self):
        hp = HeunParameters(a=3.0, b=0.5, c=2.0, d=-2.0)  # D = -1+1 = 0
        assert hp.D == 0.0
        seq = coefficient_sequence(hp, 5)
        assert seq.coefficients[1] == 0.0

    def test_n0_termination(self):
        # a=1, b=1, c=3, D=0: H == 1
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        seq = coefficient_sequence(hp, 10)
        assert seq.terminated_at == 0
        assert np.all(seq.coefficients[1:] == 0.0)

    def test_matches_power_matching_oracle(self):
        a, b, c, d = 3.0, 0.7, 2.2, -1.1
        got = coefficient_sequence(HeunParameters(a, b, c, d), 12).coefficients
        want = power_matching_coefficients(a, b, c, d, 12)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_random_parameters_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            a = 2.0 * rng.integers(0, 6) + 1.0
            b, c, d = rng.uniform(-3, 3, size=3)
            got = coefficient_sequence(HeunParameters(a, b, c, d), 14).coefficients
            want = power_matching_coefficients(a, b, c, d, 14)
            denom = np.maximum(np.abs(want), 1e-12 * max(np.abs(want).max(), 1.0))
            assert np.max(np.abs(got - want) / denom) < 1e-12

    def test_recurrence_consistency(self):
        # every c_{j+1} reproduces the 3-term relation exactly
        hp = HeunParameters(a=5.0, b=-0.4, c=1.9, d=2.3)
        cs = coefficient_sequence(hp, 20).coefficients
        a, b, c, D = hp.a, hp.b, hp.c, hp.D
        for j in range(1, 19):
            rhs = ((2 * j + a - c) * cs[j - 1] + (j * b - D) * cs[j]) / (
                (j + 1) * (a + j + 1)
            )
            assert cs[j + 1] == rhs

    def test_termination_closure(self):
        # once two consecutive coefficients are zero, all later ones vanish
        sols_hp = HeunParameters(a=1.0, b=2.0**0.5, c=5.0, d=0.0)  # n=1 point
        seq = coefficient_sequence(sols_hp, 30)
        assert seq.terminated_at == 1
        assert np.all(seq.coefficients[2:] == 0.0)

    def test_entire_function_tail_decay(self):
        # non-terminating parameters: |c_{j+1}/c_j| -> 0 (asymptotically
        # ~ sqrt(2/j), so it crosses 0.1 right around j = 200)
        hp = HeunParameters(a=3.0, b=1.2, c=2.7, d=0.9)
        cs = coefficient_sequence(hp, 260).coefficients
        assert all(abs(cs[j + 1] / cs[j]) < 0.1 for j in range(245, 255))


class TestEvalSeries:
    def test_h_at_zero_is_one(self):
        hp = HeunParameters(a=7.0, b=-1.0, c=4.2, d=0.3)
        assert eval_series(hp, 0.0, order=50) == 1.0

    def test_terminated_constant(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        assert eval_series(hp, 3.7, order=40) == 1.0

    def test_truncation_stability(self):
        hp = HeunParameters(a=3.0, b=0.7, c=2.2, d=-1.1)
        v40 = eval_series(hp, 1.0, order=40)
        v80 = eval_series(hp, 1.0, order=80)
        assert abs(v80 - v40) < 1e-12

    def test_tail_tolerance_mode(self):
        hp = HeunParameters(a=3.0, b=0.7, c=2.2, d=-1.1)
        v = eval_series(hp, 1.0, tail_tol=1e-14)
        assert v == pytest.approx(eval_series(hp, 1.0, order=120), abs=1e-12)

    def test_tail_tolerance_cap(self):
        hp = HeunParameters(a=3.0, b=0.7, c=2.2, d=-1.1)
        with pytest.raises(RuntimeError):
            eval_series(hp, 30.0, tail_tol=1e-14, max_terms=40)

    def test_argument_validation(self):
        hp = HeunParameters(a=1.0, b=0.0, c=0.0, d=0.0)
        with pytest.raises(ValueError):
            eval_series(hp, -1.0, order=10)
        with pytest.raises(ValueError):
            eval_series(hp, 1.0)
        with pytest.raises(ValueError):
            eval_series(hp, 1.0, order=10, tail_tol=1e-10)


class TestOdeResidual:
    def test_terminated_polynomial_is_exact(self):
        hp = HeunParameters(a=1.0, b=2.0**0.5, c=5.0, d=0.0)
        seq = coefficient_sequence(hp, 10)
        for z in (0.3, 1.0, 2.5, 7.0):
            assert ode_residual(hp, seq.coefficients, z) < 1e-12

    def test_constant_solution(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        seq = coefficient_sequence(hp, 5)
        assert ode_residual(hp, seq.coefficients, 1.0) == 0.0

    def test_wrong_c_shifts_residual(self):
        hp = HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0)
        seq = coefficient_sequence(hp, 5)
        bad = HeunParameters(a=1.0, b=1.0, c=3.1, d=-2.0)
        # residual shifts by exactly 0.1 * |H(z)| = 0.1
        assert ode_residual(bad, seq.coefficients, 1.0) == pytest.approx(0.1)

    def test_relative_to_absolute_value_scale(self):
        # c off by 10 with H == 1: residual 10 over the scale |coef0| |H| = 10
        seq = coefficient_sequence(HeunParameters(a=1.0, b=1.0, c=3.0, d=-2.0), 5)
        bad = HeunParameters(a=1.0, b=1.0, c=13.0, d=-2.0)
        assert ode_residual(bad, seq.coefficients, 1.0) == pytest.approx(1.0)

    def test_rejects_z_zero(self):
        hp = HeunParameters(a=1.0, b=0.0, c=0.0, d=0.0)
        seq = coefficient_sequence(hp, 5)
        with pytest.raises(ValueError):
            ode_residual(hp, seq.coefficients, 0.0)
