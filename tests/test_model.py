import numpy as np
import pytest

from biheun.model import (
    PhysicalSystem,
    effective_momentum_squared,
    turning_points,
    vieta_residuals,
)


def quartic_coeffs(sys, eps):
    # independent construction of the turning-point quartic (descending)
    return [-sys.k, -sys.beta, 2 * eps, sys.alpha, -sys.l * (sys.l + 1)]


class TestPhysicalSystem:
    def test_k_scale(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.5, k=16.0, l=0)
        assert sys.K == 2.0
        assert sys.K**4 == sys.k

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=1.0, beta=0.0, k=0.0, l=0),
            dict(alpha=1.0, beta=0.0, k=-1.0, l=0),
            dict(alpha=-0.5, beta=0.0, k=1.0, l=0),
            dict(alpha=1.0, beta=0.0, k=1.0, l=-1),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalSystem(**kwargs)


class TestEffectiveMomentum:
    def test_oscillator_zero_crossing(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        assert effective_momentum_squared(sys, epsilon=2.0, r=2.0) == 0.0

    def test_centrifugal_dominates_at_origin(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.0, k=1.0, l=1)
        v = effective_momentum_squared(sys, epsilon=1.0, r=1e-8)
        assert v < -1e15  # ~ -l(l+1)/r^2

    def test_matches_quartic_over_r_squared(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=1)
        eps, r = 3.0, 1.0
        p2 = effective_momentum_squared(sys, eps, r)
        q = np.polyval(quartic_coeffs(sys, eps), r)
        assert p2 == pytest.approx(q / r**2, rel=1e-14)

    def test_rejects_nonpositive_r(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        with pytest.raises(ValueError):
            effective_momentum_squared(sys, 1.0, 0.0)
        with pytest.raises(ValueError):
            effective_momentum_squared(sys, 1.0, -1.0)


class TestTurningPoints:
    def test_oscillator_factorization(self):
        # -r^2 (r^2 - 4): roots {-2, 0, 0, 2}
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        tp = turning_points(sys, epsilon=2.0)
        assert tp.real_count == 4
        assert np.allclose(tp.real_roots, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)

    def test_two_negative_two_positive_pattern(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.1, k=1.0, l=1)
        tp = turning_points(sys, epsilon=3.0)
        assert tp.real_count == 4
        roots = tp.real_roots
        assert roots[0] < roots[1] < 0 < roots[2] < roots[3]

    def test_roots_satisfy_quartic(self):
        sys = PhysicalSystem(alpha=2.0, beta=-1.0, k=3.0, l=2)
        eps = 4.0
        tp = turning_points(sys, eps)
        coeffs = quartic_coeffs(sys, eps)
        scale = max(abs(c) for c in coeffs)
        for z in tp.roots:
            assert abs(np.polyval(coeffs, z)) < 1e-10 * scale

    def test_l0_has_exact_zero_root(self):
        sys = PhysicalSystem(alpha=1.5, beta=0.3, k=2.0, l=0)
        tp = turning_points(sys, epsilon=1.0)
        assert any(z == 0 for z in tp.roots)

    def test_root_product_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sys = PhysicalSystem(
                alpha=float(rng.uniform(0, 2)),
                beta=float(rng.uniform(-2, 2)),
                k=float(rng.uniform(0.5, 3)),
                l=int(rng.integers(1, 4)),
            )
            tp = turning_points(sys, float(rng.uniform(-2, 5)))
            prod = np.prod(tp.roots)
            assert prod.real > 0
            assert abs(prod.imag) < 1e-9 * abs(prod.real)

    def test_scaling_covariance(self):
        # roots(alpha, beta, k, eps) == roots(alpha/K, beta/K^3, 1, eps/K^2) / K
        rng = np.random.default_rng(11)
        for _ in range(5):
            alpha = float(rng.uniform(0, 2))
            beta = float(rng.uniform(-2, 2))
            k = float(rng.uniform(0.5, 4))
            l = int(rng.integers(0, 3))
            eps = float(rng.uniform(-1, 5))
            K = k**0.25
            tp = turning_points(PhysicalSystem(alpha, beta, k, l), eps)
            tp_s = turning_points(
                PhysicalSystem(alpha / K, beta / K**3, 1.0, l), eps / K**2
            )
            got = sorted(tp.roots, key=lambda z: (z.real, z.imag))
            want = sorted((z / K for z in tp_s.roots), key=lambda z: (z.real, z.imag))
            assert np.allclose(got, want, atol=1e-8)


class TestVietaResiduals:
    def test_exact_roots_give_tiny_residuals(self):
        # build the quartic from chosen roots, then check the identities
        roots = [-3.0, -1.0, 0.5, 2.0]
        k = 2.0
        beta = -k * sum(roots)
        e2 = sum(
            roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4)
        )
        eps = -k * e2 / 2.0
        e3 = sum(
            roots[i] * roots[j] * roots[m]
            for i in range(4)
            for j in range(i + 1, 4)
            for m in range(j + 1, 4)
        )
        alpha = k * e3
        # l(l+1)/k = r1 r2 r3 r4 = 3 -> pick k so l := product consistency holds
        prod = float(np.prod(roots))
        lval = 0.5 * (-1 + (1 + 4 * k * prod) ** 0.5)
        assert abs(lval - round(lval)) < 1e-12  # roots chosen so l = 2
        sys = PhysicalSystem(alpha=alpha, beta=beta, k=k, l=round(lval))
        tp = turning_points(sys, eps)
        assert max(vieta_residuals(tp.roots, sys, eps)) < 1e-12

    def test_perturbed_root_detected(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=1)
        eps = 3.0
        tp = turning_points(sys, eps)
        bad = list(tp.roots)
        bad[0] += 1e-3
        assert max(vieta_residuals(tuple(bad), sys, eps)) > 1e-4

    def test_solver_roots_close_identities(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=1)
        tp = turning_points(sys, 3.0)
        assert max(vieta_residuals(tp.roots, sys, 3.0)) < 1e-9
        assert tp.vieta_residuals == vieta_residuals(tp.roots, sys, 3.0)
