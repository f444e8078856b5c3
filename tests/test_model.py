import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from biheun.model import (
    QUARTIC_IMAG_TOL,
    PhysicalSystem,
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


class TestTurningPoints:
    def test_out_of_range_overflows(self):
        # 2 eps / K^2 = -inf: the quartic cannot be represented in doubles
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        with pytest.raises(OverflowError, match="out of range"):
            turning_points(sys, epsilon=-1e308)

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


def reference_roots(sys, eps):
    """40-digit roots, ordered and counted by the same 1e-9 rule as turning_points."""
    with mpmath.workdps(40):
        coeffs = [mpmath.mpf(c) for c in quartic_coeffs(sys, eps)]
        roots = [complex(z) for z in mpmath.polyroots(coeffs, maxsteps=200, extraprec=80)]

    def key(z):
        return (abs(z.imag) > QUARTIC_IMAG_TOL * (1.0 + abs(z.real)), z.real, z.imag)

    roots.sort(key=key)
    return roots, sum(not key(z)[0] for z in roots)


def random_system(rng, l_min=0):
    return PhysicalSystem(
        alpha=float(rng.uniform(0, 3)),
        beta=float(rng.uniform(-3, 3)),
        k=float(rng.uniform(0.2, 5)),
        l=int(rng.integers(l_min, 4)),
    )


class TestReferenceRoots:
    """Companion-matrix roots against 40-digit mpmath.polyroots."""

    def assert_matches_reference(self, sys, eps, rel_tol):
        tp = turning_points(sys, eps)
        want, real_count = reference_roots(sys, eps)
        assert tp.real_count == real_count
        for got, z in zip(tp.roots, want):
            assert abs(got - z) <= rel_tol * max(1.0, abs(z))

    def test_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            sys = random_system(rng)
            self.assert_matches_reference(sys, float(rng.uniform(-5, 10)), 1e-13)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, -1e-8, -1e-6])
    def test_near_double_root(self, delta):
        # the quartic is 2 r^2 (eps - U_eff(r)), so eps = U_eff(r*) + delta puts
        # two turning points within ~sqrt(delta) of the well's minimum r*,
        # where they merge into a double root
        rng = np.random.default_rng(7)
        for _ in range(10):
            sys = random_system(rng, l_min=1)

            def u_eff(r):
                return 0.5 * (sys.k * r * r + sys.beta * r - sys.alpha / r
                              + sys.l * (sys.l + 1) / (r * r))

            well = minimize_scalar(u_eff, bounds=(1e-3, 50), method="bounded",
                                   options={"xatol": 1e-12})
            self.assert_matches_reference(sys, float(well.fun) + delta, 1e-10)


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
