import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from biheun.model import (
    QUARTIC_IMAG_TOL,
    PhysicalSystem,
    _quartic_coeffs,
    _vieta_residuals,
    quartic_roots,
    roots_in_r,
)


def _sized(lo, hi):
    """Floats in [lo, hi], with 0 drawn often: alpha = 0 and l = 0 drop quartic terms.
    Nonzero draws are at least 1e-6 in size, so the roots' products cannot underflow."""
    return st.one_of(st.just(0.0), st.floats(lo, hi).filter(lambda x: abs(x) >= 1e-6))


CASES = st.tuples(_sized(0.0, 1e4), _sized(-1e3, 1e3), st.floats(1e-4, 1e4),
                  st.integers(0, 3), _sized(-1e4, 1e4))


def quartic_coeffs(sys, eps):
    # independent construction of the turning-point quartic (descending)
    return [-sys.k, -sys.beta, 2 * eps, sys.alpha, -sys.l * (sys.l + 1)]


def row(sys, eps):
    """The roots z = K r of one (system, epsilon) pair: a batch of one of ``quartic_roots``."""
    return quartic_roots([sys], [eps])[0].tolist()


def classified(sys, eps):
    """The roots r of one pair as the mesh sizing reads them, through ``roots_in_r``: the
    real ones ascending, then the complex ones, and the number of real ones."""
    real, cplx = roots_in_r(row(sys, eps), sys.K)
    return [complex(r) for r in real] + cplx, len(real)


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

    @pytest.mark.parametrize(
        "kwargs, name",
        [(dict(alpha=float("nan"), beta=0.0, k=1.0, l=0), "alpha"),
         (dict(alpha=0.0, beta=float("inf"), k=1.0, l=0), "beta"),
         (dict(alpha=0.0, beta=0.0, k=float("nan"), l=0), "k"),
         (dict(alpha=float("inf"), beta=0.0, k=1.0, l=0), "alpha")],
    )
    def test_non_finite_inputs_rejected(self, kwargs, name):
        # a NaN k passed every comparison, and an infinite one gave eps = NaN downstream
        with pytest.raises(OverflowError, match=rf"^{name} must be finite \(got (nan|inf)\)$"):
            PhysicalSystem(**kwargs)

    @pytest.mark.parametrize("l", [math.nan, math.inf])
    def test_l_that_is_not_finite_is_not_an_integer(self, l):
        # int(l) raised "cannot convert float NaN to integer" and an OverflowError
        message = r"^l must be a non-negative integer \(got (nan|inf)\)$"
        with pytest.raises(ValueError, match=message):
            PhysicalSystem(1.0, 0.0, 1.0, l)


class TestTurningPoints:
    def test_out_of_range_overflows(self):
        # 2 eps / K^2 = -inf: the quartic cannot be represented in doubles
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        with pytest.raises(OverflowError, match="out of range"):
            quartic_roots([sys], [-1e308])

    def test_oscillator_factorization(self):
        # -r^2 (r^2 - 4): roots {-2, 0, 0, 2}
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        roots, real_count = classified(sys, 2.0)
        assert real_count == 4
        assert np.allclose(roots, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)
        assert max(_vieta_residuals(row(sys, 2.0), sys, 2.0)) < 1e-12

    def test_two_negative_two_positive_pattern(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.1, k=1.0, l=1)
        roots, real_count = classified(sys, 3.0)
        assert real_count == 4
        roots = [r.real for r in roots]
        assert roots[0] < roots[1] < 0 < roots[2] < roots[3]

    def test_roots_satisfy_quartic(self):
        sys = PhysicalSystem(alpha=2.0, beta=-1.0, k=3.0, l=2)
        eps = 4.0
        coeffs = quartic_coeffs(sys, eps)
        scale = max(abs(c) for c in coeffs)
        for z in row(sys, eps):
            assert abs(np.polyval(coeffs, z / sys.K)) < 1e-10 * scale

    def test_tiny_k(self):
        # in r the companion matrix of -k r^4 + ... held alpha/k = 1e310 and
        # overflowed; in z = K r its coefficients stay below 3e150
        roots, real_count = classified(PhysicalSystem(1e10, 0.0, 1e-300, 0), 1.0)
        assert real_count == 4
        assert roots[0].real == pytest.approx(-(2e300**0.5), rel=1e-12)
        assert roots[-1].real == pytest.approx(2e300**0.5, rel=1e-12)

    def test_l0_has_exact_zero_root(self):
        sys = PhysicalSystem(alpha=1.5, beta=0.3, k=2.0, l=0)
        assert any(z == 0 for z in row(sys, 1.0))

    def test_root_product_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sys = PhysicalSystem(
                alpha=float(rng.uniform(0, 2)),
                beta=float(rng.uniform(-2, 2)),
                k=float(rng.uniform(0.5, 3)),
                l=int(rng.integers(1, 4)),
            )
            prod = np.prod(classified(sys, float(rng.uniform(-2, 5)))[0])
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
            roots, _ = classified(PhysicalSystem(alpha, beta, k, l), eps)
            roots_s, _ = classified(
                PhysicalSystem(alpha / K, beta / K**3, 1.0, l), eps / K**2
            )
            got = sorted(roots, key=lambda z: (z.real, z.imag))
            want = sorted((z / K for z in roots_s), key=lambda z: (z.real, z.imag))
            assert np.allclose(got, want, atol=1e-8)


def reference_roots(sys, eps):
    """40-digit roots, ordered and counted by the same 1e-9 rule as roots_in_r."""
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
        roots, got_count = classified(sys, eps)
        want, real_count = reference_roots(sys, eps)
        assert got_count == real_count
        for got, z in zip(roots, want):
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


def small_roots_reference(sys, eps):
    """The two smallest-modulus roots r at 80 digits. mpmath.polyroots resolves each
    root only to the size of the largest, so it solves the reversed z-quartic, whose
    roots are 1/z; an exact zero root (l = 0) is divided out first."""
    with mpmath.workdps(80):
        K = mpmath.mpf(sys.k) ** 0.25
        coeffs = [mpmath.mpf(1), mpmath.mpf(sys.beta) / K**3, -2 * mpmath.mpf(eps) / K**2,
                  -mpmath.mpf(sys.alpha) / K, mpmath.mpf(sys.l * (sys.l + 1))]
        zeros = []
        while coeffs[-1] == 0:
            coeffs.pop()
            zeros.append(0j)
        w = sorted(mpmath.polyroots(coeffs[::-1], maxsteps=500, extraprec=500), key=abs)
        return sorted(zeros + [complex(1 / (x * K)) for x in w[-2:]], key=abs)[:2]


class TestSmallRoots:
    """Two roots far below the other two, which np.roots holds only to u max|coeff|."""

    @pytest.mark.parametrize(
        "alpha, beta, k, l, eps",
        [(1e10, 0.0, 1e-300, 0, 1.0),  # read 0 and 0 for -5e9 and 0
         (1e-6, 2.5, 1e-300, 5, 1e10)],  # read 0 and 0 for +-3.873e-5
    )
    def test_against_80_digits(self, alpha, beta, k, l, eps):
        sys = PhysicalSystem(alpha, beta, k, l)
        want = small_roots_reference(sys, eps)
        # and the stacked solve that the mesh and the certificate read, which had read
        # 0 and 0 too: both cases and an ordinary row in one batch
        cases = [(1e10, 0.0, 1e-300, 0, 1.0), (1e-6, 2.5, 1e-300, 5, 1e10),
                 (1.0, 0.5, 2.0, 2, 3.0)]
        batch = quartic_roots([PhysicalSystem(*case[:4]) for case in cases],
                              [case[4] for case in cases])
        stacked = batch[cases.index((alpha, beta, k, l, eps))] / sys.K
        for roots in (classified(sys, eps)[0], stacked.tolist()):
            for z, w in zip(sorted(roots, key=abs)[:2], want):
                assert abs(z - w) <= 1e-11 * abs(w)

    def test_vieta_identity_3(self):
        # e3 = alpha/K = 1e85, whose defect read 1e85 with both small roots at 0
        sys = PhysicalSystem(1e10, 0.0, 1e-300, 0)
        assert _vieta_residuals(row(sys, 1.0), sys, 1.0)[2] <= 1e-15 * 1e85


class TestQuarticRoots:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cases=st.lists(CASES, min_size=1, max_size=6))
    @example(cases=[(1.0, 1.0, 1.0, 0, 2.0), (0.0, 1.0, 1.0, 0, 2.0), (0.0, 0.0, 1.0, 0, 0.0),
                    (1.0, 0.5, 2.0, 2, 3.0)])
    def test_rows_are_np_roots(self, cases):
        # the same companion matrix: np.roots' roots to the bit where it deflates
        # nothing (l > 0) and no small pair is retaken; at l = 0 each trailing zero
        # coefficient is an exact 0 root, and the other roots sit within rounding of
        # np.roots' deflated solve. A retaken row keeps np.roots' large pair, and
        # TestSmallRoots holds its small pair to 80 digits.
        # (0, 0, 1, 0, 0) has every root at 0
        systems = [PhysicalSystem(*case[:4]) for case in cases]
        eps = [case[4] for case in cases]
        for zs, sys, e in zip(quartic_roots(systems, eps), systems, eps):
            want = np.roots(_quartic_coeffs(sys, e))
            # the largest |z|, the figure the certificate reads
            assert np.abs(zs).max() == pytest.approx(np.abs(want).max(), rel=1e-12, abs=0.0)
            if sys.l > 0:
                moduli = np.sort(np.abs(want))
                if moduli[1] < 1e-4 * moduli[2]:
                    large = sorted(zs.tolist(), key=abs)[2:]
                    assert large == sorted(want.tolist(), key=abs)[2:]
                else:
                    assert zs.tolist() == want.tolist()
                continue
            zeros = 2 if sys.alpha == 0 else 1
            assert np.sum(zs == 0) >= zeros
            got = sorted(zs.tolist(), key=abs)[zeros:]
            want = sorted(want.tolist(), key=abs)[-len(got):] if got else []
            scale = max(map(abs, want), default=0.0)
            for z in got:
                assert min(abs(z - w) for w in want) <= 1e-12 * scale


class TestVietaResiduals:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=CASES)
    def test_identities_hold_to_backward_error(self, case):
        # each z_i carries an error of about u max|z|, so the identity e_k carries
        # u (S_k + max|z| S_{k-1}), S_k the elementary symmetric function of the |z_i|;
        # 20,000 random cases read at most 9.6 u
        sys = PhysicalSystem(*case[:4])
        zs = row(sys, case[4])
        size = [abs(z) for z in zs]
        S = [sum(map(math.prod, itertools.combinations(size, k))) for k in range(5)]
        for k, residual in enumerate(_vieta_residuals(zs, sys, case[4]), start=1):
            assert residual <= 32 * np.finfo(float).eps * (S[k] + max(size) * S[k - 1])

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
        assert max(_vieta_residuals(row(sys, eps), sys, eps)) < 1e-12

    def test_perturbed_root_detected(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=1)
        eps = 3.0
        bad = row(sys, eps)
        bad[0] += 1e-3  # K = 1: z = r
        assert max(_vieta_residuals(bad, sys, eps)) > 1e-4

    def test_solver_roots_close_identities(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=1)
        residuals = _vieta_residuals(row(sys, 3.0), sys, 3.0)
        assert max(residuals) < 1e-9
        # criterion 7 reads its rows from one stacked solve: a row's defects are those of
        # its batch of one, to the bit
        other = PhysicalSystem(alpha=2.0, beta=-1.0, k=3.0, l=0)
        stacked = quartic_roots([other, sys], [4.0, 3.0])[1].tolist()
        assert _vieta_residuals(stacked, sys, 3.0) == residuals

    @pytest.mark.parametrize(
        "sys, eps",
        [(PhysicalSystem(alpha=1e10, beta=0.0, k=1e-300, l=0), 1.0),
         (PhysicalSystem(alpha=1e-6, beta=2.5, k=1e-300, l=5), 1e10)],
    )
    def test_tiny_k_defects_are_finite(self, sys, eps):
        # in r the identities held alpha/k = 1e310 and 2 eps/k = 2e310, which
        # overflowed to inf (and inf - inf = nan); in z = K r they are the
        # coefficients np.roots solves, at most 2.5e225 here
        assert np.all(np.isfinite(_vieta_residuals(row(sys, eps), sys, eps)))
