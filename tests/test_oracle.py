import itertools

import mpmath
import numpy as np
import pytest
from scipy.special import roots_laguerre

from biheun.model import PhysicalSystem, turning_points
from biheun.oracle import (
    _LARGEST_MESH,
    RadialGrid,
    _mesh,
    confirm,
    fd_eigensolve,
    node_count,
)
from biheun.quantize import solve_family


@pytest.fixture(scope="module")
def oscillator_result():
    sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
    grid = RadialGrid.auto(sys, epsilon_hint=5.5)
    return fd_eigensolve(sys, grid, range(3), vectors=True)


@pytest.fixture(scope="module")
def oscillator():
    sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
    return sys, RadialGrid.auto(sys, epsilon_hint=5.5)


class TestRadialGrid:
    def test_spacing(self):
        # the nodes are the zeros of L_N scaled by h = r_edge / x_N
        grid = RadialGrid(r_edge=10.0, points=80)
        x, _ = roots_laguerre(80)
        assert len(grid.nodes()) == 80
        assert grid.nodes()[-1] == pytest.approx(10.0, rel=1e-15)
        assert np.allclose(grid.nodes(), 10.0 / x[-1] * x, rtol=1e-12, atol=0)

    def test_auto_covers_gaussian_tail(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys)
        assert sys.K**2 * grid.r_edge**2 / 2.0 >= 27.0

    def test_auto_covers_turning_point(self):
        sys = PhysicalSystem(alpha=0.0, beta=-8.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys, epsilon_hint=5.0)
        # outer turning point of 2*5 + 8r - r^2 is beyond r = 9
        assert grid.r_edge > 1.4 * 9.0

    @pytest.mark.parametrize(
        "n, l, alpha, k, branch",
        [(0, 0, 0.0, 1.0, 0), (5, 0, 0.0, 1.0, 1), (8, 3, 1.0, 0.3, 8),
         (32, 0, 0.0, 3.0, 0), (6, 0, 100.0, 1.0, 6), (0, 0, 1e9, 1.0, 0)],
    )
    def test_auto_edge_covers_tail_and_turning_point(self, n, l, alpha, k, branch):
        sol = solve_family(n, l, alpha, k)[branch]
        sys = sol.system()
        grid = RadialGrid.auto(sys, epsilon_hint=sol.epsilon)
        assert grid.r_edge >= 1.5 * max(turning_points(sys, sol.epsilon).real_roots)
        # f = r R ~ r^(n+l+1) exp(-K^2 r^2/2 - beta r/2K^2) has fallen 1e-12 below its peak
        K = sys.K

        def log_f(r):
            return (n + l + 1) * np.log(r) - K * K * r * r / 2 - sys.beta * r / (2 * K * K)

        peak = np.max(log_f(np.linspace(grid.r_edge / 1e5, grid.r_edge, 100_000)))
        assert log_f(grid.r_edge) <= peak - np.log(1e12) + 1e-6

    def test_auto_edge_at_negative_beta(self):
        # b ~ -14.5: the tail radius, 13.0, leaves a wall-limited gap of 8.6e-8;
        # 1.5x the outer turning point, 17.6, is needed
        sol = solve_family(32, 0, 0.0, 3.0)[0]
        sys = sol.system()
        c = confirm(sys, sol.epsilon, sol.level)
        assert c.passed and c.gap <= 1e-9 * abs(sol.epsilon)

    @pytest.mark.parametrize("n, l, alpha, k", [(4, 1, 1.0, 3.0), (12, 0, 20.0, 0.3)])
    def test_auto_is_K_covariant(self, n, l, alpha, k):
        for sol in solve_family(n, l, alpha, k):
            K = sol.K
            scaled = PhysicalSystem(alpha=alpha / K, beta=sol.beta / K**3, k=1.0, l=l)
            grid = RadialGrid.auto(sol.system(), sol.epsilon)
            grid_s = RadialGrid.auto(scaled, sol.epsilon / K**2)
            assert grid.r_edge * K == pytest.approx(grid_s.r_edge, rel=1e-9)
            assert grid.points == grid_s.points

    def test_auto_points(self):
        # N = 40 + 3n + l for the degree n of H, on every branch of the
        # family, whatever alpha/K
        for n, l, alpha in ((12, 2, 1.0), (20, 0, 100.0), (0, 3, 1e4), (5, 60, 1.0)):
            for sol in solve_family(n, l, alpha, 1.0):
                assert RadialGrid.auto(sol.system(), sol.epsilon).points == 40 + 3 * n + l
        # the default energy K^2 (l + 3/2) is the n = 0 oscillator level
        assert RadialGrid.auto(PhysicalSystem(alpha=0.0, beta=0.0, k=2.0, l=1)).points == 41

    def test_auto_caps_the_mesh(self):
        # an energy far above any state of the family asks for n ~ 1e6, and
        # l = 10^6 for a million points
        sys = PhysicalSystem(alpha=1.0, beta=0.0, k=1.0, l=0)
        assert RadialGrid.auto(sys, 1e6).points == _LARGEST_MESH == 400
        assert not confirm(sys, 1e6, 0).passed
        assert RadialGrid.auto(PhysicalSystem(alpha=1.0, beta=0.0, k=1.0, l=10**6)).points == 400

    @pytest.mark.parametrize(
        "grid",
        [
            RadialGrid(
                RadialGrid.auto(PhysicalSystem(alpha=1.0, beta=0.5, k=2.0, l=1)).r_edge, 100
            ),
            RadialGrid(r_edge=12.0, points=100),
            RadialGrid(r_edge=12.0, points=201),
        ],
        ids=["auto", "explicit", "refined"],
    )
    def test_walls_at_zero_and_edge(self, grid):
        # every node lies inside (0, r_edge], the last one at r_edge, on every mesh
        r = grid.nodes()
        assert 0 < r[0] and np.all(np.diff(r) > 0)
        assert r[-1] == pytest.approx(grid.r_edge, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(r_edge=0.0, points=100)
        with pytest.raises(ValueError):
            RadialGrid(r_edge=-1.0, points=100)
        with pytest.raises(ValueError):
            RadialGrid(r_edge=float("inf"), points=100)
        with pytest.raises(ValueError):
            RadialGrid(r_edge=float("nan"), points=100)
        with pytest.raises(ValueError):
            RadialGrid(r_edge=1.0, points=4)
        with pytest.raises(ValueError):
            RadialGrid(r_edge=1.0, points=_LARGEST_MESH + 1)


class TestLaguerreMesh:
    @pytest.mark.parametrize("points", [40, 80, 160])
    def test_nodes_and_weights_match_scipy(self, points):
        x, w = roots_laguerre(points)
        nodes, lam = _mesh(points)
        assert np.allclose(nodes, x, rtol=1e-12, atol=0)
        if points <= 80:
            assert np.allclose(lam, w * np.exp(x), rtol=1e-12, atol=0)

    def test_weights_match_mpmath(self):
        # at N = 160 scipy's w exp(x) is itself 1.05e-12 off the 40-digit value
        points = 160
        _, lam = _mesh(points)
        x, _ = roots_laguerre(points)
        for i in [*range(0, points, 7), points - 1]:
            with mpmath.workdps(40):
                z = mpmath.mpf(float(x[i]))
                for _ in range(3):  # Newton on L_N; L_N' = N (L_N - L_{N-1}) / x
                    l_prev, l_k, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
                    for k in range(points):
                        total += l_k * l_k
                        l_prev, l_k = l_k, ((2 * k + 1 - z) * l_k - k * l_prev) / (k + 1)
                    z -= l_k * z / (points * (l_k - l_prev))
                assert abs(lam[i] / (mpmath.exp(z) / total) - 1) <= 1e-12

    @pytest.mark.parametrize("points", [300, 400])
    def test_weights_finite_at_large_n(self, points):
        # exp(-x/2) alone underflows from x ~ 1,400; x_N is ~1,180 at N = 300, ~1,580 at 400
        _, lam = _mesh(points)
        assert np.all(np.isfinite(lam)) and np.all(lam > 0)

    def test_weights_integrate_polynomials(self):
        # Gauss-Laguerre is exact for p(r) exp(-r/h) of degree < 2N
        grid = RadialGrid(r_edge=10.0, points=40)
        h = 10.0 / _mesh(40)[0][-1]
        r, w = grid.nodes(), grid.weights()
        for m in (0, 1, 5, 20):
            integral = np.sum(w * (r / h) ** m * np.exp(-r / h))
            assert integral == pytest.approx(h * float(mpmath.factorial(m)), rel=1e-12)


class TestFdEigensolve:
    def test_oscillator_levels(self, oscillator_result):
        assert np.allclose(
            oscillator_result.energies, [1.5, 3.5, 5.5], atol=1e-5
        )

    def test_energies_ascending(self, oscillator_result):
        assert np.all(np.diff(oscillator_result.energies) > 0)

    def test_vectors_normalized(self, oscillator_result):
        w = oscillator_result.grid.weights()
        for f in oscillator_result.vectors:
            assert np.sum(w * f * f) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonality(self, oscillator_result):
        w = oscillator_result.grid.weights()
        v = oscillator_result.vectors
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.sum(w * v[i] * v[j])) < 1e-8

    def test_node_counts_sturm(self, oscillator_result):
        assert [node_count(f) for f in oscillator_result.vectors] == [0, 1, 2]

    def test_quasi_exact_n0_energy(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys, epsilon_hint=1.375)
        res = fd_eigensolve(sys, grid, range(1))
        assert abs(res.energies[0] - 1.375) < 1e-5

    def test_converges_with_points(self):
        # level 8 of an n = 8 state on one edge: the error falls by more than
        # 100x per 8 points until rounding (1e-12 here) takes over
        sol = solve_family(8, 0, 1.0, 1.0)[0]
        sys = sol.system()
        r_edge = RadialGrid.auto(sys, sol.epsilon).r_edge
        levels = range(sol.level, sol.level + 1)
        errors = [
            abs(fd_eigensolve(sys, RadialGrid(r_edge, N), levels).energies[0] - sol.epsilon)
            / sol.epsilon
            for N in (24, 32, 40, 64)
        ]
        assert errors[0] > 100 * errors[1] > 1e4 * errors[2]
        assert errors[3] < 1e-10

    def test_spectrum_scaling(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.7, k=3.0, l=1)
        K = sys.K
        sys_s = PhysicalSystem(alpha=1.0 / K, beta=0.7 / K**3, k=1.0, l=1)
        grid = RadialGrid.auto(sys)
        grid_s = RadialGrid(r_edge=grid.r_edge * K, points=grid.points)
        e = fd_eigensolve(sys, grid, range(3)).energies
        e_s = fd_eigensolve(sys_s, grid_s, range(3)).energies
        assert np.allclose(e, K * K * e_s, rtol=1e-8)

    def test_count_validation(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        grid = RadialGrid(r_edge=10.0, points=100)
        with pytest.raises(ValueError):
            fd_eigensolve(sys, grid, range(0))
        with pytest.raises(ValueError):
            fd_eigensolve(sys, grid, range(99))
        with pytest.raises(ValueError):
            fd_eigensolve(sys, grid, range(0, 4, 2))

    def test_level_window_matches_full_solve(self, oscillator_result, oscillator):
        sys, grid = oscillator
        res = fd_eigensolve(sys, grid, range(1, 3), vectors=True)
        assert np.allclose(res.energies, oscillator_result.energies[1:], rtol=1e-12)
        assert [node_count(f) for f in res.vectors] == [1, 2]
        assert np.allclose(res.vectors, oscillator_result.vectors[1:], atol=1e-8)

    def test_eigenvalues_only_by_default(self, oscillator):
        sys, grid = oscillator
        res = fd_eigensolve(sys, grid, range(2))
        assert res.vectors is None
        assert len(res.energies) == 2


class TestConfirm:
    def test_exact_limit(self, oscillator):
        sys, _ = oscillator
        c = confirm(sys, 1.5, 0)
        assert c.passed and c.level == 0
        assert c.gap < 1e-8
        assert c.gap == abs(c.energy - 1.5)
        assert c.vector is None

    def test_out_of_range(self, oscillator):
        sys, _ = oscillator
        assert not confirm(sys, 100.0, 0).passed

    def test_quasi_exact_lookup(self):
        # alpha=1, beta=1, k=1, l=0 is the n=0 quasi-exact state at eps=1.375
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=0)
        c = confirm(sys, 1.375, 0)
        assert c.passed and c.level == 0 and c.gap < 1e-8

    def test_vector_on_request(self, oscillator):
        sys, _ = oscillator
        c = confirm(sys, 3.5, 1, vector=True)
        assert c.passed
        res = fd_eigensolve(sys, c.grid, range(1, 2), vectors=True)
        assert np.allclose(c.vector, res.vectors[0], atol=1e-8)

    def test_grid_is_sized_to_the_state(self):
        sol = solve_family(4, 1, 1.0, 1.0)[2]
        sys = sol.system()
        c = confirm(sys, sol.epsilon, sol.level)
        assert c.grid == RadialGrid.auto(sys, sol.epsilon)
        assert c.grid.points == 40 + 3 * 4 + 1

    def test_passes_only_at_its_level(self):
        """Negative control: an n=4 state confirms at its level, not at level +- 1."""
        for sol in solve_family(4, 1, 1.0, 1.0):
            sys = sol.system()
            assert confirm(sys, sol.epsilon, sol.level).passed
            for wrong in (sol.level - 1, sol.level + 1):
                if wrong >= 0:
                    assert not confirm(sys, sol.epsilon, wrong).passed


def _positive_zeros(coeffs):
    """Positive real zeros of the polynomial with ascending coefficients."""
    z = np.roots(coeffs[::-1])
    return int(np.sum((np.abs(z.imag) <= 1e-8 * (1.0 + np.abs(z.real))) & (z.real > 0)))


def test_level_is_sturm_index():
    """For n <= 12 the zeros of H number n - branch, and the oracle eigenvector
    at that level, sampled at the 40 + 3n + l nodes of its mesh, has as many nodes."""
    for n, l, (alpha, k) in itertools.product(
        range(13), range(4), [(1.5, 1.0), (0.0, 0.3), (2.9, 3.1), (30.0, 1.0)]
    ):
        for branch, sol in enumerate(solve_family(n, l, alpha, k)):
            assert sol.level == n - branch == _positive_zeros(sol.heun_coefficients)
            c = confirm(sol.system(), sol.epsilon, sol.level, vector=True)
            assert c.passed and node_count(c.vector) == sol.level


@pytest.mark.slow
@pytest.mark.parametrize("alpha_over_K", [0.0, 1.0, 3.0, 20.0, 100.0])
def test_sized_grid_confirms_every_state(alpha_over_K):
    """Every state confirms at its level on the grid sized to it. Up to
    alpha/K = 3 the gap stays within 1e-8: an edge that ignores the
    r^(n+l+1) prefactor reads 1.07e-8 at (n, l) = (5, 0) and (3, 2),
    from the wall, whatever the point count."""
    k = 0.3
    worst = 0.0
    for n, l in ((3, 2), (5, 0), (12, 1)):
        for sol in solve_family(n, l, alpha_over_K * k**0.25, k):
            sys = sol.system()
            c = confirm(sys, sol.epsilon, sol.level)
            assert c.passed, (n, l, sol.level, c.gap)
            worst = max(worst, c.gap / max(1.0, abs(sol.epsilon)))
    if alpha_over_K <= 3.0:
        assert worst <= 1e-8


class TestNodeCount:
    def test_ground_state(self, oscillator_result):
        assert node_count(oscillator_result.vectors[0]) == 0

    def test_second_s_state(self, oscillator_result):
        assert node_count(oscillator_result.vectors[1]) == 1

    def test_ignores_tiny_noise(self):
        v = np.array([0.0, 1.0, 1e-14, -1e-14, 1.0, 0.0])
        assert node_count(v) == 0

    def test_zero_vector(self):
        assert node_count(np.zeros(10)) == 0
