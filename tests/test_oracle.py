import numpy as np
import pytest

from biheun.model import PhysicalSystem, turning_points
from biheun.oracle import (
    MAX_POINTS,
    RadialGrid,
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
        grid = RadialGrid(r_edge=10.0, points=999)
        assert grid.spacing == 10.0 / 1000
        assert len(grid.nodes()) == 999
        assert grid.nodes()[-1] == pytest.approx(10.0 - grid.spacing, rel=1e-15)

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
        c = confirm(sys, sol.epsilon, sol.level, RadialGrid.auto(sys, sol.epsilon), 1e-5)
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
        family = solve_family(12, 2, 1.0, 1.0)  # branch 0 is level 12, branch 12 level 0
        for sol in solve_family(20, 0, 100.0, 1.0) + family:
            assert 16 <= RadialGrid.auto(sol.system(), sol.epsilon).points <= MAX_POINTS
        # the spacing follows the wavenumber, so the top level gets more points
        top, ground = (RadialGrid.auto(s.system(), s.epsilon) for s in (family[0], family[-1]))
        assert ground.points < top.points

    def test_auto_sizes_only_what_is_not_given(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.5, k=2.0, l=1)
        grid = RadialGrid.auto(sys, 3.0)
        assert RadialGrid.auto(sys, 3.0, points=100) == RadialGrid(grid.r_edge, 100)
        # alpha/K = 100: every state's edge and wavenumber ask for more than the cap
        for sol in solve_family(20, 0, 100.0, 1.0):
            assert RadialGrid.auto(sol.system(), sol.epsilon).points == MAX_POINTS

    def test_refined_halves_spacing(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys, points=100)
        fine = grid.refined()
        assert fine.spacing == pytest.approx(grid.spacing / 2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "grid",
        [
            RadialGrid.auto(PhysicalSystem(alpha=1.0, beta=0.5, k=2.0, l=1), points=100),
            RadialGrid(r_edge=12.0, points=3000),
            RadialGrid(r_edge=12.0, points=3000).refined(),
        ],
        ids=["auto", "explicit", "refined"],
    )
    def test_walls_at_zero_and_edge(self, grid):
        # the first node is one spacing from the wall at r = 0, on every grid
        assert grid.nodes()[0] == grid.spacing
        fine = grid.refined()
        assert fine.r_edge == grid.r_edge
        assert fine.spacing == grid.spacing / 2.0

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
        with pytest.raises(ValueError):  # 8/h^2 overflows on the refined grid
            RadialGrid(r_edge=1e-300, points=100)


class TestFdEigensolve:
    def test_oscillator_levels(self, oscillator_result):
        assert np.allclose(
            oscillator_result.energies, [1.5, 3.5, 5.5], atol=1e-5
        )

    def test_energies_ascending(self, oscillator_result):
        assert np.all(np.diff(oscillator_result.energies) > 0)

    def test_vectors_normalized(self, oscillator_result):
        h = oscillator_result.grid.spacing
        for f in oscillator_result.vectors:
            assert np.sum(f * f) * h == pytest.approx(1.0, rel=1e-12)

    def test_orthogonality(self, oscillator_result):
        h = oscillator_result.grid.spacing
        v = oscillator_result.vectors
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.sum(v[i] * v[j]) * h) < 1e-8

    def test_node_counts_sturm(self, oscillator_result):
        assert [node_count(f) for f in oscillator_result.vectors] == [0, 1, 2]

    def test_quasi_exact_n0_energy(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys, epsilon_hint=1.375)
        res = fd_eigensolve(sys, grid, range(1))
        assert abs(res.energies[0] - 1.375) < 1e-5

    def test_second_order_convergence(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        coarse = RadialGrid.auto(sys, epsilon_hint=1.5, points=1000)
        e1 = fd_eigensolve(sys, coarse, range(1)).energies[0]
        e2 = fd_eigensolve(sys, coarse.refined(), range(1)).energies[0]
        ratio = abs(e1 - 1.5) / abs(e2 - 1.5)
        assert 3.5 < ratio < 4.5

    def test_richardson_improves(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=1)
        grid = RadialGrid.auto(sys, epsilon_hint=2.5, points=2000)
        plain = fd_eigensolve(sys, grid, range(1)).energies[0]
        rich = confirm(sys, 2.5, 0, grid, 1e-5).richardson
        assert abs(rich - 2.5) < abs(plain - 2.5) / 50.0

    def test_refinement_never_raises_levels(self):
        # variational flavor: the h^2 error is negative-definite here
        sys = PhysicalSystem(alpha=1.0, beta=0.5, k=1.0, l=1)
        grid = RadialGrid.auto(sys, points=1500)
        e1 = fd_eigensolve(sys, grid, range(3)).energies
        e2 = fd_eigensolve(sys, grid.refined(), range(3)).energies
        assert np.all(e2 >= e1 - 1e-10)

    def test_spectrum_scaling(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.7, k=3.0, l=1)
        K = sys.K
        sys_s = PhysicalSystem(alpha=1.0 / K, beta=0.7 / K**3, k=1.0, l=1)
        grid = RadialGrid.auto(sys, points=1200)
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
        sys, grid = oscillator
        c = confirm(sys, 1.5, 0, grid, 1e-4)
        assert c.passed and c.level == 0
        assert c.gap < 1e-8
        assert abs(c.plain - 1.5) > c.gap  # Richardson beats the plain grid
        assert c.vector is None

    def test_out_of_range(self, oscillator):
        sys, grid = oscillator
        assert not confirm(sys, 100.0, 0, grid, 1e-4).passed

    def test_quasi_exact_lookup(self):
        # alpha=1, beta=1, k=1, l=0 is the n=0 quasi-exact state at eps=1.375
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys, epsilon_hint=1.375)
        c = confirm(sys, 1.375, 0, grid, 1e-4)
        assert c.passed and c.level == 0 and c.gap < 1e-8

    def test_vector_on_request(self, oscillator, oscillator_result):
        sys, grid = oscillator
        c = confirm(sys, 3.5, 1, grid, 1e-5, vector=True)
        assert c.passed
        assert np.allclose(c.vector, oscillator_result.vectors[1], atol=1e-8)

    def test_passes_only_at_its_level(self):
        """Negative control: an n=4 state confirms at its level, not at level +- 1."""
        for sol in solve_family(4, 1, 1.0, 1.0):
            sys = sol.system()
            grid = RadialGrid.auto(sys, epsilon_hint=sol.epsilon, points=3000)
            assert confirm(sys, sol.epsilon, sol.level, grid, 1e-5).passed
            for wrong in (sol.level - 1, sol.level + 1):
                if wrong >= 0:
                    assert not confirm(sys, sol.epsilon, wrong, grid, 1e-5).passed


def _positive_zeros(coeffs):
    """Positive real zeros of the polynomial with ascending coefficients."""
    z = np.roots(coeffs[::-1])
    return int(np.sum((np.abs(z.imag) <= 1e-8 * (1.0 + np.abs(z.real))) & (z.real > 0)))


def test_level_is_sturm_index():
    """For n <= 12 the zeros of H number n - branch, and the oracle eigenvector
    at that level has as many nodes."""
    for n in range(13):
        for l in range(4):
            for branch, sol in enumerate(solve_family(n, l, 1.5, 1.0)):
                assert sol.level == n - branch == _positive_zeros(sol.heun_coefficients)
                sys = sol.system()
                grid = RadialGrid.auto(sys, epsilon_hint=sol.epsilon, points=2000)
                levels = range(sol.level, sol.level + 1)
                res = fd_eigensolve(sys, grid, levels, vectors=True)
                assert node_count(res.vectors[0]) == sol.level


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
            grid = RadialGrid.auto(sys, epsilon_hint=sol.epsilon)
            c = confirm(sys, sol.epsilon, sol.level, grid, 1e-5)
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
