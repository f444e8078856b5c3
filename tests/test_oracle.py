import numpy as np
import pytest

from biheun.model import PhysicalSystem
from biheun.oracle import (
    RadialGrid,
    confirm,
    fd_eigensolve,
    fd_eigenvalues_richardson,
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
        rich = fd_eigenvalues_richardson(sys, grid, range(1))[0]
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
