import itertools

import mpmath
import numpy as np
import pytest
from scipy.special import roots_laguerre

from biheun import oracle
from biheun.model import PhysicalSystem, turning_points
from biheun.oracle import (
    _LARGEST_MESH,
    _MESH_BASE,
    RTOL,
    RadialGrid,
    _mesh,
    confirm,
    confirm_all,
    node_count,
)
from biheun.quantize import _assemble_solution, solve_family


def _eigensolve(sys, grid, levels):
    """Energies and vectors at ``levels`` of one system on ``grid``, one row per level:
    ``oracle._solve`` of one state per level."""
    solved = oracle._solve([sys] * len(levels), [grid] * len(levels), list(levels), True)
    return solved[0][0][list(levels)], np.array([f for _, f in solved])


@pytest.fixture(scope="module")
def oscillator():
    sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
    return sys, RadialGrid.auto(sys, epsilon_hint=5.5)


@pytest.fixture(scope="module")
def oscillator_result(oscillator):
    return _eigensolve(*oscillator, range(3))


class TestRadialGrid:
    def test_spacing(self):
        # the nodes are the zeros of L_N scaled by h = r_edge / x_N
        grid = RadialGrid(r_edge=10.0, points=80)
        x, _ = roots_laguerre(80)
        assert len(grid.nodes()) == 80
        assert grid.nodes()[-1] == pytest.approx(10.0, rel=1e-15)
        assert np.allclose(grid.nodes(), 10.0 / x[-1] * x, rtol=1e-12, atol=0)

    def test_points_must_be_an_integer(self):
        # 40.5 was accepted and failed with a TypeError in _mesh on first use
        with pytest.raises(ValueError, match=r"points must be an integer in .* \(got 40\.5\)"):
            RadialGrid(12.0, 40.5)
        grid = RadialGrid(12.0, 40.0)
        assert type(grid.points) is int and grid.points == 40
        assert len(grid.nodes()) == 40

    def test_auto_covers_gaussian_tail(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys)
        assert sys.K**2 * grid.r_edge**2 / 2.0 >= 27.0

    def test_auto_covers_turning_point(self):
        sys = PhysicalSystem(alpha=0.0, beta=-8.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys, epsilon_hint=5.0)
        # outer turning point of 2*5 + 8r - r^2 is beyond r = 9
        assert grid.r_edge > 1.4 * 9.0

    @pytest.mark.parametrize("n, l, alpha", [(1, 5, 1e6), (0, 0, 1e-10)])
    def test_auto_stops_on_a_nan_newton_step(self, n, l, alpha):
        # k = 1e-300: r_peak absorbs the start's offset and the first Newton step is
        # 0/0 (a RuntimeWarning, then r = NaN and "r_edge must be positive")
        sol = solve_family(n, l, alpha, 1e-300)[0]
        grid = RadialGrid.auto(sol.system(), sol.epsilon)
        assert 0 < grid.r_edge < np.inf

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
        assert c.passed and c.gap <= 1e-9

    @pytest.mark.parametrize(
        "n, l, alpha, k, branch",
        [(32, 0, 0.0, 3.0, 0), (32, 2, 0.0, 3.0, 0), (7, 3, 1e12, 1.0, 0), (8, 3, 1e18, 1.0, 0)],
    )
    def test_auto_edge_reads_the_outer_turning_point(self, n, l, alpha, k, branch):
        # the mesh and turning_points read one quartic_roots solve, small pair retaken:
        # where the wall is the edge, it is 1.5x turning_points' outer root to the bit, at
        # l = 0 too; at alpha/K = 1e18 the outer root is the larger of the small pair, and
        # an edge read from the eigensolve's own pair fell 9% short
        sol = solve_family(n, l, alpha, k)[branch]
        sys = sol.system()
        outer = max(turning_points(sys, sol.epsilon).real_roots)
        assert RadialGrid.auto(sys, sol.epsilon).r_edge == 1.5 * outer

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
        # N = _MESH_BASE + 3n + l for the degree n of H, on every branch of the
        # family, whatever alpha/K
        for n, l, alpha in ((12, 2, 1.0), (20, 0, 100.0), (0, 3, 1e4), (5, 60, 1.0)):
            for sol in solve_family(n, l, alpha, 1.0):
                points = RadialGrid.auto(sol.system(), sol.epsilon).points
                assert points == _MESH_BASE + 3 * n + l
        # the default energy K^2 (l + 3/2) is the n = 0 oscillator level
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=2.0, l=1)
        assert RadialGrid.auto(sys).points == _MESH_BASE + 1

    def test_auto_caps_the_mesh(self):
        # an energy far above any state of the family asks for n ~ 1e6, and
        # l = 10^6 for a million points
        sys = PhysicalSystem(alpha=1.0, beta=0.0, k=1.0, l=0)
        assert RadialGrid.auto(sys, 1e6).points == _LARGEST_MESH == 600
        assert not confirm(sys, 1e6, 0).passed
        assert RadialGrid.auto(PhysicalSystem(alpha=1.0, beta=0.0, k=1.0, l=10**6)).points == 600

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

    @pytest.mark.parametrize("points", [300, 400, 600])
    def test_weights_finite_at_large_n(self, points):
        # exp(-x/2) alone underflows from x ~ 1,400; x_N is ~1,180 at N = 300, ~1,580 at
        # 400 and ~2,350 at 600
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
    """``oracle._solve``, the mesh solve (named for the finite-difference grid it replaced)."""

    def test_oscillator_levels(self, oscillator_result):
        energies, _ = oscillator_result
        assert np.allclose(energies, [1.5, 3.5, 5.5], atol=1e-5)

    def test_energies_ascending(self, oscillator):
        # each state's energies are its whole mesh spectrum
        [(energies, _)] = oracle._solve([oscillator[0]], [oscillator[1]], [0], False)
        assert len(energies) == oscillator[1].points
        assert np.all(np.diff(energies) > 0)

    def test_vectors_normalized(self, oscillator_result, oscillator):
        w = oscillator[1].weights()
        for f in oscillator_result[1]:
            assert np.sum(w * f * f) == pytest.approx(1.0, rel=1e-12)

    def test_vectors_where_the_operator_is_tiny(self):
        # k = 1e-300: |H| ~ 1e-300, and the norm of the solve's 1/|H|-sized vector
        # overflowed to a NaN vector with no nodes
        sol = solve_family(5, 40, 1e-154, 1e-300)[1]
        sys = sol.system()
        grid = RadialGrid.auto(sys, sol.epsilon)
        [(_, f)] = oracle._solve([sys], [grid], [4], True)
        assert np.sum(grid.weights() * f**2) == pytest.approx(1.0, rel=1e-12)
        assert node_count(f) == 4

    def test_orthogonality(self, oscillator_result, oscillator):
        w = oscillator[1].weights()
        _, v = oscillator_result
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.sum(w * v[i] * v[j])) < 1e-8

    def test_node_counts_sturm(self, oscillator_result):
        assert [node_count(f) for f in oscillator_result[1]] == [0, 1, 2]

    def test_quasi_exact_n0_energy(self):
        sys = PhysicalSystem(alpha=1.0, beta=1.0, k=1.0, l=0)
        grid = RadialGrid.auto(sys, epsilon_hint=1.375)
        [(energies, _)] = oracle._solve([sys], [grid], [0], False)
        assert abs(energies[0] - 1.375) < 1e-5

    def test_converges_with_points(self):
        # level 8 of an n = 8 state on one edge: the error falls by more than
        # 100x per 8 points until rounding (1e-12 here) takes over
        sol = solve_family(8, 0, 1.0, 1.0)[0]
        sys = sol.system()
        r_edge = RadialGrid.auto(sys, sol.epsilon).r_edge
        grids = [RadialGrid(r_edge, N) for N in (24, 32, 40, 64)]
        errors = [abs(energies[sol.level] - sol.epsilon) / sol.epsilon
                  for energies, _ in oracle._solve([sys] * 4, grids, [sol.level] * 4, False)]
        assert errors[0] > 100 * errors[1] > 1e4 * errors[2]
        assert errors[3] < 1e-10

    def test_spectrum_scaling(self):
        sys = PhysicalSystem(alpha=1.0, beta=0.7, k=3.0, l=1)
        K = sys.K
        sys_s = PhysicalSystem(alpha=1.0 / K, beta=0.7 / K**3, k=1.0, l=1)
        grid = RadialGrid.auto(sys)
        grid_s = RadialGrid(r_edge=grid.r_edge * K, points=grid.points)
        (e, _), (e_s, _) = oracle._solve([sys, sys_s], [grid, grid_s], [0, 0], False)
        assert np.allclose(e[:3], K * K * e_s[:3], rtol=1e-8)

    def test_count_validation(self, monkeypatch):
        # each state's level lies in 0..points - 3, checked before any solve
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        grid = RadialGrid(r_edge=10.0, points=100)
        stacks, eigvalsh = [], np.linalg.eigvalsh

        def counted(H):
            if H.ndim == 3:  # not the Golub-Welsch solve of a new mesh size
                stacks.append(H.shape)
            return eigvalsh(H)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for level in (-1, 98):
            with pytest.raises(ValueError, match=rf"level {level} is outside 0\.\.97"):
                oracle._solve([sys, sys], [grid, grid], [0, level], False)
        assert stacks == []
        [(energies, _)] = oracle._solve([sys], [grid], [97], False)
        assert stacks == [(1, 100, 100)] and len(energies) == 100

    def test_one_level_per_state_matches_full_solve(self, oscillator_result, oscillator):
        # levels 1 and 2 asked alone read the energies and vectors of the three-level solve
        sys, grid = oscillator
        solved = oracle._solve([sys, sys], [grid, grid], [1, 2], True)
        for level, (energies, f) in zip((1, 2), solved):
            assert np.allclose(energies[:3], oscillator_result[0], rtol=1e-12)
            assert node_count(f) == level
            assert np.allclose(f, oscillator_result[1][level], atol=1e-8)

    def test_eigenvalues_only_by_default(self, oscillator):
        sys, grid = oscillator
        [(energies, f)] = oracle._solve([sys], [grid], [1], False)
        assert f is None
        assert len(energies) == grid.points

    @pytest.mark.parametrize("l", [0, 40, 100])
    def test_vectors_orthonormal_in_quadrature(self, l):
        # inverse iteration: sum w f_i f_j = delta_ij over eight levels
        sol = solve_family(5, l, 1.0, 1.0)[0]
        sys = sol.system()
        grid = RadialGrid.auto(sys, sol.epsilon)
        _, vectors = _eigensolve(sys, grid, range(8))
        gram = vectors @ (grid.weights() * vectors).T
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10
        assert [node_count(f) for f in vectors] == list(range(8))

    def test_singular_pivot_moves_the_shift(self, oscillator, monkeypatch):
        # an exactly singular H - shift I: the shift moves by a few ulps, no LinAlgError
        sys, grid = oscillator
        [(_, expected)] = oracle._solve([sys], [grid], [1], True)
        solve, calls = np.linalg.solve, []

        def singular_once(a, b):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        [(_, f)] = oracle._solve([sys], [grid], [1], True)
        assert len(calls) == 3
        assert np.allclose(f, expected, rtol=0, atol=1e-12)


def _direct_eigensolve(sys, grid, level):
    """The spectrum and the vector of ``level`` of one H assembled entry by entry: the
    kinetic matrix at h = 1, divided by h^2, plus the potential on the diagonal."""
    x, _ = _mesh(grid.points)
    h = grid.r_edge / x[-1]
    r = h * x
    i = np.arange(grid.points)
    sign = 1 - 2 * ((i[:, None] + i) % 2)  # (-1)^(i-j)
    dx = x[:, None] - x
    np.fill_diagonal(dx, 1.0)
    T = sign * (x[:, None] + x) / (np.sqrt(np.outer(x, x)) * dx * dx)
    np.fill_diagonal(T, (4.0 + (4.0 * grid.points + 2.0) * x - x * x) / (12.0 * x * x))
    v = -sys.alpha / r + sys.beta * r + sys.k * r * r + sys.l * (sys.l + 1) / (r * r)
    H = T / (h * h) + np.diag(v)
    lam = np.linalg.eigvalsh(H)
    return lam / 2.0, oracle._inverse_iteration(H, lam[level]) / np.sqrt(grid.weights())


class TestHamiltonianAssembly:
    def _assert_bit_identical(self, systems, grids, levels):
        for sys, grid, level, (energies, f) in zip(
                systems, grids, levels, oracle._solve(systems, grids, levels, True)):
            direct_energies, direct_f = _direct_eigensolve(sys, grid, level)
            assert np.array_equal(energies, direct_energies)
            assert np.array_equal(f, direct_f)

    @pytest.mark.parametrize("n, l, alpha, k", [(0, 0, 1.0, 1.0), (7, 2, 1.7, 0.6),
                                                (12, 3, 2.1, 0.4), (30, 0, 1e4, 1.0)])
    def test_equals_direct_assembly(self, n, l, alpha, k):
        sol = solve_family(n, l, alpha, k)[n // 2]
        sys = sol.system()
        grid = RadialGrid.auto(sys, sol.epsilon)
        self._assert_bit_identical([sys], [grid], [sol.level])

    def test_grids_of_one_size_in_alternation(self):
        # criterion 6's pair: one size, two edges, in one stack and called in turn
        sys = PhysicalSystem(alpha=1.0, beta=0.7, k=3.0, l=1)
        grid = RadialGrid.auto(sys)
        sys_s = PhysicalSystem(alpha=1.0 / sys.K, beta=0.7 / sys.K**3, k=1.0, l=1)
        grid_s = RadialGrid(r_edge=grid.r_edge * sys.K, points=grid.points)
        self._assert_bit_identical([sys, sys_s], [grid, grid_s], [0, 0])
        for (s, g), level in itertools.product([(sys, grid), (sys_s, grid_s)], range(3)):
            self._assert_bit_identical([s], [g], [level])


class TestConfirm:
    def test_exact_limit(self, oscillator):
        sys, _ = oscillator
        c = confirm(sys, 1.5, 0)
        assert c.passed and c.level == 0
        assert c.gap < 1e-8
        assert c.gap == abs(c.energy - 1.5) / 1.5
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
        [(_, f)] = oracle._solve([sys], [c.grid], [1], True)
        assert np.allclose(c.vector, f, atol=1e-8)

    def test_grid_is_sized_to_the_state(self):
        sol = solve_family(4, 1, 1.0, 1.0)[2]
        sys = sol.system()
        c = confirm(sys, sol.epsilon, sol.level)
        assert c.grid == RadialGrid.auto(sys, sol.epsilon)
        assert c.grid.points == _MESH_BASE + 3 * 4 + 1

    def test_passes_only_at_its_level(self):
        """Negative control: an n=4 state confirms at its level, not at level +- 1."""
        for sol in solve_family(4, 1, 1.0, 1.0):
            sys = sol.system()
            assert confirm(sys, sol.epsilon, sol.level).passed
            for wrong in (sol.level - 1, sol.level + 1):
                if wrong >= 0:
                    assert not confirm(sys, sol.epsilon, wrong).passed

    def test_vector_with_wrong_node_count_fails(self, oscillator, monkeypatch):
        # Sturm: the level-1 vector must have 1 node, whatever the energy gap reads
        sys, _ = oscillator
        assert confirm(sys, 3.5, 1, vector=True).passed
        monkeypatch.setattr(oracle, "node_count", lambda vector: 2)
        c = confirm(sys, 3.5, 1, vector=True)
        assert c.gap <= RTOL and not c.passed
        assert confirm(sys, 3.5, 1).passed  # no vector, no node count

    @pytest.mark.parametrize("n, l", [(140, 0), (140, 1), (140, 2), (140, 3), (180, 0)])
    def test_top_level_beyond_400_points(self, n, l):
        # _MESH_BASE + 3n + l points (450 to 570): level 140 read a gap of 2.6e-7
        # on 400, and level 180 one of 0.71
        sol = solve_family(n, l, 1.0, 1.0)[0]
        c = confirm(sol.system(), sol.epsilon, sol.level)
        assert c.grid.points == _MESH_BASE + 3 * n + l
        assert c.passed and c.level == n

    def test_refutes_b_off_by_1e_6(self):
        """RTOL has teeth: b off by 1e-6 relative (beta and epsilon rebuilt from it)
        is refuted on all 34 branches; the smallest gap reads 6.1e-9, and at the
        former RTOL of 1e-5 every one of these rows passed."""
        refuted = 0
        for n, l, alpha, k in ((4, 0, 1.0, 1.0), (8, 1, 2.0, 1.0), (12, 2, 0.5, 2.0),
                               (6, 3, 3.0, 0.5)):
            for sol in solve_family(n, l, alpha, k):
                bad = _assemble_solution(n, l, alpha, k, sol.b_root * (1 + 1e-6),
                                         sol.heun_coefficients, sol.level)
                refuted += not confirm(bad.system(), bad.epsilon, bad.level).passed
        assert refuted == 34


def _states(sols):
    return [s.system() for s in sols], [s.epsilon for s in sols], [s.level for s in sols]


class TestConfirmAll:
    @pytest.mark.parametrize("n, l, alpha, k", [(8, 0, 1.3, 0.8), (12, 3, 0.0, 1.0),
                                                (25, 0, 1e4, 1.0), (3, 1, 0.0, 1e-300),
                                                (1, 5, 1e6, 1e-300)])
    def test_family_equals_one_by_one(self, n, l, alpha, k):
        # grid, level, energy, gap and passed, in order, bit for bit; at (1, 5, 1e6,
        # 1e-300) every branch is refuted
        states = _states(solve_family(n, l, alpha, k))
        batch = confirm_all(*states)
        assert batch == [confirm(*state) for state in zip(*states)]
        assert all(c.vector is None for c in batch)

    def test_stacks_split_by_size_and_cap(self, monkeypatch):
        # 600^2 // 300^2 = 4 states per 300-point stack: eight of them take two
        # stacks, and the four 39-point states of (3, 0) a third, with or without
        # vectors; each vector is the one-state solve's to the bit
        big = solve_family(89, 3, 1.0, 1.0)
        sols = big[::15] + solve_family(3, 0, 1.0, 1.0) + big[1:3]
        stacks, eigvalsh = [], np.linalg.eigvalsh

        def counted(H):
            if H.ndim == 3:  # not the Golub-Welsch solve of a new mesh size
                stacks.append(H.shape)
            return eigvalsh(H)

        for vector in (False, True):
            stacks.clear()
            monkeypatch.setattr(np.linalg, "eigvalsh", counted)
            batch = confirm_all(*_states(sols), vector=vector)
            assert sorted(stacks) == [(4, 39, 39), (4, 300, 300), (4, 300, 300)]
            monkeypatch.undo()
            assert [c.grid.points for c in batch] == [300] * 6 + [39] * 4 + [300] * 2
            assert all(c.passed for c in batch)
            if not vector:
                assert batch == [confirm(*state) for state in zip(*_states(sols))]
                continue
            for c, sol in zip(batch, sols):
                [(energies, f)] = oracle._solve([sol.system()], [c.grid], [c.level], True)
                assert c.energy == energies[c.level]
                assert np.array_equal(c.vector, f)

    def test_vectors_equal_one_by_one(self):
        states = _states(solve_family(4, 1, 1.0, 1.0))
        batch = confirm_all(*states, vector=True)
        for c, one in zip(batch, [confirm(*state, vector=True) for state in zip(*states)]):
            assert (c.grid, c.level, c.energy, c.gap, c.passed) == (
                one.grid, one.level, one.energy, one.gap, one.passed)
            assert np.array_equal(c.vector, one.vector)
            assert c.passed and node_count(c.vector) == c.level

    def test_nodes_are_the_vectors_node_count(self):
        # the verdict carries the count it judged; at k = 1e-300 level 1 reads 0 nodes
        states = _states(solve_family(4, 1, 1.0, 1.0) + solve_family(2, 0, 1.0, 1e-300))
        batch = confirm_all(*states, vector=True)
        assert [c.nodes for c in batch] == [node_count(c.vector) for c in batch]
        assert [c.nodes == c.level for c in batch][-2:] == [False, True]
        assert all(c.nodes is None for c in confirm_all(*states))

    def test_level_beyond_the_mesh_is_refused(self):
        sys = PhysicalSystem(alpha=0.0, beta=0.0, k=1.0, l=0)
        with pytest.raises(ValueError, match=r"level 100 is outside 0\.\.\d+, "):
            confirm_all([sys, sys], [1.5, 3.5], [0, 100])


@pytest.mark.parametrize("n", [0, 4, 8, 12, 40])
def test_auto_mesh_is_converged(n):
    """The mesh is held by its accuracy, not its size: on every branch, ten more points
    move the energy by at most 1e-11 max(1, |E|), and the level's vector has as many
    nodes as its level (at n = 40 two branches read one more under a cut of 1e-10)."""
    sols = [sol for l, (alpha, k) in itertools.product(
                (0, 3, 20), [(0.0, 1.0), (1.7, 0.6), (100.0, 1.0)])
            for sol in solve_family(n, l, alpha, k)]
    systems, epsilons, levels = _states(sols)
    auto = confirm_all(systems, epsilons, levels, vector=True)
    finer = oracle._solve(systems, [RadialGrid(c.grid.r_edge, c.grid.points + 10) for c in auto],
                          levels, False)
    for c, (energies, _) in zip(auto, finer):
        assert abs(energies[c.level] - c.energy) <= 1e-11 * max(1.0, abs(c.energy))
        assert c.nodes == c.level


@pytest.mark.parametrize("n, l, alpha, k", [(14, 0, 0.0, 1.0), (20, 0, 1.0, 1.0),
                                            (40, 0, 1.0, 1.0)])
def test_tail_noise_is_not_a_node(n, l, alpha, k):
    """On N = 30 + 3n + l points the vector's far tail carries sign changes near 1e-9 of
    its peak: under a cut of 1e-10 branch 0 read n + 1 nodes or more (22 at n = 20, at
    r = 16.1 and 16.9 where |f| is 7e-10 of the peak), and wavefunction exited 3."""
    batch = confirm_all(*_states(solve_family(n, l, alpha, k)), vector=True)
    assert [c.nodes for c in batch] == [c.level for c in batch]
    assert all(c.passed for c in batch)


def _positive_zeros(coeffs):
    """Positive real zeros of the polynomial with ascending coefficients."""
    z = np.roots(coeffs[::-1])
    return int(np.sum((np.abs(z.imag) <= 1e-8 * (1.0 + np.abs(z.real))) & (z.real > 0)))


def test_level_is_sturm_index():
    """For n <= 12 the zeros of H number n - branch, and the oracle eigenvector
    at that level, sampled at the 30 + 3n + l nodes of its mesh, has as many nodes."""
    for n, l, (alpha, k) in itertools.product(
        range(13), range(4), [(1.5, 1.0), (0.0, 0.3), (2.9, 3.1), (30.0, 1.0)]
    ):
        for branch, sol in enumerate(solve_family(n, l, alpha, k)):
            assert sol.level == n - branch == _positive_zeros(sol.heun_coefficients)
            c = confirm(sol.system(), sol.epsilon, sol.level, vector=True)
            assert c.passed and node_count(c.vector) == sol.level


@pytest.mark.parametrize("n", [0, 2, 5, 8])
@pytest.mark.parametrize("l", [40, 60, 100])
def test_level_is_node_count_at_large_l(n, l):
    """Divide-and-conquer eigenvectors carried ~u |H| noise in the tiny components
    near r = 0, which read as false nodes in 10 of 42 such families from l = 40."""
    for sol in solve_family(n, l, 1.0, 1.0):
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
            worst = max(worst, c.gap)
    if alpha_over_K <= 3.0:
        assert worst <= 1e-8


class TestNodeCount:
    def test_ground_state(self, oscillator_result):
        assert node_count(oscillator_result[1][0]) == 0

    def test_second_s_state(self, oscillator_result):
        assert node_count(oscillator_result[1][1]) == 1

    def test_ignores_tiny_noise(self):
        v = np.array([0.0, 1.0, 1e-14, -1e-14, 1.0, 0.0])
        assert node_count(v) == 0

    def test_cut_is_1e_8_of_the_peak(self):
        # tail noise near 1e-9 of the peak is not a node; a lobe above 1e-8 is one
        assert node_count(np.array([0.0, 1.0, 0.5, 1e-9, -1e-9, 1e-9, 0.0])) == 0
        assert node_count(np.array([0.0, 1.0, 0.5, -2e-8, 0.0])) == 1

    def test_zero_vector(self):
        assert node_count(np.zeros(10)) == 0
