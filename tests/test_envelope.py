"""Accuracy envelope of solve_family out to n = 80, against 50-digit roots.

The reference (``perfbench.reference``) finds each b by Newton's method on
the terminating coefficient c_{n+1}(b) in mpmath and shares no code with
biheun. The finite-difference oracle then confirms every energy at the level
solve_family assigns it, so a wrong Sturm index fails with an O(1) gap.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from biheun.oracle import confirm  # noqa: E402
from biheun.quantize import solve_family  # noqa: E402
from perfbench import reference  # noqa: E402


def _rel(x, ref):
    return abs(x - float(ref)) / max(1.0, abs(float(ref)))


def _sign_changes(coeffs):
    signs = np.sign(coeffs[coeffs != 0])
    return int(np.sum(signs[1:] != signs[:-1]))


def _check_family(n, l, alpha, k):
    sols = solve_family(n, l, alpha, k)
    b_ref = reference.b_roots(n, l, alpha, k)
    assert len(sols) == len(b_ref) == n + 1
    for branch, (sol, b) in enumerate(zip(sols, b_ref)):
        assert _rel(sol.b_root, b) <= 1e-13
        assert _rel(sol.epsilon, reference.energy(n, l, k, b)) <= 1e-13
        assert sol.ode_residual <= 1e-12
        assert sol.level == n - branch
        assert _sign_changes(sol.heun_coefficients) == sol.level
        assert confirm(sol.system(), sol.epsilon, sol.level).passed


@pytest.mark.parametrize("l, alpha, k", [(0, 0.0, 1.0), (1, 2.5, 0.3), (3, 0.7, 3.7)])
@pytest.mark.parametrize(
    "n", [0, 4, 8, 13, 20, 32, 40, *(pytest.param(n, marks=pytest.mark.slow) for n in (60, 80))]
)
def test_envelope_against_mpmath(n, l, alpha, k):
    _check_family(n, l, alpha, k)


# alpha/K >> n: H's coefficients span up to 38 decades
@pytest.mark.parametrize(
    "n, l, alpha, k",
    [(25, 0, 100.0, 1.0), (25, 0, 300.0, 1.0), (25, 0, 1e4, 1.0), (20, 2, 1e4, 0.5)],
)
def test_envelope_at_large_alpha(n, l, alpha, k):
    _check_family(n, l, alpha, k)
