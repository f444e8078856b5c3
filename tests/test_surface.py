import pytest

import biheun

PUBLIC = {
    "HeunParameters", "PhysicalSystem", "QuasiExactSolution", "RadialGrid",
    "TurningPointSet", "confirm", "fd_eigensolve", "node_count", "ode_residual",
    "run_acceptance", "solve_family", "turning_points", "wavefunction",
}


def test_all_is_the_public_surface():
    assert set(biheun.__all__) == PUBLIC
    assert len(biheun.__all__) == len(PUBLIC)
    for name in PUBLIC:
        doc = getattr(biheun, name).__doc__
        assert doc and not doc.startswith(f"{name}("), name  # not a dataclass signature


@pytest.mark.parametrize(
    "name",
    ["closed_form_n0", "closed_form_n1", "coefficient_sequence", "to_heun_params",
     "EigenSolveResult", "energy_from_termination", "vieta_residuals"],
)
def test_internal_names_stay_in_their_modules(name):
    with pytest.raises(ImportError):
        exec(f"from biheun import {name}", {})
