"""Acceptance gate: one test per criterion, printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same checks back the CLI `verify` subcommand.
"""

import json
import re

import numpy as np
import pytest

from biheun import verify
from biheun.cli import main


def _run(fn):
    res = fn()
    print(f"\n{res.line}")
    assert res.passed, f"criterion {res.number} failed: {res.detail}"


def test_criterion_1_n0_closed_form_vs_oracle():
    _run(verify.criterion_1)


def test_criterion_2_n1_closed_form_vs_roots_and_oracle():
    _run(verify.criterion_2)


@pytest.mark.slow
def test_criterion_3_general_n_families():
    _run(verify.criterion_3)


def test_criterion_4_recurrence_vs_power_matching():
    _run(verify.criterion_4)


def test_criterion_5_oscillator_limit():
    _run(verify.criterion_5)


def test_criterion_6_scaling_invariance():
    _run(verify.criterion_6)


def test_criterion_7_vieta_residuals():
    _run(verify.criterion_7)


def test_criterion_8_off_manifold_negative_control():
    _run(verify.criterion_8)


def test_run_acceptance_reports_elapsed(monkeypatch, capsys):
    stub = verify.CriterionResult(9, "stub", (verify.Figure("gap", [0.5], 1.0),))
    monkeypatch.setattr(verify, "ALL_CRITERIA", (lambda: stub,))
    (res,) = verify.run_acceptance()
    assert res.elapsed_s is not None and res.elapsed_s >= 0.0
    line = f"[PASS] criterion 9: stub -- gap=5.00e-01 [{res.elapsed_s:.2f} s]"
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("at_least", [False, True], ids=["ceiling", "floor"])
def test_a_nan_figure_fails(at_least):
    # the same values without the NaN pass: Python's max and min would drop it
    fig = verify.Figure("gap", [1.0, np.nan, 1.0], 1.0, at_least=at_least)
    res = verify.CriterionResult(9, "stub", (verify.Figure("ok", [1.0], 1.0), fig), "2 states")
    assert not fig.passed and not res.passed
    assert res.detail == "2 states; ok=1.00e+00, gap=nan"


@pytest.mark.parametrize("at_least", [False, True], ids=["ceiling", "floor"])
def test_a_figure_at_its_bound_passes(at_least):
    assert verify.Figure("gap", [1.0, 1.0], 1.0, at_least=at_least).passed
    past = np.nextafter(1.0, 0.0 if at_least else 2.0)
    assert not verify.Figure("gap", [1.0, past], 1.0, at_least=at_least).passed


@pytest.mark.parametrize("at_least", [False, True], ids=["ceiling", "floor"])
def test_worst_is_the_first_nan(at_least):
    # numpy's argmax and argmin stop at the first NaN, so the verdict and the row a
    # refusal names both see it
    values = [1.0, 0.5, np.nan, 2.0, np.nan]
    fig = verify.Figure("gap", values, 1.0, at_least=at_least)
    assert fig.worst == 2 and np.isnan(fig.value) and not fig.passed


def test_worst_of_a_floor_is_its_smallest():
    values = [3.0, 0.5, 4.0, 0.5]
    floor = verify.Figure("ratio", values, 1.0, at_least=True)
    assert floor.worst == int(np.argmin(values)) == 1 and floor.value == 0.5
    ceiling = verify.Figure("ratio", values, 1.0)
    assert ceiling.worst == int(np.argmax(values)) == 2 and ceiling.value == 4.0
    for fig in (floor, ceiling):
        assert fig.value == np.ravel(fig.values)[fig.worst]


def test_worst_is_flattened():
    # criterion 4's figure holds one 15-long array per random set: worst indexes them
    # flattened, so worst // 15 is the set and worst % 15 the coefficient
    (fig,) = verify.criterion_4().figures
    assert len(fig.values) == 100 and {len(v) for v in fig.values} == {15}
    assert fig.worst == int(np.argmax(np.ravel(fig.values)))
    assert fig.value == np.ravel(fig.values)[fig.worst]
    assert fig.value == fig.values[fig.worst // 15][fig.worst % 15]
    assert fig.value == np.max(fig.values)


@pytest.mark.slow
def test_criterion_3_judges_the_spectrum_rows(capsys):
    # criterion 3 forms its ode_residual and oracle_gap figures with judge_rows, as
    # spectrum --verify does for each family it prints: over the same families, the
    # figures are the worst that spectrum prints, bit for bit
    printed = []
    for alpha in ("0", "1"):
        assert main(["spectrum", "--n", "0..8", "--l", "0..3", "--alpha", alpha, "--k", "1",
                     "--verify", "--format", "json"]) == 0
        printed.append(json.loads(capsys.readouterr().out)["diagnostics"])
    figures = {fig.label: fig.value for fig in verify.criterion_3().figures}
    assert figures["ode_residual"] == max(diag["max_ode_residual"] for diag in printed)
    assert figures["oracle_gap"] == max(diag["max_oracle_gap"] for diag in printed)


@pytest.mark.parametrize(
    "criterion",
    [pytest.param(fn, marks=pytest.mark.slow) if fn is verify.criterion_3 else fn
     for fn in verify.ALL_CRITERIA],
    ids=lambda fn: fn.__name__,
)
def test_name_states_every_bound(criterion):
    # the name is the printed statement of the bounds, so a bound changed
    # without its name fails here
    res = criterion()
    stated = {float(x) for x in re.findall(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?", res.name)}
    assert {f.bound for f in res.figures} <= stated, res.name


def _nan(*args, **kwargs):
    return np.nan


def _nan_per_branch(sols):
    return [np.nan] * len(sols)


def test_nan_coefficients_fail_criterion_4(monkeypatch, capsys):
    # the verdict must see the NaN: max(0.0, nan) is 0.0 and nan > bound is False
    monkeypatch.setattr(verify, "coefficient_sequence", _nan)
    res = verify.criterion_4()
    assert not res.passed and "nan" in res.detail
    assert main(["verify"]) == 4
    assert "[FAIL] criterion 4" in capsys.readouterr().out


@pytest.mark.slow
def test_nan_termination_fails_criterion_3(monkeypatch):
    monkeypatch.setattr(verify, "termination_residual", _nan_per_branch)
    assert not verify.criterion_3().passed


def test_bent_root_fails_criterion_7(monkeypatch):
    # criterion 7 reads the rows of the stacked solve that the mesh and the certificate
    # read: one root of one row off by 1e-6 relative must break an identity past 1e-9
    solve = verify.quartic_roots

    def bent(systems, eps):
        roots = solve(systems, eps)
        roots[0, np.argmax(np.abs(roots[0]))] *= 1.0 + 1e-6  # the largest: never an exact 0
        return roots

    monkeypatch.setattr(verify, "quartic_roots", bent)
    res = verify.criterion_7()
    assert not res.passed and res.figures[0].value > 1e-9


def test_nan_termination_fails_criterion_8(monkeypatch):
    monkeypatch.setattr(verify, "termination_residual", _nan_per_branch)
    res = verify.criterion_8()
    assert not res.passed and "nan" in res.detail
