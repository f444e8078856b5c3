"""Acceptance gate: one test per criterion, printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same checks back the CLI `verify` subcommand.
"""

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


def test_nan_termination_fails_criterion_8(monkeypatch):
    monkeypatch.setattr(verify, "termination_residual", _nan_per_branch)
    res = verify.criterion_8()
    assert not res.passed and "nan" in res.detail
