"""Acceptance gate: one test per criterion, printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same checks back the CLI `verify` subcommand.
"""

import numpy as np
import pytest

from biheun import verify
from biheun.cli import main


def _run(fn):
    res = fn()
    status = "PASS" if res.passed else "FAIL"
    print(f"\n[{status}] criterion {res.number}: {res.name} -- {res.detail}")
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
    stub = lambda: verify.CriterionResult(9, "stub", True, "ok")  # noqa: E731
    monkeypatch.setattr(verify, "ALL_CRITERIA", (stub,))
    (res,) = verify.run_acceptance()
    assert res.elapsed_s is not None and res.elapsed_s >= 0.0
    line = f"[PASS] criterion 9: stub -- ok [{res.elapsed_s:.2f} s]"
    assert capsys.readouterr().out == line + "\n"


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
