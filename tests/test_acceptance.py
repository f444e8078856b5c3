"""Acceptance gate: one test per criterion, printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same checks back the CLI `verify` subcommand.
"""

import pytest

from biheun import verify


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
