"""Self-tests of the benchmark: reference, output checks and tracer accounting."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import biheun.cli  # noqa: E402
import biheun.heun  # noqa: E402
import biheun.quantize  # noqa: E402
import biheun.verify  # noqa: E402
from perfbench import reference, tracer, workloads  # noqa: E402


@pytest.mark.parametrize("l", [0, 1, 3])
@pytest.mark.parametrize("alpha, k", [(0.0, 1.0), (1.0, 1.0), (2.5, 0.3), (0.7, 3.7)])
def test_reference_reproduces_closed_forms(l, alpha, k):
    with mp.workdps(reference.DPS):
        K = mpf(k) ** mpf(0.25)
        aK = mpf(alpha) / K
        (b0,) = reference.b_roots(0, l, alpha, k)
        assert abs(b0 - aK / (l + 1)) < mpf(10) ** -40
        mid = aK * (l + mpf(1.5)) / ((l + 1) * (l + 2))
        half = mp.sqrt(aK**2 / (4 * (l + 1) ** 2 * (l + 2) ** 2) + mpf(4) / (l + 2))
        for b, expected in zip(reference.b_roots(1, l, alpha, k), (mid - half, mid + half)):
            assert abs(b - expected) < mpf(10) ** -40 * max(1, abs(expected))
        eps = reference.energy(0, l, k, b0)
        assert abs(eps - (K**2 * (l + mpf(1.5)) - K**2 * b0**2 / 8)) < mpf(10) ** -40


def _spectrum_output(tmp_path, op):
    out = tmp_path / "out.csv"
    assert biheun.cli.main([*op.args, "--out", str(out)]) == 0
    return out.read_text()


def test_shifted_b_counts_as_failed_op(tmp_path):
    op = workloads.Op(("spectrum", "--n", "1", "--l", "0", "--alpha", "1.0", "--k", "1.0"),
                      n=1, l=0, alpha=1.0, k=1.0)
    refs = workloads.build_references([[op]])
    text = _spectrum_output(tmp_path, op)
    assert workloads.check(op, 0, text, refs).status == "ok"

    header, *rows = text.splitlines()
    col = header.split(",").index("b")
    cells = rows[0].split(",")
    cells[col] = repr(float(cells[col]) + 1e-8)
    shifted = "\n".join([header, ",".join(cells), *rows[1:]]) + "\n"
    assert workloads.check(op, 0, shifted, refs).status == "wrong"
    assert workloads.check(op, 3, text, refs).status == "refused"


def test_self_times_sum_to_op_wall_time():
    trace = tracer.Tracer()
    runner = workloads.Runner("spectrum", seed=3, tracer=trace)
    trace.install()
    try:
        runner.run(seconds=0.0)  # one round: one op per n in 0..32
    finally:
        trace.uninstall()
    assert biheun.quantize.ode_residual is biheun.heun.ode_residual  # restored

    span_cost = tracer.span_cost_ns()
    self_ns = trace.self_times()
    per_op: dict[int, list[int]] = {}
    for span, s in zip(trace.spans, self_ns):
        per_op.setdefault(span[4], [0, 0])
        per_op[span[4]][0] += s
        per_op[span[4]][1] += 1
    assert sorted(per_op) == list(range(len(runner.records)))
    for op_id, (self_sum, n_spans) in per_op.items():
        wall_ns = runner.records[op_id]["s"] * 1e9
        overhead_ns = n_spans * span_cost + 200_000  # + timer and scheduling slack
        assert 0 <= wall_ns - self_sum <= overhead_ns
    calls = sum(1 for span in trace.spans if span[0] == "heun.ode_residual")
    assert calls == 50 * trace.counts["solutions"]


def test_absent_names_are_reported(monkeypatch):
    monkeypatch.delattr(biheun.heun, "coefficient_sequence")
    trace = tracer.Tracer()
    trace.install()
    try:
        assert "heun.coefficient_sequence" in trace.absent
        assert all(getattr(f, "__wrapped__", None) for f in biheun.verify.ALL_CRITERIA)
    finally:
        trace.uninstall()
    assert not any(hasattr(f, "__wrapped__") for f in biheun.verify.ALL_CRITERIA)
