import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import typing
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biheun
import biheun.oracle
import biheun.quantize
import biheun.verify
from biheun.cli import build_parser, main
from biheun.oracle import RadialGrid, confirm
from biheun.quantize import solve_family, wavefunction


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def column(out, name):
    """The named column of CSV output, as floats."""
    header, *rows = (line.split(",") for line in out.strip().split("\n"))
    return [float(row[header.index(name)]) for row in rows]


class TestSpectrum:
    def test_n0_l_range(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--n", "0", "--l", "0..2", "--alpha", "1", "--k", "1"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,l,branch,b,beta,epsilon,ode_residual"
        assert len(lines) == 4
        l0 = lines[1].split(",")
        assert float(l0[5]) == 1.375

    def test_n1_alpha_zero(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--n", "1", "--l", "0", "--alpha", "0", "--k", "1"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 2
        bs = sorted(float(r[3]) for r in rows)
        assert bs == pytest.approx([-(2.0**0.5), 2.0**0.5])
        for r in rows:
            assert float(r[5]) == pytest.approx(2.25)

    def test_verify_flag_appends_gap(self, capsys):
        code, out, _ = run_cli(
            [
                "spectrum", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1",
                "--verify",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith(",oracle_gap")
        assert float(lines[1].split(",")[-1]) < 1e-4

    def test_verify_confirms_n12_family(self, capsys):
        # a second-order grid with no extrapolation missed 1e-5 here
        code, out, _ = run_cli(
            ["spectrum", "--n", "12", "--l", "0", "--alpha", "2.5104973228641434",
             "--k", "1.131957662517573", "--verify"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 13
        assert max(float(row.split(",")[-1]) for row in rows) < 1e-7

    def test_large_b_ode_residual(self, capsys):
        # b ~ 3e7: c recomputed from the rounded energy read 4.992, not 5
        code, out, _ = run_cli(
            ["spectrum", "--n", "1", "--alpha", "1e6", "--k", "1e-6"], capsys
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2
        assert all(r <= 1e-12 for r in column(out, "ode_residual"))

    def test_underflowed_c0_is_solver_error(self, capsys):
        # alpha/K >> n: H's coefficients span up to 38 decades. Scaled back
        # from the eigenvector, c_0 underflowed (exit 3) at 1e4 and the small
        # c_j kept no digits at 300 (ode_residual 0.19 with exit 0)
        for alpha in ("1e4", "300"):
            code, out, _ = run_cli(
                ["spectrum", "--n", "25", "--l", "0", "--alpha", alpha, "--k", "1"], capsys
            )
            assert code == 0
            rows = out.strip().split("\n")[1:]
            assert len(rows) == 26
            assert all(r <= 1e-12 for r in column(out, "ode_residual"))

    def test_certifies_family_whose_terms_overflowed(self, capsys):
        # alpha/K ~ 3.8e9: branch 0's terms c_j z^j reach 1e310 at the top
        # sample, which overflowed (exit 3); the rows, scaled once, certify it
        code, out, _ = run_cli(
            ["spectrum", "--n", "20", "--l", "0", "--alpha", "1.2e8", "--k", "1e-6"], capsys
        )
        assert code == 0
        residuals = column(out, "ode_residual")
        assert len(residuals) == 21
        assert all(r <= 1e-12 for r in residuals)

    @pytest.mark.parametrize("l", ["0", "3"])
    def test_ode_residual_where_z_power_overflows(self, capsys, l):
        # z reaches 1e4 on branch 80, so z^80 overflows (exit 3, "overflow
        # encountered in power") although no term c_j z^j exceeds 1e37
        code, out, _ = run_cli(
            ["spectrum", "--n", "80", "--l", l, "--alpha", "1e4", "--k", "1"], capsys
        )
        assert code == 0
        residuals = column(out, "ode_residual")
        assert len(residuals) == 81
        assert all(r <= 1e-12 for r in residuals)

    def test_certificate_per_row(self, capsys, ode_residual_calls, turning_point_solves):
        code, out, _ = run_cli(["spectrum", "--n", "0..3", "--alpha", "1", "--k", "1"], capsys)
        assert code == 0
        assert ode_residual_calls[0] == 50 * len(column(out, "ode_residual")) == 50 * 10
        assert turning_point_solves == [1, 2, 3, 4]  # one stacked solve per family

    @pytest.mark.parametrize("n, l", [(0, 0), (6, 2)])
    def test_verify_makes_one_oracle_pass_per_family(self, capsys, monkeypatch, n, l):
        # one stacked quartic solve sizes every branch's mesh, and one mesh solve
        # takes every branch
        rows, solves = [], []
        quartic_roots, solve = biheun.oracle.quartic_roots, biheun.oracle._solve

        def counted_roots(systems, eps):
            rows.append(len(systems))
            return quartic_roots(systems, eps)

        def counted_solve(systems, *args):
            solves.append(len(systems))
            return solve(systems, *args)

        monkeypatch.setattr(biheun.oracle, "quartic_roots", counted_roots)
        monkeypatch.setattr(biheun.oracle, "_solve", counted_solve)
        code, out, _ = run_cli(["spectrum", "--n", str(n), "--l", str(l), "--alpha", "1.3",
                                "--k", "0.7", "--verify"], capsys)
        assert code == 0 and len(column(out, "oracle_gap")) == n + 1
        assert rows == [n + 1] and solves == [n + 1]

    def test_first_refused_branch_is_named(self, capsys, monkeypatch):
        # every branch of the family is refuted; the error names the lowest one
        monkeypatch.setattr(biheun.oracle, "RTOL", 1e-300)
        code, out, err = run_cli(
            ["spectrum", "--n", "2", "--alpha", "1", "--k", "1", "--verify"], capsys)
        assert code == 3 and out == ""
        assert re.fullmatch(r"solver error: oracle did not confirm epsilon=\S+ for "
                            r"\(n=2, l=0, branch=0\): level 2 reads \S+ on the mesh, "
                            r"relative gap \S+\n", err)

    def test_certificate_above_bound_is_solver_error(self, capsys):
        # branch 250's ode_residual read 0.22 (56 rows above 1e-12) with exit 0
        code, out, err = run_cli(["spectrum", "--n", "250", "--alpha", "1e4", "--k", "1"],
                                 capsys)
        assert code == 3 and out == ""
        assert err == ("solver error: (n=250, l=0, branch=250): "
                       "ode_residual 2.193e-01 exceeds 1e-09\n")

    def test_nan_certificate_is_solver_error(self, capsys, monkeypatch):
        monkeypatch.setattr(biheun.quantize, "ode_residual", lambda rows, t: float("nan"))
        code, out, err = run_cli(["spectrum", "--n", "2", "--l", "1", "--alpha", "1"], capsys)
        assert code == 3 and out == ""
        assert err == "solver error: (n=2, l=1, branch=0): ode_residual nan exceeds 1e-09\n"

    @pytest.mark.parametrize("alpha", ["1e20", "1e30", "1e100"])
    def test_unresolvable_tail_is_solver_error(self, capsys, alpha):
        # alpha/K >= 1e20: the tail lies within rounding of the peak, and a
        # Newton step that crossed the peak took r to 0 (log(0) warnings, then
        # "r_edge must be positive"); the oracle now refutes the row by name
        code, out, err = run_cli(
            ["spectrum", "--n", "0", "--alpha", alpha, "--k", "1", "--verify"], capsys
        )
        assert code == 3
        assert out == ""
        assert "oracle did not confirm" in err and "(n=0, l=0, branch=0)" in err

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    @pytest.mark.parametrize("alpha, k", [("1e300", "1"), ("1e300", "1e-300")])
    def test_unrepresentable_input_is_config_error(self, capsys, verify, alpha, k):
        # eps = -inf (alpha/K = 1e300) or alpha/K = inf: the quartic, or the
        # Jacobi matrix, cannot be held in doubles; not a solver failure (exit 3)
        code, out, err = run_cli(
            ["spectrum", "--n", "0..1", "--alpha", alpha, "--k", k, *verify], capsys
        )
        assert code == 2
        assert out == "" and err.startswith("config error: ")

    def test_tiny_k_verifies(self, capsys):
        # K^4 = 1e-300: the mesh's b^2/8 = beta^2/(8 K^6) divided by K^6 = 0.0
        # (ZeroDivisionError traceback, exit 1); it is now (beta/K^3)^2/8
        code, out, err = run_cli(
            ["spectrum", "--n", "0..3", "--l", "0..2", "--k", "1e-300", "--verify"], capsys
        )
        assert code == 0 and err == ""
        assert len(out.strip().split("\n")) == 1 + 3 * (1 + 2 + 3 + 4)

    def test_tiny_k_unconfirmed_is_solver_error(self, capsys):
        # the same division at alpha/K = 1e85, where the mesh refutes the row
        code, out, err = run_cli(
            ["spectrum", "--n", "1", "--alpha", "1e10", "--k", "1e-300", "--verify"], capsys
        )
        assert code == 3
        assert out == "" and err.startswith("solver error: ")

    def test_tiny_k_nan_newton_step_is_solver_error(self, capsys):
        # alpha/K ~ 1e81: the mesh's Newton step was 0/0 (a RuntimeWarning), and the
        # row then failed as "r_edge must be positive and finite (got 0.0)"
        code, out, err = run_cli(
            ["spectrum", "--n", "1", "--l", "5", "--alpha=1e6", "--k=1e-300", "--verify"],
            capsys,
        )
        assert code == 3 and out == ""
        assert "oracle did not confirm" in err and "(n=1, l=5, branch=0)" in err

    def test_overflowing_beta_is_config_error(self, capsys):
        # beta = b K^3 overflows at K^3 = 1e225: PhysicalSystem refuses the infinite beta
        code, out, err = run_cli(["spectrum", "--n", "1", "--alpha", "1e300", "--k", "1e300"],
                                 capsys)
        assert code == 2
        assert out == "" and err.startswith("config error: beta must be finite")

    def test_deterministic_output(self, capsys):
        args = ["spectrum", "--n", "0..2", "--l", "0..1", "--alpha", "1", "--k", "2"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("verify", [False, True])
    def test_json_stage_timings_and_worst_figures(self, capsys, verify):
        argv = ["spectrum", "--n", "0..4", "--l", "0..1", "--alpha", "1.3", "--k", "0.7",
                "--format", "json"] + ["--verify"] * verify
        start = time.perf_counter()
        code, out, _ = run_cli(argv, capsys)
        wall = time.perf_counter() - start
        assert code == 0
        payload = json.loads(out)
        diag, results = payload["diagnostics"], payload["results"]
        assert set(diag["timings_s"]) == {"solve", "certify"} | ({"oracle"} if verify else set())
        assert all(t >= 0 for t in diag["timings_s"].values())
        assert sum(diag["timings_s"].values()) <= wall
        assert diag["max_ode_residual"] == max(r["ode_residual"] for r in results)
        if verify:
            assert diag["max_oracle_gap"] == max(r["oracle_gap"] for r in results)
        else:
            assert "max_oracle_gap" not in diag

    def test_json_round_trip(self, capsys, tmp_path):
        args = [
            "spectrum", "--n", "1", "--l", "0..1", "--alpha", "1", "--k", "1",
            "--format", "json",
        ]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "results", "diagnostics"}

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload["config"]))
        code2, out2, _ = run_cli(["spectrum", "--config", str(cfg_path)], capsys)
        assert code2 == 0
        assert json.loads(out2)["results"] == payload["results"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            ["spectrum", "--n", "0", "--l", "0", "--alpha", "0", "--k", "1",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("n,l,branch,")
        assert "\r" not in text


class TestTurningPoints:
    def test_oscillator_roots(self, capsys):
        code, out, _ = run_cli(
            [
                "turning-points", "--alpha", "0", "--beta", "0", "--k", "1",
                "--l", "0", "--epsilon", "2",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 4
        res = sorted(float(r[1]) for r in rows)
        assert res == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-10)
        assert all(float(r[4]) < 1e-12 for r in rows)

    def test_requires_epsilon(self, capsys):
        code, _, err = run_cli(
            ["turning-points", "--alpha", "0", "--k", "1", "--l", "0"], capsys
        )
        assert code == 2
        assert "epsilon" in err

    def test_tiny_k(self, capsys):
        # in r the companion matrix of -k r^4 + ... held alpha/k = 1e310 and
        # overflowed (exit 3); in z = K r its coefficients stay below 3e150
        code, out, err = run_cli(
            ["turning-points", "--epsilon", "1", "--k", "1e-300", "--alpha", "1e10"], capsys
        )
        assert code == 0 and err == ""
        roots = sorted(float(line.split(",")[1]) for line in out.strip().split("\n")[1:])
        assert roots[0] == pytest.approx(-(2e300**0.5), rel=1e-12)
        assert roots[-1] == pytest.approx(2e300**0.5, rel=1e-12)
        # the identities in r held alpha/k = 1e310 (inf); in z = K r they stay finite
        assert np.all(np.isfinite(column(out, "vieta_residual")))

    @pytest.mark.parametrize(
        "argv",
        [["--epsilon", "1", "--k", "1e-300", "--alpha", "1e10"],
         ["--l", "5", "--alpha=1e-6", "--k=1e-300", "--beta=2.5", "--epsilon=1e10"]],
    )
    def test_tiny_k_vieta_residuals_are_finite(self, argv):
        # in r the identities overflowed to inf, and the second one to inf - inf = nan
        argv = ["turning-points", *argv]
        proc = _python(f"import sys; from biheun.cli import main; sys.exit(main({argv!r}))")
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert "nan" not in proc.stdout and "inf" not in proc.stdout
        assert np.all(np.isfinite(column(proc.stdout, "vieta_residual")))

    def test_out_of_range_is_config_error(self, capsys):
        # alpha/K = 1e375 overflows a double even in z = K r
        code, out, err = run_cli(
            ["turning-points", "--epsilon", "1", "--k", "1e-300", "--alpha", "1e300"], capsys
        )
        assert code == 2
        assert out == "" and err.startswith("config error: ")


class TestWavefunction:
    def test_polynomial_vs_oracle(self, capsys):
        code, out, _ = run_cli(
            [
                "wavefunction", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,R_polynomial,R_oracle,difference"
        worst = max(abs(float(line.split(",")[3])) for line in lines[1:])
        assert worst < 1e-3

    def test_oracle_level_is_node_count(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", "--n", "3", "--l", "1", "--alpha", "1", "--k", "1",
             "--branch", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert diag["oracle_index"] == diag["node_count"] == 2
        assert diag["oracle_gap"] < 1e-7

    def test_certificate_of_its_own_branch(self, capsys, ode_residual_calls,
                                           turning_point_solves):
        code, out, _ = run_cli(
            ["wavefunction", "--n", "12", "--branch", "4", "--alpha", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert ode_residual_calls[0] == 50
        assert turning_point_solves == [1]
        assert json.loads(out)["diagnostics"]["ode_residual"] <= 1e-12

    def test_certifies_each_branch_whose_terms_overflowed(self, capsys):
        # alpha/K ~ 3.8e9: branch 0's certificate overflowed, which made every
        # branch exit 3 while each solution's certificate was built with the
        # family, and later branch 0 alone; now neither overflows
        argv = ["wavefunction", "--n", "20", "--l", "0", "--alpha", "1.2e8", "--k", "1e-6",
                "--format", "json", "--branch"]
        for branch, nodes in (("10", 10), ("0", 20)):
            code, out, _ = run_cli([*argv, branch], capsys)
            assert code == 0
            diag = json.loads(out)["diagnostics"]
            assert diag["node_count"] == nodes
            assert diag["ode_residual"] <= 1e-12

    def test_certificate_above_bound_is_solver_error(self, capsys, monkeypatch):
        monkeypatch.setattr(biheun.quantize, "ode_residual", lambda rows, t: 1e-3)
        code, out, err = run_cli(
            ["wavefunction", "--n", "3", "--l", "1", "--alpha", "1", "--branch", "1"], capsys
        )
        assert code == 3 and out == ""
        assert err == "solver error: (n=3, l=1, branch=1): ode_residual 1.000e-03 exceeds 1e-09\n"

    @pytest.mark.parametrize("n, l, alpha, k, branch",
                             [(7, 2, 1.1, 0.6, 3), (3, 360, 1.0, 1.0, 1), (2, 60, 1e9, 1.0, 0)])
    def test_polynomial_column_is_the_library_curve(self, capsys, n, l, alpha, k, branch):
        # one R(r): the command prints quantize.wavefunction on the oracle's mesh,
        # normalised in that mesh's quadrature
        sol = solve_family(n, l, alpha, k)[branch]
        grid = confirm(sol.system(), sol.epsilon, sol.level, vector=True).grid
        r, w = grid.nodes(), grid.weights()
        want = wavefunction(sol, r)
        want = want / np.sqrt(np.sum(w * (want * r) ** 2))
        code, out, _ = run_cli(
            ["wavefunction", "--n", str(n), "--l", str(l), "--alpha", str(alpha), "--k", str(k),
             "--branch", str(branch), "--format", "json"],
            capsys,
        )
        assert code == 0
        assert [row["R_polynomial"] for row in json.loads(out)["results"]] == want.tolist()

    def test_rows_follow_the_sized_grid(self, capsys):
        # the state sets the point count: one row per node of its mesh, 30 + 3n + l
        sol = solve_family(2, 0, 1.0, 1.0)[0]
        grid = RadialGrid.auto(sol.system(), sol.epsilon)
        code, out, _ = run_cli(
            ["wavefunction", "--n", "2", "--l", "0", "--alpha", "1", "--k", "1"], capsys
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        assert len(rows) == grid.points == 36
        assert [row[0] for row in rows] == grid.nodes().tolist()

    @pytest.mark.parametrize("n, l, branch", [(0, 0, 0), (4, 2, 1), (12, 1, 7)])
    def test_rows_normalised_in_mesh_quadrature(self, capsys, n, l, branch):
        # sum w R^2 r^2 = 1 for both curves; the trapezoid rule over the
        # 30-69 uneven nodes is off by up to 8e-4
        sol = solve_family(n, l, 1.3, 0.7)[branch]
        w = RadialGrid.auto(sol.system(), sol.epsilon).weights()
        code, out, _ = run_cli(
            ["wavefunction", "--n", str(n), "--l", str(l), "--alpha", "1.3", "--k", "0.7",
             "--branch", str(branch)],
            capsys,
        )
        assert code == 0
        r, poly, oracle, _ = np.array(
            [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        ).T
        for curve in (poly, oracle):
            assert np.sum(w * (curve * r) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n, l", [(0, 20), (5, 60)])
    def test_oracle_level_is_node_count_at_large_l(self, capsys, n, l):
        # 30 + 3n points, without the + l, leave sign changes in the vectors from
        # l = 7 (n <= 12, alpha = k = 1)
        code, out, _ = run_cli(
            ["wavefunction", "--n", str(n), "--l", str(l), "--alpha", "1", "--k", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["node_count"] == n
        worst = max(abs(row["difference"]) for row in payload["results"])
        assert worst < 1e-3 * max(abs(row["R_polynomial"]) for row in payload["results"])

    def test_large_l_envelope_stays_finite(self, capsys):
        # r^300 overflowed at r = 17 (exit 3), and so would squaring R r near its peak
        # (~1e307); the envelope is one exp and R r is scaled to max 1 before the norm
        code, out, err = run_cli(
            ["wavefunction", "--n", "0", "--l", "300", "--alpha", "1", "--k", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["diagnostics"]["node_count"] == 0
        sol = solve_family(0, 300, 1.0, 1.0)[0]
        w = RadialGrid.auto(sol.system(), sol.epsilon).weights()
        r = np.array([row["r"] for row in payload["results"]])
        for key in ("R_polynomial", "R_oracle"):
            curve = np.array([row[key] for row in payload["results"]])
            assert np.sum(w * (curve * r) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l, alpha", [(330, 1.0), (350, 1.0), (360, 1.0), (60, 1e9)])
    def test_envelope_beyond_double_range(self, l, alpha):
        # exp of the envelope overflows from l ~ 330 (exit 3 with max |R r| inf, and
        # a traceback under -W error) and underflows at every node at alpha = 1e9
        # (exit 3): its log-maximum is taken out before the exp
        argv = ["wavefunction", "--n", "0", "--l", str(l), "--alpha", str(alpha),
                "--k", "1", "--format", "json"]
        proc = _python(f"import sys; from biheun.cli import main; sys.exit(main({argv!r}))")
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["diagnostics"]["node_count"] == 0
        sol = solve_family(0, l, alpha, 1.0)[0]
        w = RadialGrid.auto(sol.system(), sol.epsilon).weights()
        r = np.array([row["r"] for row in payload["results"]])
        curves = {key: np.array([row[key] for row in payload["results"]])
                  for key in ("R_polynomial", "R_oracle", "difference")}
        for key in ("R_polynomial", "R_oracle"):
            assert np.sum(w * (curves[key] * r) ** 2) == pytest.approx(1.0, abs=1e-12)
        peak = np.max(np.abs(curves["R_polynomial"]))
        assert np.max(np.abs(curves["difference"])) < 1e-6 * peak

    @pytest.mark.parametrize("branch", range(5))
    def test_oracle_sign_follows_polynomial(self, capsys, branch):
        # R_polynomial starts positive (H(0) = c_0 = 1) and R_oracle is turned to match it
        code, out, _ = run_cli(
            ["wavefunction", "--n", "4", "--l", "2", "--alpha", "1", "--k", "1",
             "--branch", str(branch)],
            capsys,
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        assert rows[0][1] > 0
        assert sum(row[1] * row[2] for row in rows) > 0

    @pytest.mark.parametrize(
        "argv", [["--n", "5", "--l", "40", "--alpha=1e-154", "--branch", "1"],
                 ["--n", "0", "--l", "0", "--alpha=1e-10"]],
    )
    def test_tiny_k(self, capsys, argv):
        # |H| ~ 1e-300: inverse iteration's norm overflowed to a NaN vector (exit 3,
        # "has 0 nodes"), and the mesh's Newton step was 0/0
        code, out, err = run_cli(["wavefunction", *argv, "--k=1e-300", "--format", "json"],
                                 capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["diagnostics"]["node_count"] == payload["diagnostics"]["oracle_index"]
        worst = max(abs(row["difference"]) for row in payload["results"])
        assert worst <= 1e-3 * max(abs(row["R_polynomial"]) for row in payload["results"])

    def test_curves_that_disagree_are_solver_error(self, capsys):
        # H's float coefficients are ill-conditioned here: the curves differed by 18x
        # R_polynomial's peak with exit 0, while ode_residual read 8e-16
        code, out, err = run_cli(
            ["wavefunction", "--n", "30", "--l", "0", "--alpha", "1", "--k", "1",
             "--branch", "0"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "(n=30, l=0, branch=0)" in err

    def test_json_stage_timings_and_worst_difference(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["wavefunction", "--n", "6", "--l", "1", "--alpha", "1.3", "--k", "0.7",
             "--branch", "2", "--format", "json"],
            capsys,
        )
        wall = time.perf_counter() - start
        assert code == 0
        payload = json.loads(out)
        diag, results = payload["diagnostics"], payload["results"]
        assert set(diag["timings_s"]) == {"solve", "certify", "oracle", "curves"}
        assert all(t >= 0 for t in diag["timings_s"].values())
        assert sum(diag["timings_s"].values()) <= wall
        worst = max(abs(row["difference"]) for row in results)
        assert diag["max_rel_difference"] == worst / max(abs(row["R_polynomial"])
                                                         for row in results)
        assert diag["max_rel_difference"] <= 1e-5

    def test_wrong_node_count_is_solver_error(self, capsys, monkeypatch):
        # confirm judges the node count with the gap, and the error names both from
        # the verdict
        from biheun import oracle

        monkeypatch.setattr(oracle, "node_count", lambda vector: 3)
        code, out, err = run_cli(
            ["wavefunction", "--n", "3", "--l", "1", "--alpha", "1", "--branch", "1"], capsys
        )
        assert code == 3
        assert out == ""
        assert "(n=3, l=1, branch=1)" in err
        assert re.search(r"relative gap \S+, 3 nodes", err)

    def test_branch_out_of_range(self, capsys):
        code, _, err = run_cli(
            ["wavefunction", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1",
             "--branch", "5"],
            capsys,
        )
        assert code == 2


class TestConfigHandling:
    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--n", "zero", "--l", "0", "--alpha", "1", "--k", "1"], capsys
        )
        assert code == 2

    def test_bad_k(self, capsys):
        code, _, _ = run_cli(
            ["spectrum", "--n", "0", "--l", "0", "--alpha", "1", "--k", "-1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["spectrum", "--k", "nan"], None),
            (["spectrum", "--alpha", "nan"], None),
            (["spectrum", "--alpha", "inf"], None),
            (["spectrum", "--n", "3..1"], None),
            (["spectrum", "--l", "-1"], None),
            (["spectrum", "--n", "0..2..4"], None),
            (["turning-points", "--epsilon", "nan"], None),
            (["turning-points", "--epsilon", "1", "--beta", "inf"], None),
            (["spectrum", "--alpha", "-1"], None),
            (["wavefunction", "--branch", "-1"], None),
            (["spectrum"], '{"alpha": "x"}'),
            (["spectrum"], '{"k": null}'),
            (["spectrum"], '{"grid_points": 6000.5}'),
            (["spectrum"], '{"verify": 1}'),
            (["spectrum"], '{"out": 3}'),
            (["wavefunction", "--n", "0..1"], None),
            (["wavefunction", "--l", "0..2"], None),
            (["turning-points", "--l", "0..2", "--epsilon", "1"], None),
            (["spectrum", "--k", "0"], None),
            (["spectrum", "--verify"], '{"r_min": 0.002, "r_max": 12}'),
            (["turning-points", "--epsilon", "1"],
             '{"tol": 1e-300, "r_max": 12, "grid_points": 100, "verify": true, "branch": 7}'),
            (["spectrum"], "[1, 2]"),
        ],
    )
    def test_rejects_invalid_input(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith("config error: ")

    def test_wide_range_is_checked_without_listing_it(self):
        # 10^12 values as a list ask for ~40 TB before any check
        from biheun.cli import ConfigError, RunConfig

        start = time.perf_counter()
        RunConfig(command="spectrum", n="0..1000000000000").validate()
        assert time.perf_counter() - start < 0.1
        with pytest.raises(ConfigError, match="takes a single n"):
            RunConfig(command="turning-points", n="0..1000000000000", epsilon=1.0).validate()

    @pytest.mark.parametrize(
        "argv",
        [["wavefunction", "--n", "0..1000000000000"],
         ["wavefunction", "--n", "0..100000000000000000000000"],
         ["turning-points", "--l", "0..1000000000000", "--epsilon", "1"]],
        ids=["wavefunction-1e12", "wavefunction-1e23", "turning-points-1e12"],
    )
    def test_wide_range_is_a_config_error(self, capsys, argv):
        # past 2^63 values len() of the range overflows; validate does not take it
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and "takes a single n" in err

    @pytest.mark.parametrize("command", ["spectrum", "wavefunction"])
    def test_n_beyond_any_memory_is_a_config_error(self, capsys, command):
        # solve_family's arange(n + 1.0) asks for 7.11 PiB, more than any address
        # space holds, so numpy raises MemoryError at once instead of filling memory
        code, out, err = run_cli([command, "--n", "1000000000000000"], capsys)
        assert code == 2
        assert out == "" and err.startswith("config error: ") and "Traceback" not in err

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(["spectrum", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nonsense": 1}')
        code, _, err = run_cli(["spectrum", "--config", str(path)], capsys)
        assert code == 2
        assert "nonsense" in err

    def test_flag_overrides_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": "0", "l": "0", "alpha": 0.0, "k": 1.0}')
        code, out, _ = run_cli(
            ["spectrum", "--config", str(path), "--alpha", "1"], capsys
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[5]) == 1.375

    def test_verify_exit_codes(self, capsys, monkeypatch):
        from biheun import cli
        from biheun.verify import CriterionResult, Figure

        ok = CriterionResult(1, "stub", (Figure("gap", [0.5], 1.0),))
        monkeypatch.setattr(cli, "run_acceptance", lambda: [ok])
        assert main(["verify"]) == 0

        bad = CriterionResult(1, "stub", (Figure("gap", [2.0], 1.0),))
        monkeypatch.setattr(cli, "run_acceptance", lambda: [ok, bad])
        assert main(["verify"]) == 4
        capsys.readouterr()

    def test_verify_out_file(self, capsys, monkeypatch, tmp_path):
        from biheun import verify
        from biheun.verify import CriterionResult, Figure

        stub = lambda: CriterionResult(1, "stub", (Figure("gap", [0.0], 1.0),))  # noqa: E731
        monkeypatch.setattr(verify, "ALL_CRITERIA", (stub,))
        path = tmp_path / "verify.txt"
        code, out, _ = run_cli(["verify", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("[PASS] criterion 1: stub -- gap=0.00e+00 [")

    @pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-dir", "dir"])
    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--n", "0"], ["wavefunction", "--n", "0"],
         ["turning-points", "--epsilon", "1"], ["verify"]],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, argv, target):
        # a missing directory (FileNotFoundError) or a directory (IsADirectoryError)
        # was a traceback, exit 1
        code, out, err = run_cli([*argv, "--out", str(tmp_path / target)], capsys)
        assert code == 2
        assert out == "" and err.startswith("config error: ")

    def test_field_types_are_read_once(self, capsys, monkeypatch):
        # validate evaluated RunConfig's 11 string annotations on every command
        def unavailable(*args, **kwargs):
            raise AssertionError("typing.get_type_hints called")

        monkeypatch.setattr(typing, "get_type_hints", unavailable)
        for _ in range(2):
            assert run_cli(["spectrum", "--n", "0"], capsys)[0] == 0
        assert run_cli(["spectrum", "--n", "0", "--alpha=-1"], capsys)[0] == 2

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        # absurdly tight oracle tolerance cannot be met
        from biheun import oracle

        monkeypatch.setattr(oracle, "RTOL", 1e-300)
        code, _, err = run_cli(
            ["spectrum", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1", "--verify"],
            capsys,
        )
        assert code == 3


COMMON = {"--config", "--out"}
SYSTEM = COMMON | {"--format", "--l", "--alpha", "--k"}
FAMILY = SYSTEM | {"--n"}
OPTIONS = {
    "spectrum": FAMILY | {"--verify"},
    "wavefunction": FAMILY | {"--branch"},
    "turning-points": SYSTEM | {"--beta", "--epsilon"},
    "verify": COMMON,
}


@pytest.mark.parametrize("command, options", OPTIONS.items())
def test_each_command_takes_only_the_flags_it_reads(command, options):
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = sub.choices[command]._actions
    assert {o for a in actions for o in a.option_strings} - {"-h", "--help"} == options


@pytest.mark.parametrize(
    "argv",
    [
        ["turning-points", "--epsilon", "1", "--tol", "1e-3"],
        ["turning-points", "--epsilon", "1", "--n", "2"],
        ["verify", "--grid-points", "100"],
        ["verify", "--r-max", "12"],
        ["spectrum", "--grid-points", "100"],
        ["spectrum", "--r-max", "12"],
        ["wavefunction", "--tol", "1e-3"],
        ["verify", "--format", "json"],
    ],
)
def test_ignored_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports biheun from this checkout."""
    src = str(Path(biheun.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )


def test_import_skips_scipy_special():
    # importing scipy.linalg took 0.35 of 0.58 s of every command's start-up,
    # and scipy.special adds 0.04-0.06 s and ~2.5 MB more: numpy is the runtime
    code = ("import sys, biheun.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "0..4", "--l", "0..1", "--verify"],
        ["wavefunction", "--n", "3", "--l", "1", "--format", "json"],
    ],
)
def test_commands_run_without_scipy(argv):
    # sys.modules["scipy"] = None makes every import of scipy fail
    code = ("import sys; sys.modules['scipy'] = None; from biheun.cli import main; "
            f"sys.exit(main({argv!r}))")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _powers(lo: float, hi: float) -> st.SearchStrategy[float]:
    """10^U(lo, hi)."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _argv(draw) -> list[str]:
    """argv for every command that reads the system, each number in --flag=value form."""
    command = draw(st.sampled_from(["spectrum", "spectrum --verify", "wavefunction",
                                    "turning-points"])).split()
    alpha = draw(st.one_of(st.just(0.0), _powers(-12.0, 6.0)))
    argv = [*command, f"--l={draw(st.integers(0, 40))}", f"--alpha={alpha!r}",
            f"--k={draw(_powers(-12.0, 12.0))!r}"]
    if command[0] == "turning-points":
        signed = st.tuples(st.sampled_from([-1.0, 1.0]), _powers(-6.0, 6.0))
        beta, epsilon = (sign * size for sign, size in (draw(signed), draw(signed)))
        return [*argv, f"--beta={beta!r}", f"--epsilon={epsilon!r}"]
    n = draw(st.integers(0, 8))
    argv.append(f"--n={n}")
    if command[0] == "wavefunction":
        argv.append(f"--branch={draw(st.integers(0, n))}")
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_every_argv_maps_to_an_exit_code(argv):
    # warnings are errors here: a numpy warning on the way fails the example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue()


def _signed(lo: float, hi: float) -> st.SearchStrategy[float]:
    """±10^U(lo, hi)."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), _powers(lo, hi)).map(lambda t: t[0] * t[1])


def _range_spec(top: int) -> st.SearchStrategy:
    """An --n or --l value in 0..top: an int, its string, or a range of two values."""
    return st.one_of(st.integers(0, top), st.integers(0, top).map(str),
                     st.integers(0, top - 1).map(lambda a: f"{a}..{a + 1}"))


# values of each config key's own type, in the argv property's domain; "out"
# is a file name inside the example's temporary directory
_RIGHT = {
    "n": _range_spec(8), "l": _range_spec(40), "alpha": st.one_of(st.just(0.0), _powers(-12.0, 6.0)),
    "k": _powers(-12.0, 12.0), "beta": _signed(-6.0, 6.0), "epsilon": _signed(-6.0, 6.0),
    "branch": st.integers(0, 8), "verify": st.booleans(),
    "format": st.sampled_from(["csv", "json", "xml"]), "out": st.sampled_from([None, "", "out"]),
}
# any JSON value, which is of the wrong type for most keys; no digits in the
# strings, so none of them is a range wider than _RIGHT's
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.5, -1.0, float("nan"), float("inf"), float("-inf")]),
    st.text(st.characters(exclude_categories=("Nd",)), max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def _config(draw) -> tuple[str, dict]:
    """A command and a JSON config of some of its keys, about one value in eight of any type."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    config = {}
    for key in sorted(o[2:] for o in OPTIONS[command] - {"--config"}):
        if draw(st.booleans()):
            wrong = _ANY.filter(lambda v: key != "out" or not isinstance(v, str))
            config[key] = draw(wrong if draw(st.integers(0, 7)) == 0 else _RIGHT[key])
    return command, config


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_config())
def test_every_config_file_maps_to_an_exit_code(case):
    command, config = case
    out, err = io.StringIO(), io.StringIO()
    # verify runs criterion 7 alone: the property is about the config, not the suite
    with (tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(),
          mock.patch.object(biheun.verify, "ALL_CRITERIA", (biheun.verify.criterion_7,)),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        if isinstance(config.get("out"), str) and config["out"]:
            config["out"] = os.path.join(tmp, config["out"])
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        code = main([command, "--config", path])
        text = out.getvalue()
        if code == 0 and config.get("out"):
            with open(config["out"]) as fh:
                text = fh.read()
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        assert not re.search(r"\bnan\b", text, re.IGNORECASE)
