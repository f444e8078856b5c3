import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biheun
from biheun.cli import build_parser, main
from biheun.oracle import RadialGrid
from biheun.quantize import solve_family


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

    def test_overflowing_ode_residual_is_solver_error(self, capsys):
        # alpha/K ~ 3.8e9: H's terms overflow in the residual, and a nan
        # sample dropped by the sup printed ode_residual 1e-16 with exit 0
        code, out, err = run_cli(
            ["spectrum", "--n", "20", "--l", "0", "--alpha", "1.2e8", "--k", "1e-6"], capsys
        )
        assert code == 3
        assert out == ""
        assert "(n=20, l=0, branch=0)" in err

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

    def test_deterministic_output(self, capsys):
        args = ["spectrum", "--n", "0..2", "--l", "0..1", "--alpha", "1", "--k", "2"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

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

    def test_rows_follow_the_sized_grid(self, capsys):
        # the state sets the point count: one row per node of its mesh, 40 + 3n + l
        sol = solve_family(2, 0, 1.0, 1.0)[0]
        grid = RadialGrid.auto(sol.system(), sol.epsilon)
        code, out, _ = run_cli(
            ["wavefunction", "--n", "2", "--l", "0", "--alpha", "1", "--k", "1"], capsys
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        assert len(rows) == grid.points == 46
        assert [row[0] for row in rows] == grid.nodes().tolist()

    @pytest.mark.parametrize("n, l, branch", [(0, 0, 0), (4, 2, 1), (12, 1, 7)])
    def test_rows_normalised_in_mesh_quadrature(self, capsys, n, l, branch):
        # sum w R^2 r^2 = 1 for both curves; the trapezoid rule over the
        # 40-79 uneven nodes is off by up to 6e-4
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
        # 40 + 3n points leave sign changes in the level-0 vector from l = 16
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
        from biheun.verify import CriterionResult

        ok = CriterionResult(1, "stub", True, "")
        monkeypatch.setattr(cli, "run_acceptance", lambda: [ok])
        assert main(["verify"]) == 0

        bad = CriterionResult(1, "stub", False, "")
        monkeypatch.setattr(cli, "run_acceptance", lambda: [ok, bad])
        assert main(["verify"]) == 4
        capsys.readouterr()

    def test_verify_out_file(self, capsys, monkeypatch, tmp_path):
        from biheun import verify
        from biheun.verify import CriterionResult

        stub = lambda: CriterionResult(1, "stub", True, "ok")  # noqa: E731
        monkeypatch.setattr(verify, "ALL_CRITERIA", (stub,))
        path = tmp_path / "verify.txt"
        code, out, _ = run_cli(["verify", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("[PASS] criterion 1: stub -- ok [")

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


@pytest.mark.parametrize(
    "command, options",
    [
        ("spectrum", FAMILY | {"--verify"}),
        ("wavefunction", FAMILY | {"--branch"}),
        ("turning-points", SYSTEM | {"--beta", "--epsilon"}),
        ("verify", COMMON),
    ],
)
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
