import json

import pytest

from biheun.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_n0_l_range(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--n", "0", "--l", "0..2", "--alpha", "1", "--k", "1"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "n,l,branch,b,beta,epsilon,constraint_residual,ode_residual"
        )
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
                "--verify", "--grid-points", "3000",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith(",oracle_gap")
        assert float(lines[1].split(",")[-1]) < 1e-4

    def test_verify_uses_richardson_gap(self, capsys):
        # the plain FD gap here is ~1e-5, so the pre-Richardson check exited 3
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
        assert all(float(row.split(",")[7]) <= 1e-12 for row in rows)

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


class TestWavefunction:
    def test_polynomial_vs_oracle(self, capsys):
        code, out, _ = run_cli(
            [
                "wavefunction", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1",
                "--grid-points", "3000",
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
             "--branch", "1", "--grid-points", "3000", "--format", "json"],
            capsys,
        )
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert diag["oracle_index"] == diag["node_count"] == 2
        assert diag["oracle_gap"] < 1e-7

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

    def test_r_min_without_r_max(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1",
             "--verify", "--r-min", "0.01"],
            capsys,
        )
        assert code == 2
        assert "--r-max" in err

    def test_r_min_with_r_max(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1",
             "--verify", "--r-min", "0.002", "--r-max", "12", "--grid-points", "3000",
             "--tol", "1e-2"],
            capsys,
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[-1]) < 1e-2

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["spectrum", "--k", "nan"], None),
            (["spectrum", "--alpha", "nan"], None),
            (["spectrum", "--alpha", "inf"], None),
            (["spectrum", "--tol", "nan"], None),
            (["spectrum", "--verify", "--r-max", "nan"], None),
            (["spectrum", "--verify", "--r-min", "inf", "--r-max", "12"], None),
            (["spectrum", "--verify", "--r-min", "0", "--r-max", "12"], None),
            (["spectrum", "--verify", "--r-min", "5", "--r-max", "3"], None),
            (["spectrum", "--alpha", "-1"], None),
            (["spectrum", "--verify", "--grid-points", "5"], None),
            (["spectrum"], '{"alpha": "x"}'),
            (["spectrum"], '{"k": null}'),
            (["spectrum"], '{"grid_points": 6000.5}'),
            (["spectrum"], '{"verify": 1}'),
            (["spectrum"], '{"out": 3}'),
            (["wavefunction", "--n", "0..1"], None),
            (["wavefunction", "--l", "0..2"], None),
            (["turning-points", "--l", "0..2", "--epsilon", "1"], None),
            (["spectrum", "--n", "2", "--l", "1", "--r-max", "1e-300", "--verify"], None),
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

    def test_solver_failure_exit_code(self, capsys):
        # absurdly tight oracle tolerance cannot be met
        code, _, err = run_cli(
            ["spectrum", "--n", "0", "--l", "0", "--alpha", "1", "--k", "1",
             "--verify", "--tol", "1e-300", "--grid-points", "2000"],
            capsys,
        )
        assert code == 3
