"""End-to-end tests of the command-line interface (run in process)."""

import argparse
import json

import numpy as np
import pytest

from gouest import MODELS, EstimationConfig, RateStudyConfig, __version__
from gouest.cli import build_parser, main


def _run_simulate(out, n=60, seed=3, model=("cp_exp", "0.7", "1.8", "1.8")):
    kind, a, b, mu = model
    rc = main(
        [
            "simulate",
            "--model",
            kind,
            "--a",
            a,
            "--b",
            b,
            "--mu",
            mu,
            "-n",
            str(n),
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out / "sample.csv"


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


class TestSimulate:
    def test_writes_sample_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        csv = _run_simulate(out, n=60)
        lines = csv.read_text().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 61
        man = _manifest(out)
        assert man["status"] == "ok"
        assert man["command"] == "simulate"
        assert man["seed"] == 3
        assert str(csv) in man["outputs"]
        assert man["finished_at"] >= man["started_at"]

    def test_deterministic_bytes(self, tmp_path):
        a = _run_simulate(tmp_path / "a", n=40, seed=9).read_bytes()
        b = _run_simulate(tmp_path / "b", n=40, seed=9).read_bytes()
        assert a == b
        c = _run_simulate(tmp_path / "c", n=40, seed=10).read_bytes()
        assert a != c

    def test_invalid_model_exits_2_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "bad"
        rc = main(
            [
                "simulate",
                "--model",
                "cp_exp",
                "--a",
                "-1.0",
                "--b",
                "1.8",
                "--mu",
                "0.2",
                "-n",
                "10",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        man = _manifest(out)
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"
        assert "error" in capsys.readouterr().err

    def test_truncation_failure_exits_3(self, tmp_path):
        out = tmp_path / "trunc"
        rc = main(
            [
                "simulate",
                "--model",
                "trunc_norm_cp",
                "--lam",
                "1.0",
                "--alpha",
                "0.5",
                "--q",
                "0.1",
                "-n",
                "10",
                "--eta",
                "1e-12",
                "--n-max",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert _manifest(out)["error"]["type"] == "TruncationError"

    def test_series_model_runs(self, tmp_path):
        out = tmp_path / "tn"
        rc = main(
            [
                "simulate",
                "--model",
                "trunc_norm_cp",
                "--lam",
                "1.0",
                "--alpha",
                "0.5",
                "--q",
                "0.1",
                "-n",
                "25",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        meta = json.loads((out / "sample.json").read_text())
        assert meta["model"]["model"] == "trunc_norm_cp"


class TestEstimate:
    def test_outputs_and_schemas(self, tmp_path):
        csv = _run_simulate(tmp_path / "sim", n=400)
        out = tmp_path / "est"
        rc = main(["estimate", str(csv), "--out", str(out)])
        assert rc == 0
        triplet = json.loads((out / "triplet.json").read_text())
        assert set(triplet) == {"mu_hat", "lambda_hat", "ill_count", "n", "config"}
        assert triplet["n"] == 400
        curve_lines = (out / "laplace_curve.csv").read_text().splitlines()
        assert curve_lines[0] == "v,re_Y,im_Y,abs_Y,denom_abs,ill_flag"
        density_lines = (out / "levy_density.csv").read_text().splitlines()
        assert density_lines[0] == "x,nu_hat,nu_bar_hat,imag_residual"
        man = _manifest(out)
        assert man["status"] == "ok"
        assert man["seed"] is None  # estimate draws nothing
        assert len(man["outputs"]) == 3

    def test_flags_override_config_file(self, tmp_path):
        csv = _run_simulate(tmp_path / "sim", n=50)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"estimation": {"u0": 3.0, "vn": 4.0}}))
        out = tmp_path / "est"
        rc = main(
            [
                "estimate",
                str(csv),
                "--out",
                str(out),
                "--config",
                str(conf),
                "--u0",
                "2.5",
            ]
        )
        assert rc == 0
        section = _manifest(out)["config"]["estimation"]
        assert section["u0"] == 2.5  # flag wins
        assert section["vn"] == 4.0  # file beats default

    def test_grid_m_sets_both_grids(self, tmp_path):
        csv = _run_simulate(tmp_path / "sim", n=50)
        out = tmp_path / "est"
        rc = main(["estimate", str(csv), "--out", str(out), "--grid-m", "24"])
        assert rc == 0
        section = _manifest(out)["config"]["estimation"]
        assert section["m_fit"] == 24
        assert section["m_inv"] == 24

    def test_missing_sample_exits_2_and_writes_manifest(self, tmp_path):
        out = tmp_path / "est"
        rc = main(["estimate", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert rc == 2
        man = _manifest(out)
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"

    def test_empty_sample_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x\n")
        rc = main(["estimate", str(empty), "--out", str(tmp_path / "est")])
        assert rc == 2

    def test_non_finite_sample_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "inf.csv"
        bad.write_text("x\n0.5\ninf\n0.2\n")
        out = tmp_path / "est"
        rc = main(["estimate", str(bad), "--out", str(out)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert "non-finite" in _manifest(out)["error"]["message"]

    def test_overflowing_mellin_weight_exits_2(self, tmp_path, capsys):
        # 1e12**29 overflows float64; the error must say so, not blame the
        # conditioning diagnostics downstream
        big = tmp_path / "big.csv"
        big.write_text("x\n0.5\n1e12\n0.2\n")
        out = tmp_path / "est"
        rc = main(["estimate", str(big), "--u0", "29", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "u0=29" in err and "max x = 1e+12" in err
        assert _manifest(out)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("sidecar", ["{not json", "[1]", '{"delta": "soon"}'],
                             ids=["json", "list", "delta"])
    def test_malformed_sidecar_exits_2(self, tmp_path, sidecar):
        csv = _run_simulate(tmp_path / "sim", n=50)
        csv.with_suffix(".json").write_text(sidecar)
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--out", str(out)]) == 2
        man = _manifest(out)
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"
        assert "sample.json" in man["error"]["message"]

    def test_non_finite_delta_exits_2(self, tmp_path, capsys):
        csv = _run_simulate(tmp_path / "sim", n=50)
        csv.with_suffix(".json").write_text('{"delta": 1e400}')
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--out", str(out)]) == 2
        assert "delta must be positive and finite, got inf" in capsys.readouterr().err
        man = _manifest(out)
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"

    def test_sample_directory_exits_4(self, tmp_path, capsys):
        out = tmp_path / "est"
        assert main(["estimate", str(tmp_path), "--out", str(out)]) == 4
        assert "I/O error" in capsys.readouterr().err
        man = _manifest(out)
        assert man["status"] == "error"
        assert man["error"]["type"] == "IsADirectoryError"

    def test_defaults_are_the_library_defaults(self, tmp_path):
        csv = _run_simulate(tmp_path / "sim", n=50)
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--out", str(out)]) == 0
        assert _manifest(out)["config"]["estimation"] == EstimationConfig().to_dict()

    def test_constant_sample_flagged_not_fatal(self, tmp_path):
        # constant observations c are the pure-drift degenerate case: the
        # estimate is exactly 1/c, and a small c puts the Mellin denominator
        # below the conditioning floor so every fit point is flagged
        const = tmp_path / "const.csv"
        const.write_text("x\n" + "0.05\n" * 64)
        out = tmp_path / "est"
        rc = main(["estimate", str(const), "--out", str(out)])
        assert rc == 0
        triplet = json.loads((out / "triplet.json").read_text())
        assert triplet["mu_hat"] == pytest.approx(20.0, rel=1e-12)
        assert triplet["lambda_hat"] == pytest.approx(0.0, abs=1e-10)
        assert triplet["ill_count"] == 50


class TestExperiments:
    def test_experiment1_outputs(self, tmp_path):
        out = tmp_path / "e1"
        rc = main(["experiment1", "-n", "400", "--reps", "2", "--out", str(out)])
        assert rc == 0
        fig1 = (out / "fig1_laplace.csv").read_text().splitlines()
        assert fig1[0] == "v,re_Y,im_Y,re_phi,im_phi,denom_abs,ill_flag"
        assert len(fig1) == 602  # 601 grid points on [-30, 30]
        first, last = fig1[1].split(","), fig1[-1].split(",")
        assert float(first[0]) == -30.0 and float(last[0]) == 30.0
        v = np.array([float(line.split(",")[0]) for line in fig1[1:]])
        np.testing.assert_array_equal(v, -v[::-1])  # exact mirror pairs
        fig2 = (out / "fig2_estimates.csv").read_text().splitlines()
        assert fig2[0] == "n,replicate,vn,mu_hat,lambda_hat,ill_count"
        assert len(fig2) == 1 + 3 * 2  # ladder of three sizes, two replicates

    def test_experiment2_outputs(self, tmp_path):
        out = tmp_path / "e2"
        rc = main(["experiment2", "-n", "300", "--out", str(out)])
        assert rc == 0
        assert _manifest(out)["seed"] == 0  # the default seed it drew with
        fig3 = (out / "fig3_laplace.csv").read_text().splitlines()
        assert fig3[0] == "v,re_Y,im_Y,re_phi,im_phi,denom_abs,ill_flag"
        assert len(fig3) == 502  # 501 grid points on [-5, 5]
        first, last = fig3[1].split(","), fig3[-1].split(",")
        assert float(first[0]) == -5.0 and float(last[0]) == 5.0
        v = np.array([float(line.split(",")[0]) for line in fig3[1:]])
        np.testing.assert_array_equal(v, -v[::-1])  # exact mirror pairs
        fig4 = (out / "fig4_density.csv").read_text().splitlines()
        assert fig4[0] == "x,nu_hat,nu_bar_hat,imag_residual,nu_true"
        # jump density of the truncated-normal model vanishes below alpha
        row = fig4[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[4]) == 0.0

    def test_experiment2_deterministic(self, tmp_path):
        rc1 = main(["experiment2", "-n", "200", "--out", str(tmp_path / "a")])
        rc2 = main(["experiment2", "-n", "200", "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        a = (tmp_path / "a" / "fig4_density.csv").read_bytes()
        b = (tmp_path / "b" / "fig4_density.csv").read_bytes()
        assert a == b


class TestRateStudyCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "rs"
        rc = main(
            [
                "rate-study",
                "--model",
                "cp_exp",
                "--a",
                "0.7",
                "--b",
                "1.8",
                "--mu",
                "1.8",
                "--n-ladder",
                "200,400",
                "--reps",
                "2",
                "--u0",
                "29",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "mise_report.json").read_text())
        assert set(payload) == {
            "n",
            "median_sq_err_mu",
            "median_sq_err_lambda",
            "median_mise",
            "slope_mu",
            "slope_mise",
            "quartiles",
            "failures",
            "meta",
        }
        assert payload["n"] == [200, 400]

    def test_fractional_smoothness_is_recorded(self, tmp_path):
        out = tmp_path / "rs"
        rc = main(["rate-study", "--model", "cp_exp", "--n-ladder", "200,400", "--reps", "2",
                   "--s", "0.5", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["study"]["smoothness"] == 0.5

    def test_config_file_sets_x_grid_and_seed(self, tmp_path):
        conf = tmp_path / "rs.json"
        conf.write_text(json.dumps({"x_grid": {"x_points": 31}, "seed": 5}))
        out = tmp_path / "rs"
        rc = main(["rate-study", "--n-ladder", "200,400", "--reps", "2",
                   "--config", str(conf), "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "mise_report.json").read_text())["meta"]
        assert meta["x_points"] == 31
        assert meta["seed"] == 5
        assert _manifest(out)["config"]["seed"] == 5
        assert _manifest(out)["seed"] == 5

    def test_study_defaults_are_the_library_defaults(self, tmp_path):
        out = tmp_path / "rs"
        assert main(["rate-study", "--n-ladder", "200,400", "--out", str(out)]) == 0
        study = _manifest(out)["config"]["study"]
        assert study["replicates"] == RateStudyConfig.replicates
        assert study["smoothness"] == RateStudyConfig.smoothness
        assert study["decay_class"] == RateStudyConfig.decay_class

    def test_bad_ladder_exits_2(self, tmp_path):
        rc = main(
            [
                "rate-study",
                "--model",
                "cp_exp",
                "--a",
                "0.7",
                "--b",
                "1.8",
                "--mu",
                "1.8",
                "--n-ladder",
                "400",
                "--out",
                str(tmp_path / "rs"),
            ]
        )
        assert rc == 2


class TestConfigErrors:
    """A config value or section of the wrong type exits 2 with a manifest."""

    def _run(self, tmp_path, argv, config):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = main(argv + ["--config", str(conf), "--out", str(out)])
        man = _manifest(out)
        assert rc == 2
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"
        return man["error"]["message"]

    @pytest.mark.parametrize("config, key", [
        ({"model": {"model": "cp_exp", "mu": "fast"}}, "'mu'"),
        ({"model": {"model": "trunc_norm_cp", "q": None}}, "'q'"),
        ({"model": 3}, "'model'"),
    ], ids=["text", "null", "section"])
    def test_bad_model_section(self, tmp_path, config, key):
        assert key in self._run(tmp_path, ["simulate", "-n", "10"], config)

    @pytest.mark.parametrize("config, key", [
        ({"estimation": {"u0": None}}, "'u0'"),
        ({"estimation": {"m_fit": "many"}}, "'m_fit'"),
        ({"estimation": 3}, "'estimation'"),
    ], ids=["null", "text", "section"])
    def test_bad_estimation_section(self, tmp_path, config, key):
        csv = _run_simulate(tmp_path / "sim", n=50)
        assert key in self._run(tmp_path, ["estimate", str(csv)], config)

    @pytest.mark.parametrize("config, key", [
        ({"study": {"replicates": "many"}}, "'replicates'"),
        ({"study": {"n_ladder": [200, "x"]}}, "'n_ladder'"),
        ({"study": [1]}, "'study'"),
    ], ids=["text", "ladder", "section"])
    def test_bad_study_section(self, tmp_path, config, key):
        assert key in self._run(tmp_path, ["rate-study"], config)

    @pytest.mark.parametrize("argv, config", [
        (["--vn", "99"], {}),
        ([], {"estimation": {"vn": 99}}),
    ], ids=["flag", "config"])
    def test_rate_study_rejects_vn(self, tmp_path, argv, config):
        message = self._run(tmp_path, ["rate-study", "--n-ladder", "200,400", "--reps", "2"]
                            + argv, config)
        assert "bandwidth rule" in message
        assert not (tmp_path / "out" / "mise_report.json").exists()


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["estimate", "sample.csv", "--seed", "1"],
        ["experiment1", "--config", "conf.json"],
        ["experiment2", "--config", "conf.json"],
    ], ids=["estimate-seed", "experiment1-config", "experiment2-config"])
    def test_flag_a_command_ignores_is_rejected(self, tmp_path, argv):
        # estimate draws nothing, and the experiments read no config file
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_rate_study_help_omits_vn(self, capsys):
        # rate-study takes V_n from its bandwidth rule and rejects --vn
        with pytest.raises(SystemExit) as exc:
            main(["rate-study", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--vn" not in help_text
        assert "--u0" in help_text

    @pytest.mark.parametrize("command", ["simulate", "rate-study"])
    def test_model_choices_are_the_model_table(self, command):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        model = next(a for a in commands.choices[command]._actions if a.dest == "model")
        assert model.choices == list(MODELS)

    def test_out_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment1"])
