"""End-to-end tests of the command-line interface (run in process)."""

import argparse
import dataclasses
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

import gouest
import gouest.models
from gouest import MODELS, EstimationConfig, RateStudyConfig, __version__, choose_vn_exponential
from gouest.cli import _ladder, build_parser, main


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

    def test_truncation_failure_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gouest.models, "_SERIES_MAX_TERMS", 2)
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
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert _manifest(out)["error"]["type"] == "TruncationError"

    def test_default_model_is_example_1(self, tmp_path):
        # without model flags, simulate draws the cp_exp model of Example 1
        bare, given = tmp_path / "bare", tmp_path / "given"
        assert main(["simulate", "-n", "50", "--out", str(bare)]) == 0
        assert main(["simulate", "--model", "cp_exp", "--mu", "1.8", "--a", "0.7", "--b", "0.2",
                     "-n", "50", "--out", str(given)]) == 0
        for name in ("sample.csv", "sample.json"):
            assert (bare / name).read_bytes() == (given / name).read_bytes(), name

    @pytest.mark.parametrize("command", [
        ["simulate", "-n", "200"],
        ["rate-study", "--beta", "1", "--u0", "1", "--x-max", "10", "--n-ladder", "200,400",
         "--reps", "2"],
    ], ids=["simulate", "rate-study"])
    def test_alpha_past_the_normal_cdf_exits_2(self, tmp_path, command):
        # at alpha = 9 the normal cdf rounds to 1: the series sampler refuses
        out = tmp_path / "far"
        assert main(command + ["--model", "trunc_norm_cp", "--alpha", "9",
                               "--out", str(out)]) == 2
        man = _manifest(out)
        assert man["error"]["type"] == "DomainError"
        assert "alpha" in man["error"]["message"]

    @pytest.mark.parametrize("flag", ["--eta", "--n-max"])
    def test_series_stopping_rule_has_no_flag(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "trunc_norm_cp", flag, "1"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("argv, model", [
        ([], gouest.CPExp(mu=1.8, a=0.7, b=0.2)),
        (["--model", "trunc_norm_cp", "--lam", "1.3", "--q", "0.4"],
         gouest.TruncNormCP(lam=1.3, q=0.4, alpha=0.1)),
    ], ids=["cp_exp", "trunc_norm_cp"])
    def test_sample_reads_back_with_its_model(self, tmp_path, argv, model):
        out = tmp_path / "sim"
        assert main(["simulate", *argv, "-n", "20", "--out", str(out)]) == 0
        back = gouest.read_sample_csv(out / "sample.csv")
        assert back.model == model
        assert (back.n, back.seed, back.delta) == (20, 0, 1.0)


class TestEstimate:
    def test_outputs_and_schemas(self, tmp_path):
        csv = _run_simulate(tmp_path / "sim", n=400)
        out = tmp_path / "est"
        rc = main(["estimate", str(csv), "--out", str(out)])
        assert rc == 0
        triplet = json.loads((out / "triplet.json").read_text())
        assert set(triplet) == {"mu_hat", "lambda_hat", "ill_count", "n", "config"}
        assert triplet["n"] == 400
        # the sample's sidecar names its model: the truth columns and scores
        curve_lines = (out / "laplace_curve.csv").read_text().splitlines()
        assert curve_lines[0] == "v,re_Y,im_Y,abs_Y,denom_abs,ill_flag,re_phi,im_phi"
        density_lines = (out / "levy_density.csv").read_text().splitlines()
        assert density_lines[0] == "x,nu_hat,nu_bar_hat,imag_residual,nu_true"
        man = _manifest(out)
        assert man["status"] == "ok"
        assert man["seed"] is None  # estimate draws nothing
        assert len(man["outputs"]) == 3
        assert {"mu_err", "lambda_err", "mise"} <= man["config"].keys()

    def test_row_order_changes_no_output_byte(self, tmp_path):
        csv = _run_simulate(tmp_path / "sim", n=3000)
        header, *rows = csv.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(np.random.default_rng(1).permutation(rows)))
        shuffled.with_suffix(".json").write_bytes(csv.with_suffix(".json").read_bytes())
        for path, out in ((csv, "a"), (shuffled, "b")):
            assert main(["estimate", str(path), "--u0", "29", "--vn", "30",
                         "--out", str(tmp_path / out)]) == 0
        for name in ("triplet.json", "laplace_curve.csv", "levy_density.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    @pytest.mark.parametrize("flags, ones", [("--u0 29 --vn 30 --x-max 30", False),
                                             ("--vn 1e200", True)],
                             ids=["untilt", "bandwidth"])
    def test_overflowing_inversion_exits_2(self, tmp_path, capsys, flags, ones):
        # e^{u0 x} at x = 30, or the sum at vn = 1e200, overflows float64:
        # no levy_density.csv of inf and nan. Only a sample of ones, whose
        # log x = 0 keeps the phases v log x exact, reaches the inversion at
        # vn = 1e200; on any other the Mellin pass refuses that bandwidth.
        if ones:
            sample = tmp_path / "ones.csv"
            sample.write_text("x\n" + "1\n" * 500)
        else:
            sample = _run_simulate(tmp_path / "sim", n=500)
        out = tmp_path / "est"
        assert main(["estimate", str(sample), *flags.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "density inversion overflows float64" in err and "vn=" in err
        assert not (out / "levy_density.csv").exists()
        assert _manifest(out)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("vn", ["1e307", "1e308"])
    def test_overflowing_fit_exits_2_naming_vn(self, tmp_path, vn):
        # on a sample of ones Y is u0 + iv up to rounding at any bandwidth,
        # so the fit's sums overflow: a DomainError naming vn, no warning
        ones = tmp_path / "ones.csv"
        ones.write_text("x\n" + "1\n" * 500)
        out = tmp_path / "est"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", str(ones), "--vn", vn, "--out", str(out)]) == 2
        error = _manifest(out)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith("mu_hat and lambda_hat must be finite")
        assert f"vn={float(vn):g}" in error["message"]

    @pytest.mark.parametrize("sidecar", [
        "{not json", "[1]", '{"delta": "soon"}', '{"model": {"model": "nope"}}',
        '{"model": 5}', '{"model": {"model": "cp_exp", "mu": "fast", "a": 1, "b": 1}}',
        '{"model": {"model": "cp_exp", "mu": "1.8", "a": 0.7, "b": 0.2}}',
        '{"model": {"model": "cp_exp", "mu": "1_8", "a": 0.7, "b": 0.2}}',
        '{"model": {"model": "cp_exp", "mu": 1.8, "a": true, "b": 0.2}}',
        '{"model": {"model": "cp_exp", "mu": 1%s, "a": 0.7, "b": 0.2}}' % ("0" * 400),
        '{"delta": "0.5"}', '{"delta": true}', '{"delta": 1%s}' % ("0" * 400),
    ], ids=["json", "list", "delta", "model-kind", "model-number", "model-parameter",
            "model-string", "model-underscored", "model-bool", "model-huge-int",
            "delta-string", "delta-bool", "delta-huge-int"])
    def test_malformed_sidecar_exits_2(self, tmp_path, sidecar):
        csv = _run_simulate(tmp_path / "sim", n=50)
        csv.with_suffix(".json").write_text(sidecar)
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--out", str(out)]) == 2
        man = _manifest(out)
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"
        assert "sample.json" in man["error"]["message"]

    @pytest.mark.parametrize("model", ["--model cp_exp --a 0.7 --b 1.8 --mu 1.8",
                                       "--model trunc_norm_cp --lam 1 --q 0.5 --alpha 0.1"],
                             ids=["cp_exp", "trunc_norm_cp"])
    def test_sidecar_model_scores_the_estimate(self, tmp_path, model):
        sim = tmp_path / "sim"
        assert main(["simulate", *model.split(), "-n", "400", "--out", str(sim)]) == 0
        csv = sim / "sample.csv"
        truth = gouest.model_from_config(json.loads(csv.with_suffix(".json").read_text())["model"])
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--u0", "2", "--out", str(out)]) == 0
        curve = np.genfromtxt(out / "laplace_curve.csv", delimiter=",", names=True)
        phi = gouest.laplace_exponent(truth, 2.0 + 1j * curve["v"])
        np.testing.assert_array_equal(curve["re_phi"], phi.real)
        np.testing.assert_array_equal(curve["im_phi"], phi.imag)
        density = np.genfromtxt(out / "levy_density.csv", delimiter=",", names=True)
        x = density["x"]
        np.testing.assert_array_equal(density["nu_true"], gouest.levy_density(truth, x))
        config = _manifest(out)["config"]
        assert config["mu_err"] == config["mu_hat"] - truth.drift
        assert config["lambda_err"] == config["lambda_hat"] - truth.jump_mass
        # rates.mise: the trapezoid of the tilted density's squared error
        err = density["nu_bar_hat"] - np.exp(-2.0 * x) * density["nu_true"]
        assert config["mise"] == float(np.trapezoid(err**2, x))

    def test_without_sidecar_model_nothing_is_scored(self, tmp_path):
        # the scored run only appends columns and keys: without a model in the
        # sidecar, or without a sidecar, every output has its unscored bytes
        csv = _run_simulate(tmp_path / "sim", n=400)
        bare = tmp_path / "bare.csv"
        bare.write_bytes(csv.read_bytes())
        anonymous = tmp_path / "anonymous.csv"
        anonymous.write_bytes(csv.read_bytes())
        anonymous.with_suffix(".json").write_text('{"model": null, "delta": 1.0}')
        for path, out in ((csv, "scored"), (bare, "bare"), (anonymous, "anonymous")):
            assert main(["estimate", str(path), "--out", str(tmp_path / out)]) == 0
        scored = {name: (tmp_path / "scored" / name).read_text()
                  for name in ("triplet.json", "laplace_curve.csv", "levy_density.csv")}
        truth_columns = {"triplet.json": 0, "laplace_curve.csv": 2, "levy_density.csv": 1}
        for out in ("bare", "anonymous"):
            for name, text in scored.items():
                lines = text.splitlines(keepends=True)
                if truth_columns[name]:
                    lines = [",".join(line.rstrip("\n").split(",")[:-truth_columns[name]])
                             + "\n" for line in lines]
                assert (tmp_path / out / name).read_text() == "".join(lines), (out, name)
            assert not {"mu_err", "lambda_err", "mise"} & _manifest(tmp_path / out)["config"].keys()
        assert (tmp_path / "bare" / "laplace_curve.csv").read_text().startswith(
            "v,re_Y,im_Y,abs_Y,denom_abs,ill_flag\n")
        assert (tmp_path / "bare" / "levy_density.csv").read_text().startswith(
            "x,nu_hat,nu_bar_hat,imag_residual\n")

    def test_non_finite_delta_exits_2(self, tmp_path, capsys):
        csv = _run_simulate(tmp_path / "sim", n=50)
        csv.with_suffix(".json").write_text('{"delta": 1e400}')
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--out", str(out)]) == 2
        assert "delta must be positive and finite, got inf" in capsys.readouterr().err
        man = _manifest(out)
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"

    def test_out_of_range_delta_names_the_sidecar(self, tmp_path):
        csv = _run_simulate(tmp_path / "sim", n=50)
        csv.with_suffix(".json").write_text('{"delta": -1}')
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--out", str(out)]) == 2
        assert _manifest(out)["error"]["message"] == (
            f"{csv.with_suffix('.json')}: delta must be positive and finite, got -1.0")

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
        assert _manifest(out)["config"]["estimation"] == dataclasses.asdict(EstimationConfig())

    def test_manifest_estimation_entry_reads_back(self, tmp_path):
        # a manifest's estimation entry is an EstimationConfig's fields
        csv = _run_simulate(tmp_path / "sim", n=50)
        out = tmp_path / "est"
        assert main(["estimate", str(csv), "--eps", "0.3", "--grid-m", "24", "--out", str(out)]) == 0
        entry = _manifest(out)["config"]["estimation"]
        assert EstimationConfig(**entry) == EstimationConfig(eps=0.3, m_fit=24, m_inv=24)

    def test_constant_sample_flagged_not_fatal(self, tmp_path):
        # constant observations c are the pure-drift degenerate case: the
        # estimate is exactly 1/c, and a small c puts the Mellin denominator
        # below the conditioning threshold 10/sqrt(n), so every fit point is flagged
        const = tmp_path / "const.csv"
        const.write_text("x\n" + "0.05\n" * 64)
        out = tmp_path / "est"
        rc = main(["estimate", str(const), "--out", str(out)])
        assert rc == 0
        triplet = json.loads((out / "triplet.json").read_text())
        assert triplet["mu_hat"] == pytest.approx(20.0, rel=1e-12)
        assert triplet["lambda_hat"] == pytest.approx(0.0, abs=1e-10)
        assert triplet["ill_count"] == 50


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _study_script(name):
    """The main() of scripts/run_<name>.py, loaded without running it."""
    return runpy.run_path(str(SCRIPTS / f"run_{name}.py"))["main"]


class TestExperiments:
    """The paper's two simulation experiments, which the study scripts build
    from `simulate` and `estimate` alone."""

    @staticmethod
    def _mirror_grid(lines, v_max):
        v = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert v[0] == -v_max and v[-1] == v_max
        np.testing.assert_array_equal(v, -v[::-1])  # exact mirror pairs

    def test_experiment1_outputs(self, tmp_path):
        assert _study_script("laplace_curve_study")(["-n", "400", "--root", str(tmp_path)]) == 0
        assert _manifest(tmp_path / "laplace_curve_sample")["seed"] == 1
        out = tmp_path / "laplace_curve_study"
        fig1 = (out / "laplace_curve.csv").read_text().splitlines()
        assert fig1[0] == "v,re_Y,im_Y,abs_Y,denom_abs,ill_flag,re_phi,im_phi"
        assert len(fig1) == 602  # 601 grid points on [-30, 30]
        self._mirror_grid(fig1, 30.0)
        config = _manifest(out)["config"]
        assert config["estimation"]["u0"] == 29.0
        assert {"mu_err", "lambda_err", "mise"} <= config.keys()

    def test_experiment2_outputs(self, tmp_path):
        assert _study_script("density_recovery_study")(["-n", "300", "--root", str(tmp_path)]) == 0
        fig3 = (tmp_path / "density_recovery_curve" / "laplace_curve.csv").read_text().splitlines()
        assert fig3[0] == "v,re_Y,im_Y,abs_Y,denom_abs,ill_flag,re_phi,im_phi"
        assert len(fig3) == 502  # 501 grid points on [-5, 5]
        self._mirror_grid(fig3, 5.0)
        out = tmp_path / "density_recovery_study"
        assert _manifest(out)["config"]["estimation"]["vn"] == 6.0
        assert _manifest(out)["config"]["estimation"]["eps"] == 0.5
        fig4 = np.genfromtxt(out / "levy_density.csv", delimiter=",", names=True)
        assert fig4.dtype.names == ("x", "nu_hat", "nu_bar_hat", "imag_residual", "nu_true")
        # the truncated-normal jumps c*Z have no mass at or below c*alpha
        edge = -np.log(0.5) * 0.1
        assert np.all(fig4["nu_true"][fig4["x"] <= edge] == 0.0)
        assert np.all(fig4["nu_true"][fig4["x"] > edge] > 0.0)

    @pytest.mark.parametrize("command", [["laplace_curve_study", "-n", "300"],
                                         ["density_recovery_study", "-n", "300"]])
    def test_figure_sample_is_sorted_in_place(self, tmp_path, monkeypatch, command):
        # run_algorithm2 sorts the sample it is given in place, so laplace_curve
        # sorts no copy of it
        seen = []

        def spy(module, name):
            func = getattr(module, name)

            def wrapper(sample, *args, **kwargs):
                seen.append((name, sample.values))
                return func(sample, *args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(gouest.cli, "run_algorithm2")
        spy(gouest.estimators, "laplace_curve")
        assert _study_script(command[0])([*command[1:], "--root", str(tmp_path)]) == 0
        estimates = 1 if command[0] == "laplace_curve_study" else 2
        assert [name for name, _ in seen] == ["run_algorithm2", "laplace_curve"] * estimates
        for (_, values), (_, passed_on) in zip(seen[::2], seen[1::2]):
            assert passed_on is values  # the reader's own array
            assert values.size == 300 and np.all(values[:-1] <= values[1:])

    def test_experiment2_deterministic(self, tmp_path):
        run = _study_script("density_recovery_study")
        assert run(["-n", "200", "--root", str(tmp_path / "a")]) == 0
        assert run(["-n", "200", "--root", str(tmp_path / "b")]) == 0
        for name in ("density_recovery_sample/sample.csv",
                     "density_recovery_curve/laplace_curve.csv",
                     "density_recovery_study/levy_density.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
            "slope_lambda",
            "slope_mise",
            "quartiles",
            "failures",
            "meta",
        }
        assert payload["n"] == [200, 400]

    def test_fractional_smoothness_is_recorded(self, tmp_path):
        out = tmp_path / "rs"
        rc = main(["rate-study", "--model", "cp_exp", "--n-ladder", "200,400", "--reps", "2",
                   "--s", "0.25", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["study"]["smoothness"] == 0.25

    def test_x_points_and_seed_flags_reach_the_study(self, tmp_path):
        out = tmp_path / "rs"
        rc = main(["rate-study", "--n-ladder", "200,400", "--reps", "2",
                   "--x-points", "31", "--seed", "5", "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "mise_report.json").read_text())["meta"]
        assert meta["x_points"] == 31
        assert meta["seed"] == 5
        assert _manifest(out)["config"]["seed"] == 5
        assert _manifest(out)["seed"] == 5

    def test_both_decay_parameters_exit_2(self, tmp_path):
        # each decay parameter selects its own bandwidth rule
        out = tmp_path / "rs"
        assert main(["rate-study", "--n-ladder", "200,400", "--reps", "2", "--beta", "0.4",
                     "--alpha-decay", "1.5708", "--out", str(out)]) == 2
        man = _manifest(out)
        assert man["error"]["type"] == "DomainError"
        assert "beta=0.4, alpha=1.5708" in man["error"]["message"]
        assert man["outputs"] == []

    def test_alpha_decay_alone_selects_the_exponential_rule(self, tmp_path):
        out = tmp_path / "rs"
        assert main(["rate-study", "--alpha-decay", "0.01", "--s", "0", "--n-ladder",
                     "8000,16000", "--reps", "2", "--x-points", "31", "--out", str(out)]) == 0
        rows = np.genfromtxt(out / "replicates.csv", delimiter=",", names=True)
        assert list(rows["vn"]) == [choose_vn_exponential(int(n), 0.01, 0.0) for n in rows["n"]]
        meta = json.loads((out / "mise_report.json").read_text())["meta"]
        assert meta["decay_class"] == "exponential"

    def test_driftless_model_without_a_decay_parameter_exits_2(self, tmp_path):
        # beta = jump_mass/mu has no value without drift
        out = tmp_path / "rs"
        assert main(["rate-study", "--model", "trunc_norm_cp", "--n-ladder", "200,400",
                     "--out", str(out)]) == 2
        message = _manifest(out)["error"]["message"]
        assert message.startswith("a driftless model needs --beta or --alpha-decay")

    def test_negative_beta_exits_2_before_any_draw(self, tmp_path):
        # at beta = -1.4 the rule would give V_n = n^(1/1.2), growing almost like n
        out = tmp_path / "rs"
        assert main(["rate-study", "--n-ladder", "200,400", "--reps", "2", "--beta", "-1.4",
                     "--out", str(out)]) == 2
        man = _manifest(out)
        assert man["error"]["type"] == "DomainError"
        assert man["error"]["message"] == "beta must be >= 0, got -1.4"
        assert man["outputs"] == []

    def test_study_defaults_are_the_library_defaults(self, tmp_path):
        out = tmp_path / "rs"
        assert main(["rate-study", "--n-ladder", "200,400", "--out", str(out)]) == 0
        config = _manifest(out)["config"]
        study = config["study"]
        assert study["replicates"] == RateStudyConfig.replicates
        assert study["smoothness"] == RateStudyConfig.smoothness
        # the rule follows from the decay parameter: beta, from the model
        assert "decay_class" not in study
        assert json.loads((out / "mise_report.json").read_text())["meta"]["decay_class"] == (
            "polynomial")
        # the estimation settings but vn, which the bandwidth rule sets per n
        settings = dataclasses.asdict(EstimationConfig())
        del settings["vn"]
        assert config["estimation"] == settings

    def test_ladder_entry_that_is_not_an_integer_exits_2(self, tmp_path):
        out = tmp_path / "rs"
        assert main(["rate-study", "--n-ladder", "1e3,1e4", "--out", str(out)]) == 2
        man = _manifest(out)
        assert man["error"]["type"] == "DomainError"
        assert "'n_ladder'" in man["error"]["message"]
        assert man["outputs"] == []
        assert man["seed"] == 0  # the seed the study would have drawn with

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
    """A setting out of its range exits 2 with a manifest, before anything is drawn."""

    def test_negative_seed(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--model", "cp_exp", "-n", "10", "--seed", "-1", "--out", str(out)])
        man = _manifest(out)
        assert rc == 2
        assert man["status"] == "error"
        assert man["error"]["type"] == "DomainError"
        assert man["error"]["message"].startswith("seed must be")
        assert man["outputs"] == []
        assert not (out / "sample.csv").exists()


@pytest.mark.parametrize("command, n", [
    (["simulate", "--model", "cp_exp", "-n", str(10**29)], 10**29),
    (["rate-study", "--n-ladder", f"200,{10**29}", "--reps", "2"], 10**29),
    (["simulate", "--model", "cp_exp", "-n", str(2**63 - 1)], 2**63 - 1),
], ids=["flag", "ladder", "intp-max"])
def test_oversized_sample_exits_2(tmp_path, command, n):
    """A sample size beyond what numpy can size as a float64 array is a
    DomainError naming it, with a manifest, not a traceback from the draw."""
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 2
    man = _manifest(out)
    assert man["status"] == "error"
    assert man["error"]["type"] == "DomainError"
    assert str(n) in man["error"]["message"]


@pytest.mark.parametrize("command", [
    ["simulate", "--model", "cp_exp", "-n", "4000000000000"],
    ["rate-study", "--model", "cp_exp", "--n-ladder", "200,400", "--reps", "2"],
], ids=["simulate", "rate-study"])
def test_draw_out_of_memory_exits_2(tmp_path, monkeypatch, command):
    """A sample size numpy can size but the machine cannot hold is an input
    error with a manifest; a rate study ends at the first such draw."""
    def out_of_memory(self, n, rng):
        raise MemoryError(f"Unable to allocate {8 * n} bytes")

    monkeypatch.setattr(gouest.models.CPExp, "stationary", out_of_memory)
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 2
    man = _manifest(out)
    assert man["status"] == "error"
    assert man["error"]["type"] == "MemoryError"
    assert man["outputs"] == []


def _reject_json_constant(name):
    raise AssertionError(f"JSON output holds the non-finite constant {name}")


@pytest.mark.parametrize("command, flags, field", [
    ("estimate", "--u0 inf", "u0"),
    ("estimate", "--vn inf", "vn"),
    ("estimate", "--x-max inf", "x_max"),
    # the 50 draws span |log x| <= 1.65, so past vn = 2.7e15 the phases
    # v log x keep no bits; at 1.7e308 that product overflows
    ("estimate", "--vn 1e16", "largest |v|"),
    ("estimate", "--vn 1e307", "largest |v|"),
    ("estimate", "--vn 1e308", "largest |v|"),
    ("estimate", "--vn 1.7e308", "largest |v|"),
    ("rate-study", "--beta inf", "beta"),
    ("rate-study", "--beta nan", "beta"),
    ("rate-study", "--alpha-decay inf", "alpha"),
    ("rate-study", "--alpha-decay nan", "alpha"),
    ("rate-study", "--u0 inf", "u0"),
    ("rate-study", "--mu inf", "mu"),
    ("rate-study", "--model trunc_norm_cp --alpha inf", "alpha"),
    ("simulate", "--model cp_exp --mu inf", "mu"),
    ("simulate", "--model cp_exp --a inf", "a"),
    ("simulate", "--model cp_exp --b inf", "b"),
    ("simulate", "--model trunc_norm_cp --alpha inf", "alpha"),
    ("simulate", "--model trunc_norm_cp --lam inf", "lam"),
    ("simulate", "--model trunc_norm_cp --q nan", "q"),
    ("simulate", "--model cp_exp --mu 1e-320", "a/mu"),
    ("simulate", "--model cp_exp --seed -1", "seed"),
    ("rate-study", "--seed -2", "seed"),
])
def test_non_finite_input_exits_2_naming_it(tmp_path, command, flags, field):
    """A non-finite setting, or a negative seed, is a DomainError that names
    it, and no JSON output holds Infinity or NaN."""
    if command == "estimate":
        argv = ["estimate", str(_run_simulate(tmp_path / "sim", n=50))]
    elif command == "simulate":
        argv = ["simulate", "-n", "50"]
    else:
        argv = ["rate-study", "--n-ladder", "200,400", "--reps", "2"]
    out = tmp_path / "out"
    assert main(argv + flags.split() + ["--out", str(out)]) == 2
    man = _manifest(out)
    assert man["error"]["type"] == "DomainError"
    assert man["error"]["message"].startswith(f"{field} must be")
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_json_constant)


@dataclasses.dataclass(frozen=True)
class Toy:
    """A model kind that shares ``mu`` with cp_exp and adds ``scale``."""

    kind: ClassVar[str] = "toy"
    keys: ClassVar[tuple] = ("mu", "scale")

    mu: float = dataclasses.field(metadata={"help": "drift"})
    scale: float = dataclasses.field(metadata={"help": "draw scale"})

    def stationary(self, n, rng):
        return self.scale * (1.0 + rng.random(n)) / self.mu, {"law": "toy"}


class TestModelTable:
    """A model is one class and one MODELS entry: the CLI builds its flags."""

    MODEL_FLAGS = ("--mu", "--a", "--b", "--lam", "--q", "--alpha")

    def test_registered_kind_simulates_through_generated_flags(self, tmp_path, monkeypatch):
        monkeypatch.setitem(gouest.models.MODELS, "toy", Toy)
        out = tmp_path / "sim"
        assert main(["simulate", "--model", "toy", "--mu", "2", "--scale", "3", "-n", "5",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "sample.json").read_text())
        assert meta["model"] == {"model": "toy", "mu": 2.0, "scale": 3.0}

    @pytest.mark.parametrize("command", ["simulate", "rate-study"])
    def test_each_model_flag_is_listed_once(self, monkeypatch, capsys, command):
        monkeypatch.setitem(gouest.models.MODELS, "toy", Toy)
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        listed = [line.split()[0] for line in help_text.splitlines() if line.startswith("  --")]
        for flag in self.MODEL_FLAGS + ("--scale",):
            assert listed.count(flag) == 1, flag
        assert "drift (cp_exp, toy)" in help_text

    def test_flag_value_goes_to_the_config_key(self, tmp_path):
        # --lam sets the key lambda; none of these values is a default
        out = tmp_path / "tn"
        assert main(["simulate", "--model", "trunc_norm_cp", "--lam", "1.3", "--q", "0.4",
                     "--alpha", "0.2", "-n", "20", "--out", str(out)]) == 0
        meta = json.loads((out / "sample.json").read_text())
        assert meta["model"] == {"model": "trunc_norm_cp", "lambda": 1.3, "q": 0.4, "alpha": 0.2}

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "--model", "cp_exp", "--lam", "5", "--q", "0.3"], "'lambda'"),
        (["rate-study", "--model", "trunc_norm_cp", "--mu", "1", "--beta", "0.4",
          "--n-ladder", "200,400", "--reps", "2"], "'mu'"),
    ], ids=["simulate-flag", "rate-study-flag"])
    def test_key_of_another_kind_exits_2(self, tmp_path, argv, key):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        man = _manifest(out)
        assert man["error"]["type"] == "DomainError"
        assert f"has no key {key}" in man["error"]["message"]
        assert man["outputs"] == []


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

    @pytest.mark.parametrize("command", ["experiment1", "experiment2"])
    def test_figure_commands_are_gone(self, tmp_path, command):
        # the figures come from simulate and estimate, through scripts/
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "sample.csv", "--seed", "1"],
        ["simulate", "--model", "cp_exp", "--config", "c.json"],
        ["estimate", "sample.csv", "--config", "c.json"],
        ["rate-study", "--config", "c.json"],
        ["rate-study", "--vn", "5"],
        ["estimate", "sample.csv", "--floor", "1"],
        ["rate-study", "--floor", "1"],
        ["estimate", "sample.csv", "--x-min", "0"],
        ["rate-study", "--x-min", "0"],
        ["rate-study", "--decay", "exponential"],
    ], ids=["estimate-seed", "simulate-config", "estimate-config", "rate-study-config",
            "rate-study-vn", "estimate-floor", "rate-study-floor", "estimate-x-min",
            "rate-study-x-min", "rate-study-decay"])
    def test_flag_a_command_ignores_is_rejected(self, tmp_path, argv):
        # estimate draws nothing, settings come from flags alone, rate-study
        # takes V_n from its bandwidth rule, the ill-conditioning threshold is
        # the fixed 10/sqrt(n), a Levy density's support starts at 0, and the
        # decay parameter given selects the bandwidth rule
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_rate_study_help_omits_vn(self, capsys):
        # rate-study takes V_n from its bandwidth rule and has no --vn
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

    def test_rate_study_defaults_are_the_paper_setting(self):
        # each default is read from its owner, without running a study
        args = build_parser().parse_args(["rate-study", "--out", "x"])
        assert args.model == "cp_exp"
        assert args.u0 == EstimationConfig.u0
        assert args.s == RateStudyConfig.smoothness
        assert _ladder(args.n_ladder) == RateStudyConfig.n_ladder

    def test_out_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rate-study"])


def _run_fresh(script, cwd):
    """Run a Python script in a fresh interpreter that imports this gouest."""
    src = str(Path(gouest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cp_exp_commands_run_without_scipy_special(tmp_path):
    # scipy.special loads only for trunc_norm_cp, so a fresh
    # interpreter estimates and studies cp_exp without it
    script = """
import sys
from gouest.cli import main
assert main(["simulate", "--model", "cp_exp", "-n", "500", "--out", "sim"]) == 0
assert main(["estimate", "sim/sample.csv", "--u0", "29", "--vn", "30", "--out", "est"]) == 0
assert main(["rate-study", "--model", "cp_exp", "--n-ladder", "200,400", "--reps", "2",
             "--out", "rs"]) == 0
assert "scipy.special" not in sys.modules
assert main(["simulate", "--model", "trunc_norm_cp", "-n", "500", "--out", "tn"]) == 0
assert "scipy.special" in sys.modules
"""
    _run_fresh(script, tmp_path)


def test_rate_study_does_not_load_scipy(tmp_path):
    script = """
import sys
from gouest.cli import main
assert main(["rate-study", "--model", "cp_exp", "--n-ladder", "200,400", "--reps", "2",
             "--out", "rs"]) == 0
assert "scipy" not in sys.modules
"""
    _run_fresh(script, tmp_path)


@pytest.mark.parametrize("argv", [["estimate", "sim/sample.csv", "--u0", "29", "--vn", "30"],
                                  ["simulate", "--model", "cp_exp", "-n", "2000"]],
                         ids=["estimate", "simulate"])
def test_estimate_does_not_load_numpy_ma(tmp_path, argv):
    # run_algorithm2 concatenates and sorts its two bands, and np.union1d,
    # which loads numpy.ma, has no part in it; nor has simulate's draw or write
    _run_simulate(tmp_path / "sim", n=500)
    script = f"""
import sys
from gouest.cli import main
before = "numpy.ma" in sys.modules
assert main({argv + ["--out", "out"]!r}) == 0
assert before or "numpy.ma" not in sys.modules
"""
    _run_fresh(script, tmp_path)
