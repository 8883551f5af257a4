"""Tests for bandwidth rules, integrated-squared-error, and the rate study."""

import json
import math
import weakref

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import gouest.estimators
import gouest.rates
from gouest import (
    CPExp,
    DomainError,
    EstimationConfig,
    LevyDensityEstimate,
    PoleError,
    RateStudyConfig,
    TripletEstimate,
    choose_vn_exponential,
    choose_vn_polynomial,
    levy_density,
    mise,
    rate_study,
    run_algorithm2,
    sample_stationary,
    write_mise_report_json,
)
from gouest.rates import STUDY_X_POINTS, _log_log_slope

BETA_MODEL = CPExp(a=0.7, b=1.8, mu=1.8)


class TestBandwidthRules:
    def test_polynomial_values(self):
        # n^{1/(2 beta + 2 s + 3)}
        assert choose_vn_polynomial(10**5, 0.7 / 1.8, 0) == pytest.approx(
            21.0634, abs=1e-3
        )
        assert choose_vn_polynomial(1, 5.0, 0) == 1.0
        assert choose_vn_polynomial(10**6, 0.0, 0) == pytest.approx(100.0, rel=1e-12)

    def test_polynomial_monotonicity(self):
        vals = [choose_vn_polynomial(n, 0.4, 0) for n in (10**2, 10**3, 10**4, 10**5)]
        assert np.all(np.diff(vals) > 0)
        by_s = [choose_vn_polynomial(10**5, 0.4, s) for s in (0, 1, 2, 4)]
        assert np.all(np.diff(by_s) < 0)

    def test_polynomial_domain(self):
        with pytest.raises(DomainError):
            choose_vn_polynomial(0, 0.4, 0)
        # a negative beta would let V_n grow almost like n: 200^(1/1.2) at -1.4
        with pytest.raises(DomainError, match="^beta must be >= 0, got -1.4"):
            choose_vn_polynomial(200, -1.4, 0.5)
        with pytest.raises(DomainError):
            choose_vn_polynomial(100, -2.0, 0)
        # a nonpositive exponent denominator 2 beta + 2 s + 3 is rejected
        with pytest.raises(DomainError, match="^rate exponent denominator"):
            choose_vn_polynomial(100, 0.0, -2.0)

    def test_exponential_values(self):
        # log(n)/(2 alpha) - ((s+2)/alpha) loglog(n)
        got = choose_vn_exponential(10**6, math.pi / 2, 0)
        want = math.log(1e6) / math.pi - (2.0 / (math.pi / 2)) * math.log(
            math.log(1e6)
        )
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.0544, abs=1e-3)
        assert choose_vn_exponential(3, 10.0, 0) == pytest.approx(0.03612, abs=1e-4)

    def test_exponential_domain(self):
        # small n with strong decay and high smoothness gives a nonpositive
        # cutoff, which is rejected rather than clamped
        with pytest.raises(DomainError):
            choose_vn_exponential(3, 0.01, 5)
        with pytest.raises(DomainError):
            choose_vn_exponential(1, 1.0, 0)
        with pytest.raises(DomainError):
            choose_vn_exponential(100, -1.0, 0)


class TestRateStudyConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            RateStudyConfig(n_ladder=(100,), replicates=5, beta=0.4)
        with pytest.raises(DomainError):
            RateStudyConfig(n_ladder=(100, 50), replicates=5, beta=0.4)
        with pytest.raises(DomainError):
            RateStudyConfig(n_ladder=(100, 200), replicates=1, beta=0.4)
        with pytest.raises(DomainError, match="^give one of beta .* got beta=None, alpha=None$"):
            RateStudyConfig(n_ladder=(100, 200), replicates=5)  # neither given
        # a fractional count is an error, not truncated
        with pytest.raises(DomainError, match="^n_ladder must be a whole number"):
            RateStudyConfig(n_ladder=(200.9, 400.2), replicates=5, beta=0.4)
        with pytest.raises(DomainError, match="^replicates must be a whole number"):
            RateStudyConfig(n_ladder=(100, 200), replicates=2.5, beta=0.4)

    # the parameter that selects each rule, at a valid value
    RULE_PARAMS = {"polynomial": {"beta": 0.4}, "exponential": {"alpha": 1.0}}

    @pytest.mark.parametrize("decay", ["polynomial", "exponential"])
    @pytest.mark.parametrize("field", ["beta", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_decay_parameter_is_rejected_by_name(self, decay, field, value):
        # a given beta or alpha must be finite, alone or beside the other
        # rule's parameter: the finiteness check comes before the one-of check
        decay_params = {**self.RULE_PARAMS[decay], field: value}
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            RateStudyConfig(n_ladder=(100, 200), replicates=5, **decay_params)

    @pytest.mark.parametrize("decay, unread", [("polynomial", "alpha"), ("exponential", "beta")])
    def test_decay_parameter_the_rule_does_not_read_is_rejected(self, decay, unread):
        # each parameter selects its own rule, so a second one, even a zero
        # one, is a parameter the selected rule would not read
        decay_params = {**self.RULE_PARAMS[decay], unread: 0.0}
        beta, alpha = decay_params["beta"], decay_params["alpha"]
        with pytest.raises(DomainError, match=r"^give one of beta \(polynomial decay\) and "
                           rf"alpha \(exponential decay\), got beta={beta}, alpha={alpha}$"):
            RateStudyConfig(n_ladder=(100, 200), replicates=5, **decay_params)

    def test_bandwidth_dispatch(self):
        poly = RateStudyConfig(n_ladder=(100, 200), replicates=5, beta=0.4)
        # at the default smoothness s = 0.5
        assert poly.bandwidth(10**5) == choose_vn_polynomial(10**5, 0.4, 0.5)
        negative = RateStudyConfig(n_ladder=(100, 200), replicates=5, beta=-1.4)
        with pytest.raises(DomainError, match="^beta must be >= 0"):
            negative.bandwidth(100)
        # alpha alone selects the exponential rule
        expo = RateStudyConfig(n_ladder=(10**5, 10**6), replicates=5, alpha=math.pi / 2)
        assert expo.bandwidth(10**6) == choose_vn_exponential(10**6, math.pi / 2, 0.5)
        assert (poly.decay_class, expo.decay_class) == ("polynomial", "exponential")

    def test_fractional_smoothness(self):
        # s is a float: a tilted density with a jump has s near 1/2, and an
        # integer s gives the same bandwidth bit for bit as before
        half = RateStudyConfig(n_ladder=(100, 200), replicates=5, beta=0.4, smoothness=0.5)
        assert half.bandwidth(10**5) == 1e5 ** (1.0 / (2 * 0.4 + 2 * 0.5 + 3))
        whole = RateStudyConfig(n_ladder=(100, 200), replicates=5, beta=0.4, smoothness=1)
        assert isinstance(whole.smoothness, float)
        assert whole.bandwidth(10**5) == choose_vn_polynomial(10**5, 0.4, 1)
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                RateStudyConfig(n_ladder=(100, 200), replicates=5, beta=0.4, smoothness=bad)


class TestMise:
    """mise scores the estimate's nu_bar_hat against e^{-u0 x} nu(x) of the
    model, with u0 from the estimate's config, over the estimate's grid."""

    def _estimate_with_offset(self, offset, x_max=1.0, u0=1.0):
        cfg = EstimationConfig(u0=u0)
        x = np.linspace(0.0, x_max, 101)
        tilted = np.exp(-cfg.u0 * x) * levy_density(BETA_MODEL, x) + offset
        return LevyDensityEstimate(
            x=x,
            nu_hat=tilted * np.exp(cfg.u0 * x),
            nu_bar_hat=tilted,
            imag_residual=np.zeros_like(x),
            config=cfg,
        )

    def test_exact_estimate_scores_zero(self):
        est = self._estimate_with_offset(0.0)
        assert mise(est, BETA_MODEL) == 0.0

    def test_unit_offset_scores_one(self):
        est = self._estimate_with_offset(1.0)
        assert mise(est, BETA_MODEL) == pytest.approx(1.0, rel=1e-12)

    def test_subinterval(self):
        # the estimate's grid is the range: [0, 0.5] scores half of [0, 1]
        est = self._estimate_with_offset(1.0, x_max=0.5)
        assert mise(est, BETA_MODEL) == pytest.approx(0.5, rel=1e-12)

    def test_u0_comes_from_the_estimate_config(self):
        est = self._estimate_with_offset(0.0, u0=29.0)
        assert mise(est, BETA_MODEL) == 0.0
        est.config = EstimationConfig(u0=1.0)
        assert mise(est, BETA_MODEL) > 0.0


class TestRateStudy:
    STUDY = RateStudyConfig(n_ladder=(200, 400), replicates=3, beta=0.7 / 1.8)
    TEMPLATE = EstimationConfig(u0=29.0, vn=30.0)

    def test_report_shape(self):
        report = rate_study(self.STUDY, BETA_MODEL, self.TEMPLATE, seed=0, x_grid=np.linspace(0.0, 3.0, 41))
        assert report.n == [200, 400]
        assert len(report.median_sq_err_mu) == 2
        assert len(report.median_mise) == 2
        assert report.failures == []
        assert np.isfinite(report.slope_mu)
        assert all(m >= 0 for m in report.median_sq_err_mu)

    def test_deterministic(self):
        a = rate_study(self.STUDY, BETA_MODEL, self.TEMPLATE, seed=3)
        b = rate_study(self.STUDY, BETA_MODEL, self.TEMPLATE, seed=3)
        assert a.median_sq_err_mu == b.median_sq_err_mu

    def test_constant_estimator_has_flat_errors(self, monkeypatch):
        # a sample-independent estimator must show zero slope across n
        def const(curve, config):
            return TripletEstimate(
                mu_hat=2.0, lambda_hat=1.0, ill_count=0, n=curve.n, config=config
            )

        monkeypatch.setattr(gouest.estimators, "run_algorithm1", const)
        report = rate_study(
            self.STUDY, BETA_MODEL, self.TEMPLATE, seed=0
        )
        assert report.slope_mu == pytest.approx(0.0, abs=1e-12)
        assert report.slope_lambda == pytest.approx(0.0, abs=1e-12)
        for med in report.median_sq_err_mu:
            assert med == pytest.approx((2.0 - 1.8) ** 2, rel=1e-12)

    def test_one_fit_per_replicate(self, monkeypatch):
        # one curve per replicate: the density pipeline computes the fit band
        # and the symmetric band in the same pass over the sample
        calls = []
        original = gouest.estimators.laplace_curve

        def counting(*args, **kwargs):
            calls.append(args[2].size)
            return original(*args, **kwargs)

        monkeypatch.setattr(gouest.estimators, "laplace_curve", counting)
        report = rate_study(self.STUDY, BETA_MODEL, self.TEMPLATE, seed=0,
                            x_grid=np.linspace(0.0, 3.0, 21))
        replicates = len(self.STUDY.n_ladder) * self.STUDY.replicates
        assert report.failures == []
        assert len(calls) == replicates
        assert [row[:2] for row in report.rows] == [
            (n, r) for n in self.STUDY.n_ladder for r in range(self.STUDY.replicates)
        ]

    def test_json_schema_is_pinned(self, tmp_path):
        report = rate_study(
            self.STUDY, BETA_MODEL, self.TEMPLATE, seed=0
        )
        path = write_mise_report_json(report, tmp_path / "report.json")
        payload = json.loads(path.read_text())
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

    def test_json_keeps_quartiles_failures_and_meta(self, tmp_path):
        report = rate_study(self.STUDY, BETA_MODEL, self.TEMPLATE, seed=0, x_grid=np.linspace(0.0, 3.0, 21))
        report.failures.append({"n": 400, "replicate": 9, "error": "PoleError",
                                "message": "denominator vanished"})
        payload = json.loads(
            write_mise_report_json(report, tmp_path / "report.json").read_text()
        )
        assert payload["quartiles"] == report.quartiles
        assert len(payload["quartiles"]["mise"]) == 2
        assert payload["failures"] == report.failures
        assert payload["meta"] == report.meta
        assert payload["meta"]["x_points"] == 21
        assert payload["median_mise"] == report.median_mise

    def test_default_grid_scores_mise(self):
        # without an x-grid the study scores MISE on its default grid
        report = rate_study(self.STUDY, BETA_MODEL, self.TEMPLATE, seed=0)
        assert report.meta["x_range"] == [0.0, 3.0]
        assert report.meta["x_points"] == STUDY_X_POINTS
        assert len(report.median_mise) == len(self.STUDY.n_ladder)
        assert all(np.isfinite(m) for m in report.median_mise)
        assert np.isfinite(report.slope_mise)

    def test_overflowing_inversion_fails_the_replicates(self):
        # e^{29 x} overflows on [0, 30]: each replicate fails with a
        # DomainError, not with inf in the MISE
        with pytest.raises(DomainError, match="all 3 replicates failed at n=200"):
            rate_study(self.STUDY, BETA_MODEL, self.TEMPLATE, seed=0,
                       x_grid=np.linspace(0.0, 30.0, 31))


class TestReplicateFailures:
    """A replicate whose fit or score raises is recorded in ``failures`` and
    left out of ``rows`` and of every median and quartile; the others still
    give them."""

    STUDY = RateStudyConfig(n_ladder=(200, 400), replicates=4, beta=0.7 / 1.8)
    X_GRID = np.linspace(0.0, 3.0, 21)

    def _study(self, monkeypatch, fail_fit=(), fail_mise=(), x_grid=X_GRID):
        """rate_study with PoleError raised by the fit of the (n, replicate)
        pairs in fail_fit and by the MISE of those in fail_mise; returns the
        report and each scored replicate's MISE."""
        current, scores = {}, {}

        def drawing(model, n, seed, stream):
            current["key"] = (n, stream % self.STUDY.replicates)
            return sample_stationary(model, n, seed=seed, stream=stream)

        def failing(fit):
            def wrapped(*args, **kwargs):
                if current["key"] in fail_fit:
                    raise PoleError("denominator vanished")
                return fit(*args, **kwargs)
            return wrapped

        def scoring(*args, **kwargs):
            if current["key"] in fail_mise:
                raise PoleError("truth has a pole")
            scores[current["key"]] = mise(*args, **kwargs)
            return scores[current["key"]]

        monkeypatch.setattr(gouest.rates, "sample_stationary", drawing)
        monkeypatch.setattr(gouest.rates, "run_algorithm2", failing(run_algorithm2))
        monkeypatch.setattr(gouest.rates, "mise", scoring)
        report = rate_study(self.STUDY, BETA_MODEL, TestRateStudy.TEMPLATE, seed=0,
                            x_grid=x_grid)
        return report, scores

    @staticmethod
    def _summary(values):
        return float(np.median(values)), [float(q) for q in np.percentile(values, [25, 75])]

    @pytest.mark.parametrize("x_grid", [X_GRID, None], ids=["mise", "default-grid"])
    def test_failed_replicates_are_recorded_and_left_out(self, monkeypatch, x_grid):
        clean, _ = self._study(monkeypatch, x_grid=x_grid)
        failed_fit = {(200, 1), (400, 0), (400, 3)}
        failed_mise = {(200, 2)}
        report, scores = self._study(monkeypatch, failed_fit, failed_mise, x_grid=x_grid)

        assert sorted((f["n"], f["replicate"], f["error"]) for f in report.failures) == sorted(
            (n, r, "PoleError") for n, r in failed_fit | failed_mise)
        assert report.rows == [row for row in clean.rows
                               if row[:2] not in failed_fit | failed_mise]
        for i, n in enumerate(self.STUDY.n_ladder):
            rows = [row for row in report.rows if row[0] == n]
            assert len(rows) >= 2
            for name, key, truth in (("mu", 3, 1.8), ("lambda", 4, 0.7)):
                median, quartiles = self._summary([(row[key] - truth) ** 2 for row in rows])
                assert getattr(report, f"median_sq_err_{name}")[i] == median
                assert report.quartiles[f"sq_err_{name}"][i] == quartiles
            # each row ends with its replicate's score
            assert [row[6] for row in rows] == [scores[row[:2]] for row in rows]
            median, quartiles = self._summary([row[6] for row in rows])
            assert report.median_mise[i] == median
            assert report.quartiles["mise"][i] == quartiles

    def test_every_replicate_failing_at_one_n_is_fatal(self, monkeypatch):
        every = {(400, r) for r in range(self.STUDY.replicates)}
        with pytest.raises(DomainError, match="all 4 replicates failed at n=400"):
            self._study(monkeypatch, fail_fit=every - {(400, 1)}, fail_mise={(400, 1)})


class TestOneDrawAlive:
    STUDY = RateStudyConfig(n_ladder=(200, 400), replicates=3, beta=0.7 / 1.8)

    def test_each_draw_is_released_before_the_next(self, monkeypatch):
        # replicate r's sample is gone when replicate r + 1 is drawn, after a
        # failed replicate as after a scored one
        drawn, alive_at_draw = [], []

        def drawing(model, n, seed, stream):
            alive_at_draw.append([ref() is not None for ref in drawn])
            sample = sample_stationary(model, n, seed=seed, stream=stream)
            drawn.append(weakref.ref(sample.values))
            return sample

        def failing_second(sample, config, x_grid):
            if len(drawn) % self.STUDY.replicates == 2:
                raise PoleError("denominator vanished")
            return run_algorithm2(sample, config, x_grid)

        monkeypatch.setattr(gouest.rates, "sample_stationary", drawing)
        monkeypatch.setattr(gouest.rates, "run_algorithm2", failing_second)
        report = rate_study(self.STUDY, BETA_MODEL, TestRateStudy.TEMPLATE, seed=0,
                            x_grid=np.linspace(0.0, 3.0, 21))
        assert len(report.failures) == 2
        assert len(drawn) == 6
        assert alive_at_draw == [[False] * r for r in range(6)]


@st.composite
def _ladders(draw):
    """2-8 increasing sample sizes, each 1.5 to 10 times the last, and a
    positive median for each."""
    size = draw(st.integers(2, 8))
    ratios = draw(st.lists(st.floats(1.5, 10.0), min_size=size - 1, max_size=size - 1))
    n = np.round(draw(st.integers(10, 10_000)) * np.cumprod([1.0] + ratios))
    medians = draw(st.lists(st.floats(1e-30, 1e10), min_size=size, max_size=size))
    return n, medians


@given(ladder=_ladders())
def test_log_log_slope_matches_polyfit_property(ladder):
    n, medians = ladder
    want = np.polyfit(np.log(n), np.log(medians), 1)[0]
    assert abs(_log_log_slope(n, medians) - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.inf, np.nan])
def test_log_log_slope_needs_positive_finite_medians(bad):
    assert math.isnan(_log_log_slope([100, 1000, 10_000], [1e-2, bad, 1e-4]))


class TestNoLapackOrScipyOnTheRunPath:
    """The slope is closed form and the Taylor factorials a table, so a study
    and the density pipeline finish with the LAPACK fits and scipy's
    factorial made to raise."""

    @pytest.fixture(autouse=True)
    def forbidden(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("called on the run path")

        monkeypatch.setattr(np, "polyfit", fail)
        monkeypatch.setattr(np.linalg, "lstsq", fail)
        monkeypatch.setattr(scipy.special, "factorial", fail)

    @pytest.mark.parametrize("x_grid", [np.linspace(0.0, 3.0, 21), None],
                             ids=["mise", "default-grid"])
    def test_rate_study(self, x_grid):
        report = rate_study(TestRateStudy.STUDY, BETA_MODEL, TestRateStudy.TEMPLATE, seed=0,
                            x_grid=x_grid)
        assert report.failures == [] and np.isfinite(report.slope_mu)
        assert np.isfinite(report.slope_mise)

    def test_run_algorithm2(self):
        sample = sample_stationary(BETA_MODEL, 2000, seed=1)
        estimate = run_algorithm2(sample, TestRateStudy.TEMPLATE, np.linspace(0.0, 3.0, 21))
        assert np.all(np.isfinite(estimate.nu_bar_hat))
