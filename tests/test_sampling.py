"""Tests for stationary-law samplers and sample I/O.

Oracles:
  * Closed-form stationary laws: Gamma(b+1, 1/a) for zero drift and a
    scaled Beta for positive drift, checked through their first moments.
  * The series sampler's mean is checked against 1/phi(1) computed from the
    Laplace exponent (the first-moment identity for the exponential
    functional).
  * Every sampler's first three power moments are checked against
    E[A^k] = k! / (phi(1) ... phi(k)) from the Laplace exponent (Bertoin &
    Yor, Probab. Surveys 2:191, 2005).
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouest import (
    CPExp,
    DomainError,
    Sample,
    SeriesTruncationPolicy,
    TruncNormCP,
    TruncationError,
    laplace_exponent,
    make_generator,
    read_sample_csv,
    sample_beta_case,
    sample_gamma_case,
    sample_series_cp,
    sample_stationary,
    write_columns_csv,
    write_sample_csv,
)

EX2 = TruncNormCP(lam=1.0, alpha=0.5, q=0.1)


class TestSampleContainer:
    def test_validation(self):
        with pytest.raises(DomainError):
            Sample(values=np.array([1.0, -2.0]), delta=1.0, seed=0)
        with pytest.raises(DomainError):
            Sample(values=np.array([1.0, 0.0]), delta=1.0, seed=0)
        with pytest.raises(DomainError):
            Sample(values=np.array([1.0, 2.0]), delta=0.0, seed=0)
        with pytest.raises(DomainError):
            Sample(values=np.array([[1.0], [2.0]]), delta=1.0, seed=0)

    def test_n_property(self):
        s = Sample(values=np.array([1.0, 2.0, 3.0]), delta=1.0, seed=0)
        assert s.n == 3

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_rejected_as_such(self, bad):
        # checked before positivity, so the message names the real fault
        with pytest.raises(DomainError, match="non-finite"):
            Sample(values=np.array([0.5, bad, 0.2]))


class TestGenerators:
    def test_deterministic(self):
        a = make_generator(42, stream=3).standard_normal(5)
        b = make_generator(42, stream=3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = make_generator(42, stream=0).standard_normal(5)
        b = make_generator(42, stream=1).standard_normal(5)
        assert not np.array_equal(a, b)


class TestGammaCase:
    def test_moments(self):
        s = sample_gamma_case(200_000, a=0.7, b=1.8, seed=5)
        want_mean = (1.8 + 1.0) / 0.7  # Gamma(b+1, scale 1/a)
        sd = want_mean / math.sqrt(1.8 + 1.0)
        assert s.values.mean() == pytest.approx(want_mean, abs=4 * sd / math.sqrt(s.n))
        assert np.all(s.values > 0)

    def test_deterministic(self):
        a = sample_gamma_case(100, a=0.7, b=1.8, seed=11)
        b = sample_gamma_case(100, a=0.7, b=1.8, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_gamma_case(100, a=0.7, b=1.8, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_meta(self):
        s = sample_gamma_case(10, a=0.7, b=1.8, seed=0)
        assert s.meta["law"] == "gamma"
        assert s.meta["model"]["model"] == "cp_exp"


class TestBetaCase:
    def test_support_and_mean(self):
        s = sample_beta_case(200_000, a=0.7, b=1.8, mu=1.8, seed=5)
        assert np.all(s.values > 0)
        assert np.all(s.values <= 1.0 / 1.8 + 1e-12)
        # E[X] = (1/mu) * (b+1) / (b+1+a/mu)
        want = (1.0 / 1.8) * 2.8 / (2.8 + 0.7 / 1.8)
        assert s.values.mean() == pytest.approx(want, abs=0.003)

    def test_meta(self):
        s = sample_beta_case(10, a=0.7, b=1.8, mu=1.8, seed=0)
        assert s.meta["law"] == "beta"


class TestSeriesSampler:
    def test_mean_matches_laplace_exponent(self):
        s = sample_series_cp(200_000, EX2, seed=3)
        want = 1.0 / laplace_exponent(EX2, 1.0 + 0j).real  # E[A] = 1/phi(1)
        sd = s.values.std()
        assert s.values.mean() == pytest.approx(want, abs=4 * sd / math.sqrt(s.n))

    def test_positive_and_deterministic(self):
        a = sample_series_cp(500, EX2, seed=9)
        b = sample_series_cp(500, EX2, seed=9)
        assert np.all(a.values > 0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_truncation_stability(self):
        # Random variates are drawn in full-length blocks per term index, so
        # loosening the tail tolerance only drops trailing nonnegative terms:
        # the tighter run dominates exactly, and the dropped tail is small.
        # The stopping rule bounds the tail's conditional expectation by
        # eta * total, so the realized tail gets an order-of-magnitude slack.
        tight = sample_series_cp(400, EX2, policy=SeriesTruncationPolicy(eta=1e-12), seed=7)
        loose = sample_series_cp(400, EX2, policy=SeriesTruncationPolicy(eta=1e-6), seed=7)
        diff = tight.values - loose.values
        assert np.all(diff >= 0.0)
        assert np.all(diff <= 50e-6 * tight.values)

    def test_term_cap_is_inactive_when_loop_converges(self):
        a = sample_series_cp(200, EX2, policy=SeriesTruncationPolicy(eta=1e-8), seed=5)
        b = sample_series_cp(
            200, EX2, policy=SeriesTruncationPolicy(eta=1e-8, n_max=500), seed=5
        )
        np.testing.assert_array_equal(a.values, b.values)

    def test_term_cap_raises(self):
        with pytest.raises(TruncationError):
            sample_series_cp(
                10, EX2, policy=SeriesTruncationPolicy(eta=1e-12, n_max=2), seed=0
            )

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            SeriesTruncationPolicy(eta=0.0)
        with pytest.raises(DomainError):
            SeriesTruncationPolicy(eta=1.5)


class TestDispatch:
    def test_routes_by_model(self):
        g = sample_stationary(CPExp(a=0.7, b=1.8, mu=0.0), 10, seed=1)
        b = sample_stationary(CPExp(a=0.7, b=1.8, mu=1.8), 10, seed=1)
        s = sample_stationary(EX2, 10, seed=1)
        assert g.meta["law"] == "gamma"
        assert b.meta["law"] == "beta"
        assert s.meta["law"] == "series"

    def test_gamma_case_matches_direct(self):
        via = sample_stationary(CPExp(a=0.7, b=1.8, mu=0.0), 50, seed=2)
        direct = sample_gamma_case(50, a=0.7, b=1.8, seed=2)
        np.testing.assert_array_equal(via.values, direct.values)


class TestSampleIO:
    def test_round_trip(self, tmp_path):
        s = sample_stationary(CPExp(a=0.7, b=1.8, mu=1.8), 200, seed=13, delta=0.5)
        csv_path, meta_path = write_sample_csv(s, tmp_path / "sample.csv")
        assert meta_path.suffix == ".json"
        back = read_sample_csv(csv_path)
        np.testing.assert_array_equal(back.values, s.values)  # 17g round-trips exactly
        assert back.delta == s.delta
        assert back.seed == s.seed
        assert back.meta["model"] == s.meta["model"]

    def test_header_and_line_endings(self, tmp_path):
        s = sample_gamma_case(3, a=0.7, b=1.8, seed=0)
        csv_path, _ = write_sample_csv(s, tmp_path / "s.csv")
        raw = csv_path.read_bytes()
        assert raw.startswith(b"x\n")
        assert b"\r" not in raw
        assert raw.count(b"\n") == 4  # header + 3 rows

    def test_columns_csv_formats(self, tmp_path):
        path = write_columns_csv(tmp_path / "c.csv", {
            "a": np.array([0.1 + 0.2, -0.0]),
            "k": np.array([3, -4]),
            "flag": np.array([True, False]),
        })
        assert path.read_bytes() == b"a,k,flag\n0.30000000000000004,3,1\n-0,-4,0\n"
        with pytest.raises(DomainError):
            write_columns_csv(tmp_path / "d.csv", {"a": np.ones(2), "b": np.ones(3)})

    def test_read_without_metadata(self, tmp_path):
        p = tmp_path / "bare.csv"
        p.write_text("x\n1.5\n2.5\n")
        s = read_sample_csv(p)
        np.testing.assert_array_equal(s.values, [1.5, 2.5])

    def test_read_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x\n")
        with pytest.raises(DomainError):
            read_sample_csv(empty)
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\nnot-a-number\n")
        with pytest.raises(DomainError):
            read_sample_csv(bad)
        missing_header = tmp_path / "no_header.csv"
        missing_header.write_text("1.0\n2.0\n")
        with pytest.raises(DomainError):
            read_sample_csv(missing_header)

    @pytest.mark.parametrize("raw", [
        b"x\r\n1.5\r\n2.5\r\n",
        b"x\n1.5\n\n2.5\n\n",
        b"x\n1.5,7\n2.5,abc,9\n",
        b'"x"\n"1.5"\n2.5\n',
    ], ids=["crlf", "blank_lines_skipped", "extra_columns_ignored", "quoted"])
    def test_read_layouts(self, tmp_path, raw):
        p = tmp_path / "s.csv"
        p.write_bytes(raw)
        np.testing.assert_array_equal(read_sample_csv(p).values, [1.5, 2.5])

    @pytest.mark.parametrize("raw, message", [
        (b"x\n1.5\n# note\n2.5\n", "malformed row"),
        (b"x\n1.5\ninf\n", "non-finite"),
        (b"x\nnan\n", "non-finite"),
        (b"x\n", "no observations"),
        (b"x\r\n", "no observations"),
    ], ids=["comment_row", "inf", "nan", "header_only", "header_only_crlf"])
    def test_read_rejects_without_warning(self, tmp_path, raw, message):
        p = tmp_path / "s.csv"
        p.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                read_sample_csv(p)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("model", [
    CPExp(mu=1.8, a=0.7, b=0.2),                # Beta law
    CPExp(mu=0.0, a=0.7, b=1.8),                # Gamma law
    TruncNormCP(lam=1.0, q=0.5, alpha=0.1),     # series sampler
    EX2,
], ids=["beta", "gamma", "series", "series_q0.1"])
def test_power_moments_match_laplace_exponent(model, seed):
    # E[A^k] = k! / prod_{j<=k} phi(j) for k = 1..3, within 5 standard errors
    x = sample_stationary(model, 20_000, seed=seed).values
    phi = [laplace_exponent(model, complex(j)).real for j in (1, 2, 3)]
    for k in (1, 2, 3):
        want = math.factorial(k) / math.prod(phi[:k])
        xk = x**k
        assert abs(xk.mean() - want) <= 5.0 * xk.std(ddof=1) / math.sqrt(x.size)


# Parameters over which each sampler finishes quickly at n = 2e4.
_MOMENT_MODELS = {
    "beta": st.builds(CPExp, mu=st.floats(0.5, 3.0), a=st.floats(0.1, 2.0),
                      b=st.floats(0.1, 3.0)),
    "gamma": st.builds(CPExp, mu=st.just(0.0), a=st.floats(0.2, 3.0), b=st.floats(0.1, 3.0)),
    "series": st.builds(TruncNormCP, lam=st.floats(0.5, 3.0), q=st.floats(0.1, 0.7),
                        alpha=st.floats(0.05, 1.0)),
}


@pytest.mark.parametrize("law", list(_MOMENT_MODELS))
@settings(max_examples=40)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_power_moments_match_laplace_exponent_property(law, data, seed):
    # E[A^k] = k! / prod_{j<=k} phi(j) for k = 1..3 within 5 standard errors,
    # with phi(1), phi(2), phi(3) from one array call
    model = data.draw(_MOMENT_MODELS[law], label="model")
    x = sample_stationary(model, 20_000, seed=seed).values
    phi = laplace_exponent(model, np.array([1.0, 2.0, 3.0])).real
    for k in (1, 2, 3):
        want = math.factorial(k) / np.prod(phi[:k])
        xk = x**k
        assert abs(xk.mean() - want) <= 5.0 * xk.std(ddof=1) / math.sqrt(x.size)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 64))
def test_sampler_determinism_property(seed, n):
    a = sample_series_cp(n, EX2, seed=seed)
    b = sample_series_cp(n, EX2, seed=seed)
    np.testing.assert_array_equal(a.values, b.values)
