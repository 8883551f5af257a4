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

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gouest import (
    CPExp,
    MODELS,
    DomainError,
    Sample,
    TruncNormCP,
    TruncationError,
    laplace_exponent,
    make_generator,
    read_sample_csv,
    sample_stationary,
    write_columns_csv,
    write_sample_csv,
)
import gouest.models
import gouest.sampling
from gouest.sampling import _CSV_CHUNK_BYTES, _loadtxt_rows, _read_decimal_rows

EX2 = TruncNormCP(lam=1.0, alpha=0.5, q=0.1)
GAMMA_MODEL = CPExp(a=0.7, b=1.8, mu=0.0)
BETA_MODEL = CPExp(a=0.7, b=1.8, mu=1.8)
EXAMPLE_MODELS = {"cp_exp": BETA_MODEL, "trunc_norm_cp": EX2}  # one per kind in MODELS


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

    @pytest.mark.parametrize("delta", [float("1e400"), np.inf, np.nan, -np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(DomainError, match="delta must be positive and finite"):
            Sample(values=np.array([0.5, 0.2]), delta=delta)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_rejected_as_such(self, bad):
        # checked before positivity, so the message names the real fault
        with pytest.raises(DomainError, match="non-finite"):
            Sample(values=np.array([0.5, bad, 0.2]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_named_among_nonpositive_values(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            Sample(values=np.array([-1.0, bad, 0.0]))


class TestGenerators:
    def test_deterministic(self):
        a = make_generator(42, stream=3).standard_normal(5)
        b = make_generator(42, stream=3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = make_generator(42, stream=0).standard_normal(5)
        b = make_generator(42, stream=1).standard_normal(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream, name", [(-1, 0, "seed"), (0, -1, "stream")])
    def test_negative_is_a_domain_error_naming_it(self, seed, stream, name):
        with pytest.raises(DomainError, match=f"^{name} must be a nonnegative integer, got -1"):
            make_generator(seed, stream)


class TestGammaCase:
    def test_moments(self):
        s = sample_stationary(GAMMA_MODEL, 200_000, seed=5)
        want_mean = (1.8 + 1.0) / 0.7  # Gamma(b+1, scale 1/a)
        sd = want_mean / math.sqrt(1.8 + 1.0)
        assert s.values.mean() == pytest.approx(want_mean, abs=4 * sd / math.sqrt(s.n))
        assert np.all(s.values > 0)

    def test_deterministic(self):
        a = sample_stationary(GAMMA_MODEL, 100, seed=11)
        b = sample_stationary(GAMMA_MODEL, 100, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_stationary(GAMMA_MODEL, 100, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_meta(self):
        s = sample_stationary(GAMMA_MODEL, 10, seed=0)
        assert s.meta["law"] == "gamma"
        assert s.meta["model"]["model"] == "cp_exp"


class TestBetaCase:
    def test_support_and_mean(self):
        s = sample_stationary(BETA_MODEL, 200_000, seed=5)
        assert np.all(s.values > 0)
        assert np.all(s.values <= 1.0 / 1.8 + 1e-12)
        # E[X] = (1/mu) * (b+1) / (b+1+a/mu)
        want = (1.0 / 1.8) * 2.8 / (2.8 + 0.7 / 1.8)
        assert s.values.mean() == pytest.approx(want, abs=0.003)

    def test_meta(self):
        s = sample_stationary(BETA_MODEL, 10, seed=0)
        assert s.meta["law"] == "beta"


class TestSeriesSampler:
    def test_mean_matches_laplace_exponent(self):
        s = sample_stationary(EX2, 200_000, seed=3)
        want = 1.0 / laplace_exponent(EX2, 1.0 + 0j).real  # E[A] = 1/phi(1)
        sd = s.values.std()
        assert s.values.mean() == pytest.approx(want, abs=4 * sd / math.sqrt(s.n))

    def test_positive_and_deterministic(self):
        a = sample_stationary(EX2, 500, seed=9)
        b = sample_stationary(EX2, 500, seed=9)
        assert np.all(a.values > 0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_truncation_stability(self, monkeypatch):
        # Random variates are drawn in full-length blocks per term index, so
        # loosening the tail tolerance only drops trailing nonnegative terms:
        # the tighter run dominates exactly, and the dropped tail is small.
        # The stopping rule bounds the tail's conditional expectation by
        # eta * total, so the realized tail gets an order-of-magnitude slack.
        tight = sample_stationary(EX2, 400, seed=7)
        monkeypatch.setattr(gouest.models, "_SERIES_ETA", 1e-6)
        loose = sample_stationary(EX2, 400, seed=7)
        diff = tight.values - loose.values
        assert np.all(diff >= 0.0)
        assert np.all(diff <= 50e-6 * tight.values)

    def test_term_cap_is_inactive_when_loop_converges(self, monkeypatch):
        monkeypatch.setattr(gouest.models, "_SERIES_ETA", 1e-8)
        a = sample_stationary(EX2, 200, seed=5)
        monkeypatch.setattr(gouest.models, "_SERIES_MAX_TERMS", 500)
        b = sample_stationary(EX2, 200, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(gouest.models, "_SERIES_MAX_TERMS", 2)
        with pytest.raises(TruncationError):
            sample_stationary(EX2, 10, seed=0)

    def test_cdf_at_one_is_a_domain_error_naming_alpha(self):
        # past alpha ~ 8.29 ndtr(alpha) rounds to 1: every height would be inf
        with pytest.raises(DomainError, match="alpha must be below"):
            sample_stationary(TruncNormCP(lam=1.0, q=0.5, alpha=9.0), 10)


class TestDispatch:
    def test_routes_by_model(self):
        g = sample_stationary(CPExp(a=0.7, b=1.8, mu=0.0), 10, seed=1)
        b = sample_stationary(CPExp(a=0.7, b=1.8, mu=1.8), 10, seed=1)
        s = sample_stationary(EX2, 10, seed=1)
        assert g.meta["law"] == "gamma"
        assert b.meta["law"] == "beta"
        assert s.meta["law"] == "series"

    @pytest.mark.parametrize("model, draw", [
        (GAMMA_MODEL, lambda m, rng, n: rng.gamma(m.b + 1.0, 1.0 / m.a, n)),
        (BETA_MODEL, lambda m, rng, n: np.maximum(rng.beta(m.b + 1.0, m.a / m.mu, n),
                                                  np.finfo(float).tiny) / m.mu),
    ], ids=["gamma", "beta"])
    def test_closed_form_laws_pin_rng_calls(self, model, draw):
        # the same generator calls in the same order as the direct draw, bitwise
        got = sample_stationary(model, 50, seed=2, stream=7).values
        want = draw(model, make_generator(2, 7), 50)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", [EX2, TruncNormCP(lam=1.0, q=0.5, alpha=0.1)],
                             ids=["ex2", "reference"])
    def test_series_law_pins_rng_calls(self, model):
        # per term: Exp(lam) gaps, then one uniform per draw, the height by
        # inverse cdf on (alpha, inf); a draw stops once its tail bound
        # q^{S_k} / (lam (1 - q^alpha)) is below 1e-12 times its partial sum
        rng, n = make_generator(2, 7), 50
        cdf = special.ndtr(model.alpha)
        sf = 1.0 - cdf
        tail_const = 1.0 / (model.lam * (1.0 - model.q**model.alpha))
        total, log_q_s, active = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
        while active.any():
            gaps = rng.exponential(1.0 / model.lam, n)
            u = rng.random(n)
            total = np.where(active, total + np.exp(log_q_s) * gaps, total)
            heights = special.ndtri(cdf + u * sf)
            log_q_s = np.where(active, log_q_s + np.log(model.q) * heights, log_q_s)
            active &= np.exp(log_q_s) * tail_const >= 1e-12 * total
        got = sample_stationary(model, n, seed=2, stream=7).values
        assert got.tobytes() == total.tobytes()

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_empty_sample_rejected(self, kind):
        with pytest.raises(DomainError, match="n >= 1"):
            sample_stationary(EXAMPLE_MODELS[kind], 0)


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
        s = sample_stationary(GAMMA_MODEL, 3, seed=0)
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
        (b"x\n\n", "no observations"),
    ], ids=["comment_row", "inf", "nan", "header_only", "header_only_crlf", "blank_row"])
    def test_read_rejects_without_warning(self, tmp_path, raw, message):
        p = tmp_path / "s.csv"
        p.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                read_sample_csv(p)


def _decimal_row(digits: int, point: int, zeros: int = 0) -> str:
    """The integer's digits after extra leading zeros, with a dot `point`
    places from the right: '3.' when point is 0, '.5' when no digit is left
    of the dot."""
    text = "0" * zeros + str(digits).rjust(point, "0")
    return text[:len(text) - point] + "." + text[len(text) - point:]


def _tie_row(significand: int, exponent: int, point_zeros: int) -> str:
    """The exact midpoint (significand + 1/2) * 2^exponent of two adjacent
    floats, for significand in [2^52, 2^53): an integer (with `point_zeros`
    zeros after the dot), or 1-3 decimal places when exponent <= 0."""
    odd = 2 * significand + 1
    if exponent >= 1:
        return _decimal_row(odd * 2 ** (exponent - 1) * 10**point_zeros, point_zeros)
    return _decimal_row(odd * 5 ** (1 - exponent), 1 - exponent)


def _near_tie_row(k: int, sigma: int, pick: int) -> str:
    """A decimal D / 10^k lying |sigma| / (2 * 5^k) units in the last place
    from a rounding midpoint, for a value in the binade of 2^61 / 10^k; in that
    binade no decimal with k places that is not a midpoint gets closer than
    |sigma| = 1."""
    f = 153 - (2**161 // 10**k).bit_length()  # values near 2^61 / 10^k have ulp 2^-f
    mod = 2 ** (f + 1 - k)
    odd = -sigma * pow(5, -k, mod) % mod  # odd * 5^k + sigma = 0 (mod 2^(f+1-k))
    odd += (2**53 // mod + 1 + pick % (2**53 // mod - 1)) * mod  # into [2^53, 2^54)
    return _decimal_row((odd * 5**k + sigma) // mod, k)


_POSITIVE_DOUBLES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_ROWS = st.one_of(
    _POSITIVE_DOUBLES.map("%.17g".__mod__),
    _POSITIVE_DOUBLES.map(repr),
    st.builds(lambda x, n: "%.*f" % (n, x), _POSITIVE_DOUBLES, st.integers(0, 25)),
    st.builds(lambda x, n: "%.*e" % (n, x), _POSITIVE_DOUBLES, st.integers(0, 20)),
    st.integers(1, 10**25).map(str),
    st.builds(_decimal_row, st.integers(0, 10**25), st.integers(0, 25), st.integers(0, 3)),
    st.builds(_tie_row, st.integers(2**52, 2**53 - 1), st.integers(-2, 5), st.integers(0, 1)),
    st.builds(_near_tie_row, st.integers(4, 22), st.sampled_from([-3, -1, 1, 3]),
              st.integers(0, 2**20)),
).filter(lambda row: 0.0 < float(row) < math.inf)


@given(rows=st.lists(_ROWS, min_size=1, max_size=40))
def test_read_values_are_float_of_each_row_property(tmp_path_factory, rows):
    # every row shape the exact reader takes, and the rows it hands to float()
    p = tmp_path_factory.mktemp("rows") / "s.csv"
    p.write_text("x\n" + "\n".join(rows) + "\n")
    assert _read_decimal_rows(p) is not None  # no row needs the general reader
    got = read_sample_csv(p).values
    want = np.array([float(r) for r in rows])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestChunkedReader:
    """Files of more than one read chunk, against float() of each row and
    against the general reader."""

    @staticmethod
    def _rows(n, seed=0):
        rng = make_generator(seed)
        return ["%.17g" % x for x in (rng.random(n) / 1.8).tolist()]

    @staticmethod
    def _write(path, rows, end=b"\n"):
        path.write_bytes(b"x\n" + "\n".join(rows).encode() + end)
        return path

    @pytest.mark.parametrize("end", [b"\n", b""], ids=["final_lf", "no_final_lf"])
    def test_rows_straddle_chunk_boundaries(self, tmp_path, end):
        rows = self._rows(30_000)
        rows[7] = "1.2345678901234567e-05"  # exponent rows in the first and last chunk
        rows[-3] = "9.8765432109876543E-06"
        p = self._write(tmp_path / "s.csv", rows, end)
        raw = p.read_bytes()
        assert len(raw) > 2 + 2 * _CSV_CHUNK_BYTES
        for boundary in (2 + _CSV_CHUNK_BYTES, 2 + 2 * _CSV_CHUNK_BYTES):
            assert b"\n" not in raw[boundary - 1:boundary + 1]  # a row spans it
        assert _read_decimal_rows(p) is not None
        got = read_sample_csv(p).values
        np.testing.assert_array_equal(got, [float(r) for r in rows])

    def test_last_row_without_lf(self, tmp_path):
        p = self._write(tmp_path / "s.csv", ["1.5", "2.5e-3", "0.75"], end=b"")
        np.testing.assert_array_equal(_read_decimal_rows(p), [1.5, 2.5e-3, 0.75])
        np.testing.assert_array_equal(read_sample_csv(p).values, [1.5, 2.5e-3, 0.75])

    @pytest.mark.parametrize("row", ["0.5\r", '"0.5"', "+0.5", "0.5,1", ""],
                             ids=["crlf", "quoted", "sign", "extra_column", "blank"])
    def test_other_layouts_fall_back_with_equal_values(self, tmp_path, row):
        rows = self._rows(30_000, seed=1)
        rows[-2] = row
        p = self._write(tmp_path / "s.csv", rows)
        assert _read_decimal_rows(p) is None
        got = read_sample_csv(p).values
        np.testing.assert_array_equal(got, _loadtxt_rows(p))
        assert got.size == len(rows) - (row == "")  # loadtxt skips a blank row

    @pytest.mark.parametrize("row", ["# note", "1.5.2", ".", "1e", "0.5-1"],
                             ids=["comment", "two_dots", "dot", "bare_exponent", "inner_sign"])
    def test_other_layouts_fall_back_with_equal_errors(self, tmp_path, row):
        rows = self._rows(30_000, seed=2)
        rows[-2] = row
        p = self._write(tmp_path / "s.csv", rows)
        assert _read_decimal_rows(p) is None
        with pytest.raises(DomainError) as general:
            _loadtxt_rows(p)
        with pytest.raises(DomainError) as exact:
            read_sample_csv(p)
        assert str(exact.value) == str(general.value)


class TestExactReaderPaths:
    """Which rows the exact reader converts itself and which it hands to
    float() (counted by patching float in gouest.sampling), the growth of its
    array, and its one pass over the file."""

    @staticmethod
    def _read_counting(monkeypatch, path):
        calls = []

        def counting(text):
            calls.append(text)
            return float(text)

        monkeypatch.setattr(gouest.sampling, "float", counting, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _read_decimal_rows(path)
        return values, calls

    @staticmethod
    def _decimal(places, significant):
        # "0.00...0ddd": `significant` digits, the last of them `places` after the dot
        digits = "".join(str(1 + i % 9) for i in range(significant))
        return "0." + "0" * (places - significant) + digits

    @pytest.mark.parametrize("scale, places", [(1e-3, 19), (1e-4, 20)])
    def test_leading_zeros_take_the_integer_path(self, tmp_path, monkeypatch, scale, places):
        values = scale * (1.0 + 8.9 * make_generator(3).random(200))
        rows = ["%.*f" % (places, x) for x in values.tolist()]
        zeros = "0." + "0" * (places - 17)  # then 17 significant digits
        assert all(len(r) == places + 2 and r.startswith(zeros) and r[len(zeros)] != "0"
                   for r in rows)
        rows += [self._decimal(22, 19), "0000000000000000000001.5"]
        p = tmp_path / "s.csv"
        p.write_text("x\n" + "\n".join(rows) + "\n")
        got, calls = self._read_counting(monkeypatch, p)
        assert calls == []
        want = np.array([float(r) for r in rows])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("row", [
        "0.98765432109876543210",            # 20 significant digits, D >= 2^64
        "12345678901234567891234",           # 23 digits, no dot
        "1.00000000000000000000000",         # trailing zeros are significant
        "0.00000000000000000000001234",      # 26 places
        "0.00001234567891234567891",         # 23 places, 19 significant digits
        "0.00012345678912345678912",         # 23 places, 20 significant digits
        "18446744073709551616",              # 2^64: the integer parse saturates
        "18446744073709551615",              # 2^64 - 1
        "4611686018427387904",               # 2^62: 19 digits, D not below 2^62
        "1.2345678901234567e-300",           # e and - read as 0: 22 digits, saturates
    ])
    def test_long_rows_go_through_float(self, tmp_path, monkeypatch, row):
        rows = ["0.5", row, "0.25"]
        p = tmp_path / "s.csv"
        p.write_text("x\n" + "\n".join(rows) + "\n")
        got, calls = self._read_counting(monkeypatch, p)
        assert calls == [row.encode()]
        want = np.array([float(r) for r in rows])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_denser_rows_after_the_first_chunk(self, tmp_path):
        # the array is sized from the first chunk's bytes per row, so the
        # much shorter rows after it make the reader grow it
        long = TestChunkedReader._rows(20_000, seed=4)
        short = ["%.3g" % x for x in (make_generator(5).random(60_000) + 1.0).tolist()]
        rows = long + short
        p = TestChunkedReader._write(tmp_path / "s.csv", rows)
        per_row = sum(map(len, long)) / len(long) + 1
        assert len(rows) > 1.25 * (p.stat().st_size - 2) / per_row
        got = _read_decimal_rows(p)
        assert got.flags.owndata and got.size == len(rows)
        np.testing.assert_array_equal(got, [float(r) for r in rows])

    def test_reads_each_byte_once(self, tmp_path, monkeypatch):
        p = TestChunkedReader._write(tmp_path / "s.csv", TestChunkedReader._rows(40_000))
        read = []

        class Counted(io.FileIO):
            def readinto(self, buffer):
                read.append(super().readinto(buffer))
                return read[-1]

        monkeypatch.setattr(gouest.sampling, "open",
                            lambda path, mode: io.BufferedReader(Counted(path)), raising=False)
        assert _read_decimal_rows(p).size == 40_000
        assert sum(read) == p.stat().st_size

    @pytest.mark.parametrize("edge", [0, -1], ids=["first_row", "last_row"])
    def test_exponent_rows_at_chunk_edges(self, tmp_path, monkeypatch, edge):
        # 15 bytes and an LF per row fill each read chunk exactly, so the
        # exponent rows open (or close) each of the file's three chunks
        per_chunk = _CSV_CHUNK_BYTES // 16
        values = 0.1 + 0.8 * make_generator(6).random(3 * per_chunk)
        rows = ["%.13f" % x for x in values.tolist()]
        placed = [c * per_chunk + edge % per_chunk for c in range(3)]
        for i in placed:
            rows[i] = "%.9e" % (1e-5 * values[i])
        assert {len(r) for r in rows} == {15}
        p = tmp_path / "s.csv"
        p.write_text("x\n" + "\n".join(rows) + "\n")
        assert p.stat().st_size == 2 + 3 * _CSV_CHUNK_BYTES
        got, calls = self._read_counting(monkeypatch, p)
        assert calls == [rows[i].encode() for i in placed]
        want = np.array([float(r) for r in rows])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_mixed_chunk_with_a_dotless_row(self, tmp_path, monkeypatch):
        # integer rows put the chunk's dots and LFs out of step
        rows = ["0.5", "1.5e-05", "42", "2.5E+3", "1e-7", "0.25", "7"]
        p = tmp_path / "s.csv"
        p.write_text("x\n" + "\n".join(rows) + "\n")
        got, calls = self._read_counting(monkeypatch, p)
        assert calls == [b"1.5e-05", b"2.5E+3", b"1e-7"]
        want = np.array([float(r) for r in rows])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_working_set_beyond_the_values(self, tmp_path):
        # the array's slack and one chunk's temporaries, not a multiple of the file
        p, _ = write_sample_csv(sample_stationary(BETA_MODEL, 200_000, seed=7),
                                tmp_path / "s.csv")
        read_sample_csv(p)
        tracemalloc.start()
        try:
            values = read_sample_csv(p).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes < 2.5e6

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["exact", "loadtxt"])
    def test_values_can_be_sorted_in_place(self, tmp_path, end):
        # estimate sorts the values it reads in place
        p = tmp_path / "s.csv"
        p.write_bytes(end.join(["x", "0.5", "0.25", "2.5", ""]).encode())
        assert (_read_decimal_rows(p) is None) == (end != "\n")
        values = read_sample_csv(p).values
        assert values.flags.writeable
        values.sort()
        np.testing.assert_array_equal(values, [0.25, 0.5, 2.5])

    @pytest.mark.parametrize("raw", [b"x\n\n", b"x\n.\n"], ids=["blank_row", "lone_dot"])
    def test_empty_only_row_takes_the_general_reader(self, tmp_path, raw):
        # np.fromstring reads the row's b"\n" as [0], so the exact reader
        # must reject the empty row itself
        p = tmp_path / "s.csv"
        p.write_bytes(raw)
        assert _read_decimal_rows(p) is None

    @pytest.mark.parametrize("raw, want", [(b"x\n", []), (b"x\n0.1", [0.1])],
                             ids=["header_only", "one_row_without_lf"])
    def test_short_files(self, tmp_path, raw, want):
        # read_sample_csv then reports the empty file as having no observations
        p = tmp_path / "s.csv"
        p.write_bytes(raw)
        np.testing.assert_array_equal(_read_decimal_rows(p), want)


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
    a = sample_stationary(EX2, n, seed=seed)
    b = sample_stationary(EX2, n, seed=seed)
    np.testing.assert_array_equal(a.values, b.values)
