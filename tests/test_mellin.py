"""Tests for empirical Mellin moments, the ratio estimator, and closed forms.

Oracles:
  * Hand-computable Mellin moments of tiny explicit samples, and a direct
    np.mean(x**(z-1)) evaluation of the empirical moments written here.
  * Closed-form stationary Mellin transforms (Beta and Gamma cases, from
    ``oracles``), which must satisfy z * M(z) / M(z+1) = phi(z) exactly.
  * The modulus of the Gamma-case transform on a vertical line, against the
    Stirling envelope.
  * A direct sum with one complex exp per observation and grid point, the
    reference for laplace_curve's binned Taylor expansion of the phases.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import factorial

from gouest import (
    CPExp,
    DomainError,
    EstimationConfig,
    Sample,
    TruncNormCP,
    fit_alphas,
    inversion_alphas,
    laplace_curve,
    laplace_exponent,
    make_generator,
    sample_stationary,
    write_laplace_curve_csv,
)
from gouest.mellin import _BLOCK, _FACTORIALS, _bin_plan
from oracles import cp_exp_mellin, laplace_curve_from_mellin

BETA_MODEL = CPExp(a=0.7, b=1.8, mu=1.8)
GAMMA_MODEL = CPExp(a=0.7, b=1.8, mu=0.0)


def _sample_of(values):
    return Sample(values=np.asarray(values, dtype=float), delta=1.0, seed=0)


def _ratio_reference(values, z):
    """Y_n(z) = z M_n(z) / M_n(z+1) and |M_n(z+1)|, with the empirical moment
    M_n(z) = mean(x**(z-1)) summed directly, one point at a time."""
    x = np.asarray(values, dtype=float)
    numer, denom = np.mean(x ** (z - 1.0)), np.mean(x**z)
    return z * numer / denom, abs(denom)


def _direct_curve(values, u0, v):
    """Y_n(u0+iv) and |M_n(u0+1+iv)| with every phase exp(i v log x) taken
    directly, one grid point at a time."""
    log_x = np.log(values)
    r1 = np.exp((u0 - 1.0) * log_x)
    r2 = r1 * values
    y = np.empty(v.size, dtype=complex)
    denom = np.empty(v.size)
    for j, vj in enumerate(v):
        phase = np.exp(1j * vj * log_x)
        m1, m2 = phase @ r1 / values.size, phase @ r2 / values.size
        y[j], denom[j] = (u0 + 1j * vj) * m1 / m2, abs(m2)
    return y, denom


class TestEmpiricalMellin:
    """The moments M_n(z) and M_n(z+1) behind laplace_curve, read back
    through its ratio and its denominator |M_n(u0+1+iv)|."""

    def test_unit_moment_is_exact(self):
        # M_n(1) = 1, so Y_n(1) = 1 / M_n(2) = 1 / mean(x)
        x = [0.3, 1.7, 42.0, 0.001]
        curve = laplace_curve(_sample_of(x), 1.0, np.array([0.0]))
        assert curve.y[0].imag == 0.0
        assert curve.y[0].real == pytest.approx(1.0 / np.mean(x), rel=1e-15)
        assert curve.denom_abs[0] == pytest.approx(np.mean(x), rel=1e-15)

    def test_hand_computed_moment(self):
        # M_n(2) = 7/3 and M_n(3) = 7 for the sample (1, 2, 4)
        curve = laplace_curve(_sample_of([1.0, 2.0, 4.0]), 2.0, np.array([0.0]))
        assert curve.denom_abs[0] == pytest.approx(7.0, rel=1e-15)
        assert curve.y[0] == pytest.approx(2.0 * (7.0 / 3.0) / 7.0, rel=1e-15)
        assert curve.n == 3

    def test_constant_sample_power(self):
        # constant 3: M_n(z+1) = 3**z, so |M_n(2+3i)| = 3
        curve = laplace_curve(_sample_of(np.full(50, 3.0)), 1.0, np.array([3.0]))
        want, want_denom = _ratio_reference(np.full(50, 3.0), 1.0 + 3.0j)
        assert curve.denom_abs[0] == pytest.approx(3.0, rel=1e-14)
        assert curve.denom_abs[0] == pytest.approx(want_denom, rel=1e-14)
        assert curve.y[0] == pytest.approx(want, rel=1e-14)

    def test_array_argument(self):
        x = [1.0, 2.0, 4.0]
        v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        curve = laplace_curve(_sample_of(x), 2.0, v)
        for j, vj in enumerate(v):
            want, want_denom = _ratio_reference(x, complex(2.0, vj))
            assert curve.y[j] == pytest.approx(want, rel=1e-14)
            assert curve.denom_abs[j] == pytest.approx(want_denom, rel=1e-14)

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        re=st.floats(0.01, 4.0),
        im=st.floats(0.01, 20.0),
    )
    def test_conjugate_symmetry_is_exact(self, seed, re, im):
        rng = np.random.default_rng(seed)
        curve = laplace_curve(_sample_of(rng.lognormal(size=17)), re, np.array([-im, im]))
        assert curve.y[0] == np.conj(curve.y[1])
        assert curve.denom_abs[0] == curve.denom_abs[1]


class TestRatioEstimator:
    def test_constant_sample_gives_z_over_c(self):
        s = _sample_of(np.full(200, 3.0))
        curve = laplace_curve(s, 1.0, np.array([1.0]))
        z = 1.0 + 1.0j
        assert curve.y[0] == pytest.approx(z / 3.0, rel=1e-14)
        assert curve.y[0] == pytest.approx(_ratio_reference(s.values, z)[0], rel=1e-14)
        assert not curve.ill[0]

    def test_zero_is_zero(self):
        # Y_n vanishes at the origin, where the denominator M_n(1) is 1; the
        # curve needs u0 > 0, so approach it along the real axis
        s = _sample_of(np.full(200, 3.0))
        curve = laplace_curve(s, 1e-12, np.array([0.0]))
        assert abs(curve.y[0]) <= 1e-12
        assert curve.denom_abs[0] == pytest.approx(1.0, rel=1e-11)

    def test_ill_flag_on_tiny_denominator(self):
        # constant 0.01 sample: |M_n(2+i)| = 0.01 < 10/sqrt(100)
        s = _sample_of(np.full(100, 0.01))
        curve = laplace_curve(s, 1.0, np.array([1.0]))
        assert curve.ill[0]
        assert curve.denom_abs[0] == pytest.approx(0.01, rel=1e-12)
        assert curve.denom_abs[0] == pytest.approx(
            _ratio_reference(s.values, 1.0 + 1.0j)[1], rel=1e-12
        )

    def test_plugin_beta_matches_laplace_exponent(self):
        z = 29.0 + 5.0j
        num = cp_exp_mellin(BETA_MODEL, z)
        den = cp_exp_mellin(BETA_MODEL, z + 1.0)
        want = laplace_exponent(BETA_MODEL, z)
        assert abs(z * num / den - want) <= 1e-8


class TestTheoreticalMellin:
    def test_unit_value(self):
        assert cp_exp_mellin(BETA_MODEL, 1.0 + 0j) == pytest.approx(1.0)
        assert cp_exp_mellin(GAMMA_MODEL, 1.0 + 0j) == pytest.approx(1.0)

    @pytest.mark.parametrize("model", [BETA_MODEL, GAMMA_MODEL], ids=["beta", "gamma"])
    def test_scalar_gives_complex_and_arrays_match_it(self, model):
        z = np.array([1.0, 2.0 - 3.0j, 29.0 + 5.0j, -1.5 + 30.0j])
        assert type(cp_exp_mellin(model, z[1])) is complex
        assert cp_exp_mellin(model, z[0]) == 1.0  # the log-gamma differences vanish at z = 1
        np.testing.assert_array_equal(cp_exp_mellin(model, z),
                                      [cp_exp_mellin(model, zj) for zj in z])

    def test_first_moments(self):
        # M(2) = E[X] = 1/phi(1) by the recursion at z = 1
        beta_want = 1.0 / laplace_exponent(BETA_MODEL, 1.0 + 0j).real
        gamma_want = 1.0 / laplace_exponent(GAMMA_MODEL, 1.0 + 0j).real
        assert cp_exp_mellin(BETA_MODEL, 2.0 + 0j).real == pytest.approx(
            beta_want, rel=1e-13
        )
        assert cp_exp_mellin(GAMMA_MODEL, 2.0 + 0j).real == pytest.approx(
            gamma_want, rel=1e-13
        )
        assert gamma_want == pytest.approx((1.8 + 1.0) / 0.7, rel=1e-15)

    @settings(max_examples=40)
    @given(re=st.floats(-1.5, 30.0), im=st.floats(-30.0, 30.0))
    def test_recursion_identity(self, re, im):
        z = complex(re, im)
        for model in (BETA_MODEL, GAMMA_MODEL):
            got = z * cp_exp_mellin(model, z) / cp_exp_mellin(model, z + 1.0)
            want = laplace_exponent(model, z) if z != 0 else 0j
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_domain_boundary(self):
        with pytest.raises(DomainError):
            cp_exp_mellin(BETA_MODEL, -1.8 + 0j)
        with pytest.raises(DomainError):
            cp_exp_mellin(GAMMA_MODEL, -2.5 + 0j)

    def test_conjugate_symmetry(self):
        z = 2.0 - 3.0j
        assert cp_exp_mellin(BETA_MODEL, np.conj(z)) == np.conj(cp_exp_mellin(BETA_MODEL, z))

    def test_gamma_vertical_decay_envelope(self):
        # |Gamma(x+iy)| ~ sqrt(2 pi) |y|^{x-1/2} e^{-pi |y| / 2} for large |y|
        import math

        got = abs(cp_exp_mellin(GAMMA_MODEL, 1.0 + 10.0j))
        env = (
            math.sqrt(2 * math.pi)
            * 10.0 ** (1.8 + 0.5)
            * math.exp(-math.pi * 10.0 / 2.0)
            / math.gamma(2.8)
        )
        assert 0.9 * env <= got <= 1.1 * env


class TestLaplaceCurve:
    def test_matches_pointwise_estimates(self):
        s = sample_stationary(GAMMA_MODEL, 500, seed=1)
        v = np.linspace(-2.0, 2.0, 9)
        curve = laplace_curve(s, 1.0, v)
        for j, vj in enumerate(v):
            want, want_denom = _ratio_reference(s.values, complex(1.0, vj))
            assert abs(curve.y[j] - want) <= 1e-12 * max(1.0, abs(want))
            assert curve.denom_abs[j] == pytest.approx(want_denom, rel=1e-12)
            assert curve.ill[j] == (want_denom < 10 / np.sqrt(s.n))

    def test_conjugate_symmetry_bitwise(self):
        s = sample_stationary(GAMMA_MODEL, 300, seed=2)
        v = np.linspace(-3.0, 3.0, 13)
        curve = laplace_curve(s, 2.0, v)
        np.testing.assert_array_equal(curve.y[:6], np.conj(curve.y[:6:-1]))

    def test_validation(self):
        s = _sample_of([1.0, 2.0])
        with pytest.raises(DomainError):
            laplace_curve(s, -1.0, np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            laplace_curve(s, 1.0, np.array([1.0, -1.0]))  # unordered
        with pytest.raises(DomainError):
            laplace_curve(s, 1.0, np.array([]))
        # 2^53 * log 2 is past 2^52: log x keeps no bit of the phase v log x
        with pytest.raises(DomainError, match=r"^largest \|v\| must be below"):
            laplace_curve(s, 1.0, np.array([0.0, 2.0**53]))

    def test_plugin_curve_equals_laplace_exponent(self):
        v = np.linspace(-5.0, 5.0, 21)
        curve = laplace_curve_from_mellin(partial(cp_exp_mellin, BETA_MODEL), 1.0, v)
        want = np.array([laplace_exponent(BETA_MODEL, complex(1.0, vj)) for vj in v])
        np.testing.assert_allclose(curve.y, want, rtol=1e-10)
        assert not curve.ill.any()

    def test_plugin_curve_calls_mellin_fn_once_per_moment(self):
        calls = []

        def mellin(z):
            calls.append(np.shape(z))
            return cp_exp_mellin(BETA_MODEL, z)

        laplace_curve_from_mellin(mellin, 1.0, np.linspace(-5.0, 5.0, 21))
        assert calls == [(21,), (21,)]

    def test_consistency_in_sample_size(self):
        # median absolute error of the ratio estimator against the Laplace
        # exponent must not increase with the sample size
        v_pts = np.array([1.0, 5.0, 10.0])
        truth = np.array(
            [laplace_exponent(BETA_MODEL, complex(29.0, vj)) for vj in v_pts]
        )
        med = {}
        for n in (10**3, 10**4, 10**5):
            errs = []
            for rep in range(25):
                s = sample_stationary(BETA_MODEL, n, seed=rep, stream=n)
                curve = laplace_curve(s, 29.0, v_pts)
                errs.append(np.abs(curve.y - truth))
            med[n] = np.median(np.vstack(errs), axis=0)
        assert np.all(med[10**4] <= med[10**3])
        assert np.all(med[10**5] <= med[10**4])

    def test_csv_schema(self, tmp_path):
        s = sample_stationary(GAMMA_MODEL, 100, seed=3)
        curve = laplace_curve(s, 1.0, np.linspace(-2.0, 2.0, 5))
        path = write_laplace_curve_csv(curve, tmp_path / "curve.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "v,re_Y,im_Y,abs_Y,denom_abs,ill_flag"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == -2.0
        assert int(first[5]) in (0, 1)


class TestSampleOrder:
    """The moments read only the multiset of values: laplace_curve sorts a
    copy of an unordered sample and passes an ascending one as it is."""

    def test_order_changes_no_bit_and_no_input(self):
        values = sample_stationary(BETA_MODEL, 20_000, seed=4).values
        ascending = np.sort(np.concatenate([values, values[:100]]))  # with ties
        orders = [ascending, make_generator(5).permutation(ascending), ascending[::-1].copy()]
        v = inversion_alphas(EstimationConfig(m_inv=600)) * 30.0
        want = laplace_curve(_sample_of(ascending), 29.0, v)
        for order in orders:
            before = order.tobytes()
            got = laplace_curve(_sample_of(order), 29.0, v)
            for name in ("y", "denom_abs", "ill"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert order.tobytes() == before

    def test_ascending_sample_is_not_copied(self):
        # a sorted copy alone would hold the sample's bytes again
        s = _sample_of(np.sort(sample_stationary(BETA_MODEL, 200_000, seed=7).values))
        v = inversion_alphas(EstimationConfig(m_inv=600)) * 30.0
        laplace_curve(s, 29.0, v)
        tracemalloc.start()
        try:
            laplace_curve(s, 29.0, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.values.nbytes


class TestPhaseRecurrence:
    """laplace_curve expands the phases exp(i v log x) in Taylor series over
    bins of log x; a direct exp per point is the reference, and both must
    agree to 1e-12 relative."""

    TOL = 1e-12

    def _assert_matches_direct(self, values, u0, v):
        curve = laplace_curve(_sample_of(values), u0, v)
        y, denom = _direct_curve(values, u0, v)
        assert np.max(np.abs(curve.y - y) / np.abs(y)) <= self.TOL
        assert np.max(np.abs(curve.denom_abs - denom) / denom) <= self.TOL

    @pytest.mark.parametrize("w_max", [0.0, 0.3, 1.0, 5.0, 30.0, 32.0, 200.0, 1e4])
    def test_bin_plan(self, w_max):
        # h is a power of two with w_max*h <= 1, and P the smallest order
        # whose remainder bound (w_max*h/2)^P / P! reaches 2^-60
        h, order = _bin_plan(w_max)
        assert np.frexp(h)[0] == 0.5 and h <= 1.0
        assert w_max * h <= 1.0
        bound = (w_max * h / 2.0) ** np.arange(order + 1) / factorial(np.arange(order + 1))
        assert bound[order] <= 2.0**-60
        assert order == 1 or bound[order - 1] > 2.0**-60

    def test_factorial_table_is_scipys_for_every_order(self):
        # the half-width w_max*h/2 is at most 1/2, reached at every power of
        # two from 1 up, so no order exceeds 16 and the table covers them all
        w_max = np.concatenate(([0.0], np.geomspace(1e-3, 1e5, 20_001), 2.0 ** np.arange(17)))
        orders = {_bin_plan(w)[1] for w in w_max}
        assert max(orders) == 16 == _FACTORIALS.size
        p = np.arange(max(orders))
        assert _FACTORIALS[p].tobytes() == factorial(p).tobytes()

    def test_zero_frequency_is_exact(self):
        # at v = 0 the expansion has the one term u^0 = 1: M_n(1) = 1 and
        # M_n(2) = mean(x) = 1.875 without rounding for these dyadic values
        assert _bin_plan(0.0)[1] == 1
        curve = laplace_curve(_sample_of([0.5, 1.0, 2.0, 4.0]), 1.0, np.array([0.0]))
        assert curve.denom_abs[0] == 1.875
        assert curve.y[0] == 1.0 / 1.875

    def test_example1_fit_and_inversion_bands(self):
        config = EstimationConfig(u0=29.0, vn=30.0)
        x = sample_stationary(CPExp(mu=1.8, a=0.7, b=0.2), 10**5, seed=5).values
        self._assert_matches_direct(x, 29.0, config.vn * fit_alphas(config))
        self._assert_matches_direct(x, 29.0, inversion_alphas(config) * config.vn)

    def test_example2_grid_longer_than_a_reseed_interval(self):
        # 251 distinct |v| on fig3's grid (scripts/run_density_recovery_study.py)
        x = sample_stationary(TruncNormCP(lam=1.0, q=0.5, alpha=0.1), 10**4, seed=6).values
        self._assert_matches_direct(x, 1.0, inversion_alphas(EstimationConfig(m_inv=500)) * 5.0)

    def test_smallest_positive_observation(self):
        # log(tiny) = -708, the most negative log of a normal float, so the
        # largest phase error any rounding produces
        rng = np.random.default_rng(7)
        x = np.append(rng.lognormal(size=999), np.finfo(float).tiny)
        self._assert_matches_direct(x, 1.0, inversion_alphas(EstimationConfig(m_inv=600)) * 30.0)

    def test_irregular_grid(self):
        x = sample_stationary(TruncNormCP(lam=1.0, q=0.5, alpha=0.1), 10**4, seed=6).values
        self._assert_matches_direct(
            x, 1.0, np.array([-7.3, 0.0, 0.1, 1.0, 2.5, 5.0, 13.0, 29.9]))

    def test_wide_band(self):
        # vn = 200 takes bins of width 1/256 and both bands of the pipeline
        config = EstimationConfig(u0=1.0, vn=200.0)
        x = sample_stationary(TruncNormCP(lam=1.0, q=0.5, alpha=0.1), 10**4, seed=6).values
        self._assert_matches_direct(x, 1.0, config.vn * fit_alphas(config))
        self._assert_matches_direct(x, 1.0, inversion_alphas(config) * config.vn)

    def test_phase_stage_runs_more_than_once(self):
        # log x spread over 42 units at h = 1/256 occupies more bins than
        # _BLOCK, so the pending bins reach it and the phase stage runs
        # mid-pass as well as at the end
        x = np.exp(np.random.default_rng(8).uniform(-40.0, 2.0, size=30_000))
        v = inversion_alphas(EstimationConfig(m_inv=400)) * 200.0
        h, _ = _bin_plan(200.0)
        assert h == 1.0 / 256
        assert np.unique(np.floor(np.log(x) / h)).size > _BLOCK
        self._assert_matches_direct(x, 3.0, v)

    def test_overflowing_weight_below_one(self):
        # at u0 < 1 the weight x^(u0-1) of the smallest subnormal overflows
        # even though x^u0 does not
        with pytest.raises(DomainError, match=r"overflows.*min x = 4\.94066e-324"):
            laplace_curve(_sample_of([5e-324, 0.5, 2.0]), 0.01, np.array([0.0, 1.0]))

    @given(
        log_x=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=64),
        u0=st.floats(0.1, 5.0),
        v=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20),
    )
    def test_matches_direct_property(self, log_x, u0, v):
        # |v log x| <= 40 keeps either sum's rounding well under the bound
        self._assert_matches_direct(np.exp(log_x), u0, np.sort(v))
