"""Tests for drift/intensity estimation and spectral inversion of the jump density.

Oracles:
  * The fit of (mu, lambda) is exact on curves affine in z (the model
    family it is derived from), for any band edge eps.
  * The Fourier-data constructor is exact on curves built from the
    drift-plus-exponential-jumps Laplace exponent: it must return
    a*b / (b + u0 - iv) exactly.
  * The discrete inversion is checked against adaptive quadrature of the
    corresponding continuous kernel-smoothed Fourier integral.
"""

import json
import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gouest

from gouest import (
    CPExp,
    DomainError,
    EstimationConfig,
    LaplaceCurve,
    Sample,
    TruncNormCP,
    default_x_grid,
    estimate_fourier_nu_bar,
    fit_alphas,
    flat_top,
    inversion_alphas,
    invert_levy_density,
    laplace_curve,
    laplace_exponent,
    levy_density,
    run_algorithm1,
    run_algorithm2,
    sample_stationary,
    write_levy_density_csv,
    write_triplet_json,
)

EX1 = CPExp(a=1.8, b=0.7, mu=0.2)


def _curve_on(v, y, u0=1.0, n=100):
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=complex)
    return LaplaceCurve(
        u0=u0,
        v=v,
        y=y,
        denom_abs=np.ones_like(v),
        ill=np.zeros(v.size, dtype=bool),
        n=n,
    )


def _affine_curve(config, mu, lam):
    v = config.vn * fit_alphas(config)
    y = mu * (config.u0 + 1j * v) + lam
    return _curve_on(v, y, u0=config.u0)


class TestConfig:
    def test_defaults(self):
        cfg = EstimationConfig()
        assert (cfg.u0, cfg.vn, cfg.eps) == (1.0, 5.0, 0.1)
        assert (cfg.m_fit, cfg.m_inv) == (50, 200)

    def test_weight_eps_synced(self):
        # the fit takes its band edge from the config: the slope is the
        # closed form through the origin on fit_alphas(cfg), and not the one
        # on another edge's grid
        cfg = EstimationConfig(eps=0.3)
        a = fit_alphas(cfg)
        curve = _curve_on(cfg.vn * a, 1j * a**2, u0=cfg.u0)  # not affine: the grid matters

        def slope(alphas):
            return float(np.sum(alphas * alphas**2) / (cfg.vn * np.sum(alphas**2)))

        mu_hat = run_algorithm1(curve, cfg).mu_hat
        assert mu_hat == slope(a)
        assert mu_hat != slope(fit_alphas(EstimationConfig(eps=0.1)))

    def test_validation(self):
        for kw in [
            dict(u0=0.0),
            dict(vn=-1.0),
            dict(eps=0.0),
            dict(eps=1.0),
            dict(m_fit=0),
            dict(m_inv=0),
        ]:
            with pytest.raises(DomainError):
                EstimationConfig(**kw)
        # a fractional count would fit m_fit + 1 band points but divide by m_fit
        for name, value in (("m_fit", 10.5), ("m_inv", True)):
            with pytest.raises(DomainError, match=f"^{name} must be a whole number"):
                EstimationConfig(**{name: value})
        assert EstimationConfig(m_fit=10.0).m_fit == 10

    def test_eps_bounds_are_open_unit_interval(self):
        # the fit counts every point of the band [eps, 1], whose edge eps
        # the estimation config keeps inside (0, 1)
        for eps in (0.0, 1.0):
            with pytest.raises(DomainError, match="eps must be in"):
                EstimationConfig(eps=eps)

    @pytest.mark.parametrize("field", ["u0", "vn"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_rejected_by_name(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be positive and finite"):
            EstimationConfig(**{field: value})


class TestGrids:
    def test_fit_alphas(self):
        cfg = EstimationConfig(eps=0.1, m_fit=50)
        a = fit_alphas(cfg)
        assert len(a) == 50
        assert a[0] == pytest.approx(0.1 + 0.9 / 50, rel=1e-15)
        assert a[-1] == 1.0
        assert np.all(np.diff(a) > 0)

    def test_inversion_alphas(self):
        cfg = EstimationConfig(m_inv=200)
        a = inversion_alphas(cfg)
        assert len(a) == 201
        assert a[0] == -1.0 and a[-1] == 1.0
        assert np.abs(a + a[::-1]).max() <= 1e-15

    @pytest.mark.parametrize("m_inv, vn", [(200, 30.0), (200, 6.0), (201, 5.0), (600, 30.0)])
    def test_inversion_grid_mirrors_are_exact(self, m_inv, vn):
        # laplace_curve computes one phase row per distinct |v|, so every
        # mirror pair must collapse to one value
        v = vn * inversion_alphas(EstimationConfig(vn=vn, m_inv=m_inv))
        np.testing.assert_array_equal(v, -v[::-1])
        assert np.unique(np.abs(v)).size == m_inv // 2 + 1

    def test_default_x_grid(self):
        x = default_x_grid()
        assert x[0] == 0.0 and x[-1] == 3.0 and len(x) == 301
        with pytest.raises(DomainError, match=r"^need x_max > 0, got -1\.0$"):
            default_x_grid(-1.0)

    @pytest.mark.parametrize("bounds, field", [((math.inf,), "x_max"),
                                               ((math.nan,), "x_max")])
    def test_default_x_grid_rejects_non_finite_bounds(self, bounds, field):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            default_x_grid(*bounds)


class TestFitEstimators:
    def test_affine_exactness_default_weights(self):
        cfg = EstimationConfig()
        fit = run_algorithm1(_affine_curve(cfg, 1.8, 0.7), cfg)
        assert fit.mu_hat == pytest.approx(1.8, abs=1e-12)
        assert fit.lambda_hat == pytest.approx(0.7, abs=1e-12)

    def test_affine_exactness_random_weights(self):
        # the estimator equations are exact for affine curves at any band edge
        rng = np.random.default_rng(42)
        for _ in range(20):
            mu = rng.uniform(0.1, 5.0)
            lam = rng.uniform(0.1, 5.0)
            cfg = EstimationConfig(eps=rng.uniform(0.05, 0.9))
            fit = run_algorithm1(_affine_curve(cfg, mu, lam), cfg)
            assert fit.mu_hat == pytest.approx(mu, abs=1e-10)
            assert fit.lambda_hat == pytest.approx(lam, abs=1e-10)

    def test_every_band_point_counted(self):
        # at eps = 0.067 the top point of the M = 50 grid rounds to
        # 1.0000000000000002; the fit still counts all 50 points
        cfg = EstimationConfig(eps=0.067, m_fit=50)
        a = fit_alphas(cfg)
        assert a.size == 50 and a[-1] > 1.0
        re_y, im_y = np.random.default_rng(3).standard_normal((2, a.size))
        y = re_y + 1j * im_y
        curve = _curve_on(cfg.vn * a, y, u0=cfg.u0)
        fit = run_algorithm1(curve, cfg)
        assert fit.mu_hat == float(np.sum(a * y.imag) / (cfg.vn * np.sum(a**2)))
        assert fit.lambda_hat == float(np.sum(y.real) / 50 - fit.mu_hat * cfg.u0)

    def test_zero_imaginary_part_gives_zero_drift(self):
        cfg = EstimationConfig()
        v = cfg.vn * fit_alphas(cfg)
        curve = _curve_on(v, np.full(v.size, 0.4 + 0j), u0=cfg.u0)
        assert run_algorithm1(curve, cfg).mu_hat == pytest.approx(0.0, abs=1e-15)

    def test_grid_mismatch(self):
        cfg = EstimationConfig()
        v = cfg.vn * fit_alphas(cfg) + 0.01
        curve = _curve_on(v, np.ones(v.size, dtype=complex), u0=cfg.u0)
        with pytest.raises(DomainError, match="curve grid does not match"):
            run_algorithm1(curve, cfg)
        # the right grid on another line
        curve = _curve_on(cfg.vn * fit_alphas(cfg), np.ones(v.size, dtype=complex), u0=2 * cfg.u0)
        with pytest.raises(DomainError, match="u0"):
            run_algorithm1(curve, cfg)


class TestFourierData:
    def _plugin_curve(self, cfg, model=EX1):
        v = cfg.vn * inversion_alphas(cfg)
        y = np.array([laplace_exponent(model, complex(cfg.u0, w)) for w in v])
        return _curve_on(v, y, u0=cfg.u0, n=0)

    def test_exact_on_plugin_curve(self):
        cfg = EstimationConfig()
        curve = self._plugin_curve(cfg)
        out = estimate_fourier_nu_bar(curve, EX1.mu, EX1.a)
        v = cfg.vn * inversion_alphas(cfg)
        want = EX1.a * EX1.b / (EX1.b + cfg.u0 - 1j * v)
        np.testing.assert_allclose(out, want, rtol=1e-13)

    def test_scalar_lookup_matches_grid(self):
        # the value at v_m reads the curve at its mirror point -v_m
        cfg = EstimationConfig()
        curve = self._plugin_curve(cfg)
        grid = estimate_fourier_nu_bar(curve, EX1.mu, EX1.a)
        v = cfg.vn * inversion_alphas(cfg)
        for idx in (0, 57, 100, 143, 200):
            mirror = cfg.m_inv - idx
            assert v[mirror] == pytest.approx(-v[idx], abs=1e-12)
            want = -curve.y[mirror] + EX1.mu * (cfg.u0 - 1j * v[idx]) + EX1.a
            assert grid[idx] == want

    def test_zero_frequency_value(self):
        cfg = EstimationConfig()
        curve = self._plugin_curve(cfg)
        got = estimate_fourier_nu_bar(curve, EX1.mu, EX1.a)[cfg.m_inv // 2]
        assert got == pytest.approx(EX1.a * EX1.b / (EX1.b + cfg.u0), rel=1e-13)

    def test_high_frequency_decay(self):
        # the transform of an integrable tilted density must be small far out
        cfg = EstimationConfig(vn=1000.0, m_inv=2)
        curve = self._plugin_curve(cfg)
        out = estimate_fourier_nu_bar(curve, EX1.mu, EX1.a)
        assert abs(out[0]) < 1e-2 and abs(out[-1]) < 1e-2

    def test_requires_symmetric_grid(self):
        cfg = EstimationConfig()
        v = np.linspace(0.0, cfg.vn, cfg.m_inv + 1)
        curve = _curve_on(v, np.ones(v.size, dtype=complex), u0=cfg.u0)
        with pytest.raises(DomainError, match="symmetric"):
            estimate_fourier_nu_bar(curve, 0.2, 1.8)


class TestInversion:
    def test_zero_input_gives_zero(self):
        cfg = EstimationConfig()
        est = invert_levy_density(np.zeros(cfg.m_inv + 1, dtype=complex), cfg, default_x_grid())
        np.testing.assert_array_equal(est.nu_hat, 0.0)
        np.testing.assert_array_equal(est.imag_residual, 0.0)

    def test_linearity(self):
        cfg = EstimationConfig()
        rng = np.random.default_rng(3)
        f = rng.normal(size=cfg.m_inv + 1) + 1j * rng.normal(size=cfg.m_inv + 1)
        g = rng.normal(size=cfg.m_inv + 1) + 1j * rng.normal(size=cfg.m_inv + 1)
        x = default_x_grid(2.0, 101)
        lhs = invert_levy_density(2.0 * f - 3.0 * g, cfg, x)
        a = invert_levy_density(f, cfg, x)
        b = invert_levy_density(g, cfg, x)
        np.testing.assert_allclose(lhs.nu_hat, 2.0 * a.nu_hat - 3.0 * b.nu_hat, atol=1e-10)
        np.testing.assert_allclose(
            lhs.imag_residual,
            2.0 * a.imag_residual - 3.0 * b.imag_residual,
            atol=1e-10,
        )

    def test_conjugate_symmetric_input_has_tiny_imaginary_residual(self):
        cfg = EstimationConfig()
        v = cfg.vn * inversion_alphas(cfg)
        f = 1.26 / (1.7 - 1j * v)  # conjugate-symmetric in v
        est = invert_levy_density(f, cfg, default_x_grid())
        assert np.abs(est.imag_residual).max() <= 1e-10 * np.abs(est.nu_hat).max()

    def test_matches_continuous_integral(self):
        # discrete trapezoid-width Riemann sum vs adaptive quadrature of
        # e^{u0 x} / (2 pi) * int e^{-ivx} F(v) K(v / V) dv
        cfg = EstimationConfig()
        a, b, u0, big_v = EX1.a, EX1.b, cfg.u0, cfg.vn
        v_grid = big_v * inversion_alphas(cfg)
        f = a * b / (b + u0 - 1j * v_grid)
        x0 = 1.0
        est = invert_levy_density(f, cfg, np.array([0.0, x0]))

        def integrand(v):
            val = a * b / (b + u0 - 1j * v) * np.exp(-1j * v * x0) * flat_top(v / big_v)
            return val.real

        cont, err = quad(integrand, -big_v, big_v, limit=400)
        want = math.exp(u0 * x0) * cont / (2.0 * math.pi)
        assert err < 1e-6
        assert est.nu_hat[1] == pytest.approx(want, rel=1e-9)

    def test_smoothing_bias_at_moderate_cutoff_is_documented(self):
        # With cutoff 5 the kernel-smoothed reconstruction at x = 1 deviates
        # from the true jump density by a visible bias (measured ~20% for
        # this slowly-decaying jump law); this pins the measured behavior so
        # regressions are caught.
        model = CPExp(a=0.7, b=0.2, mu=1.8)
        cfg = EstimationConfig()
        v_grid = cfg.vn * inversion_alphas(cfg)
        f = model.a * model.b / (model.b + cfg.u0 - 1j * v_grid)
        est = invert_levy_density(f, cfg, np.array([0.0, 1.0]))
        truth = levy_density(model, np.array([1.0]))[0]
        assert truth == pytest.approx(0.14 * math.exp(-0.2), rel=1e-12)
        assert abs(est.nu_hat[1] - truth) <= 0.25 * truth

    def test_grid_mismatch_and_validation(self):
        cfg = EstimationConfig()
        with pytest.raises(DomainError, match="fhat has"):
            invert_levy_density(np.zeros(cfg.m_inv, dtype=complex), cfg, default_x_grid())
        with pytest.raises(DomainError):
            invert_levy_density(
                np.zeros(cfg.m_inv + 1, dtype=complex), cfg, np.array([1.0, 0.5])
            )

    @pytest.mark.parametrize("u0, vn, scale, x_max", [(29.0, 30.0, 1.0, 30.0),
                                                      (1.0, 1e200, 1e200, 3.0)],
                             ids=["untilt", "bandwidth"])
    def test_overflow_is_a_domain_error(self, u0, vn, scale, x_max):
        # e^{u0 x} overflows at u0 x = 870; at vn = 1e200 the transform
        # estimate is of order mu_hat * v and the sum overflows
        cfg = EstimationConfig(u0=u0, vn=vn)
        fhat = np.full(cfg.m_inv + 1, scale, dtype=complex)
        want = (f"density inversion overflows float64 at u0={u0:g}, vn={vn:g} "
                f"(largest |x| = {x_max:g})")
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            invert_levy_density(fhat, cfg, default_x_grid(x_max, 31))

    @pytest.mark.parametrize("m_inv", [2, 3, 200, 201])
    def test_mirrored_phases_match_the_full_exponential(self, m_inv):
        # only the cosines and sines of the nonnegative half are computed and
        # the mirrored coefficients fold onto them; the sum must match the
        # full phase matrix's to the rounding bound of two float64 sums of
        # m_inv + 1 products (each phase within an ulp of e^{-ivx})
        cfg = EstimationConfig(u0=2.0, vn=11.5, m_inv=m_inv)
        rng = np.random.default_rng(m_inv)
        f = rng.normal(size=m_inv + 1) + 1j * rng.normal(size=m_inv + 1)
        x = default_x_grid(3.0, 151)
        est = invert_levy_density(f, cfg, x)
        alphas = inversion_alphas(cfg)
        phase = np.exp(-1j * np.multiply.outer(x, alphas * cfg.vn))
        coeff = f * flat_top(alphas)
        scale = np.exp(cfg.u0 * x) * cfg.vn / (np.pi * m_inv)
        want = scale * (phase @ coeff)
        bound = scale * 2 * (m_inv + 4) * np.finfo(float).eps * np.abs(coeff).sum()
        assert np.all(np.abs(est.nu_hat - want.real) <= bound)
        assert np.all(np.abs(est.imag_residual - want.imag) <= bound)

    def test_tilt_relation(self):
        cfg = EstimationConfig()
        rng = np.random.default_rng(5)
        f = rng.normal(size=cfg.m_inv + 1) + 1j * rng.normal(size=cfg.m_inv + 1)
        x = default_x_grid(2.0, 41)
        est = invert_levy_density(f, cfg, x)
        np.testing.assert_allclose(
            est.nu_bar_hat, np.exp(-cfg.u0 * x) * est.nu_hat, rtol=1e-12
        )


def _fit_alone(s, cfg):
    """The fit of (mu, lambda) on a curve over the fitting band only."""
    return run_algorithm1(laplace_curve(s, cfg.u0, fit_alphas(cfg) * cfg.vn), cfg)


class TestPipelines:
    def test_constant_sample_recovers_pure_drift(self):
        # A constant functional c corresponds to a deterministic driver with
        # drift 1/c and no jumps; both estimators are exact there.
        from gouest import Sample

        cfg = EstimationConfig()
        c = 2.5
        s = Sample(values=np.full(400, c), delta=1.0, seed=0)
        tri = _fit_alone(s, cfg)
        assert tri.mu_hat == pytest.approx(1.0 / c, abs=1e-12)
        assert tri.lambda_hat == pytest.approx(0.0, abs=1e-12)

    def test_recovers_triplet_on_synthetic_data(self):
        cfg = EstimationConfig(u0=29.0, vn=30.0)
        errs_mu, errs_lam = [], []
        for rep in range(5):
            s = sample_stationary(CPExp(mu=1.8, a=0.7, b=1.8), 10**4, seed=rep)
            tri = _fit_alone(s, cfg)
            errs_mu.append(abs(tri.mu_hat - 1.8))
            errs_lam.append(abs(tri.lambda_hat - 0.7))
        assert np.median(errs_mu) <= 0.3
        assert np.median(errs_lam) <= 0.3

    def test_full_inversion_pipeline(self):
        cfg = EstimationConfig()
        s = sample_stationary(CPExp(mu=1.8, a=0.7, b=1.8), 2000, seed=0)
        est = run_algorithm2(s, cfg, default_x_grid())
        assert est.triplet is not None
        # the kept curve is the symmetric inversion band the density came from
        np.testing.assert_array_equal(est.curve.v, cfg.vn * inversion_alphas(cfg))
        tri = _fit_alone(s, cfg)
        assert (est.triplet.mu_hat, est.triplet.lambda_hat) == (tri.mu_hat, tri.lambda_hat)
        assert est.x.shape == est.nu_hat.shape == est.imag_residual.shape
        # exact mirror pairs and a conjugate-symmetric transform estimate
        # cancel the imaginary part term by term
        np.testing.assert_array_equal(est.imag_residual, 0.0)

    @settings(max_examples=40)
    @given(
        model=st.sampled_from([CPExp(a=0.7, b=0.2, mu=1.8), CPExp(a=0.7, b=1.8, mu=0.0),
                               TruncNormCP(lam=1.0, alpha=0.5, q=0.1)]),
        n=st.integers(50, 3000),
        seed=st.integers(0, 1000),
        u0=st.floats(1.0, 30.0),
        vn=st.floats(0.5, 60.0),
        eps=st.floats(0.05, 0.95),
        m_fit=st.integers(2, 80),
        m_inv=st.integers(2, 300),
    )
    def test_fused_pipeline_fits_bitwise_as_the_fit_alone(self, model, n, seed, u0, vn,
                                                          eps, m_fit, m_inv):
        # run_algorithm2 takes the fit band out of one curve over the union
        # grid; each of its rows must round exactly as on the band alone
        cfg = EstimationConfig(u0=u0, vn=vn, eps=eps, m_fit=m_fit, m_inv=m_inv)
        s = sample_stationary(model, n, seed=seed)
        handed = []

        def recording(curve, config):
            handed.append(curve)
            return run_algorithm1(curve, config)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gouest.estimators, "run_algorithm1", recording)
            fused = run_algorithm2(s, cfg, default_x_grid(3.0, 31)).triplet
        curve = laplace_curve(s, cfg.u0, fit_alphas(cfg) * cfg.vn)
        alone = run_algorithm1(curve, cfg)
        assert (fused.mu_hat, fused.lambda_hat) == (alone.mu_hat, alone.lambda_hat)
        np.testing.assert_array_equal(handed[0].y, curve.y)

    def test_one_sample_pass(self, monkeypatch):
        # the density pipeline takes both bands from one curve over their
        # sorted concatenation, repeats included, so it passes over the sample
        # once; laplace_curve computes each |v| of the grid once
        grids = []
        original = gouest.estimators.laplace_curve

        def counting(*args, **kwargs):
            grids.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(gouest.estimators, "laplace_curve", counting)
        cfg = EstimationConfig()
        s = sample_stationary(CPExp(mu=1.8, a=0.7, b=1.8), 2000, seed=0)
        run_algorithm2(s, cfg, default_x_grid())
        assert len(grids) == 1
        np.testing.assert_array_equal(
            grids[0], np.sort(np.concatenate([cfg.vn * fit_alphas(cfg),
                                              cfg.vn * inversion_alphas(cfg)])))
        assert grids[0].size == 251 and np.unique(grids[0]).size == 242

    def test_unsorted_sample_gives_the_sorted_result(self):
        # the pipeline reads only the multiset of values and sorts the
        # caller's array in place, unless it is read-only
        cfg = EstimationConfig(u0=2.0, vn=7.0)
        x = default_x_grid(3.0, 31)
        drawn = sample_stationary(CPExp(mu=1.8, a=0.7, b=1.8), 2000, seed=3).values
        assert np.any(np.diff(drawn) < 0.0)
        frozen = drawn.copy()
        frozen.flags.writeable = False
        ascending = run_algorithm2(Sample(values=np.sort(drawn)), cfg, x)
        for values, after in ((drawn.copy(), np.sort(drawn)), (frozen, drawn)):
            estimate = run_algorithm2(Sample(values=values), cfg, x)
            np.testing.assert_array_equal(values, after)
            assert ((estimate.triplet.mu_hat, estimate.triplet.lambda_hat,
                     estimate.triplet.ill_count)
                    == (ascending.triplet.mu_hat, ascending.triplet.lambda_hat,
                        ascending.triplet.ill_count))
            np.testing.assert_array_equal(estimate.curve.y, ascending.curve.y)
            for name in ("nu_hat", "nu_bar_hat", "imag_residual"):
                np.testing.assert_array_equal(getattr(estimate, name), getattr(ascending, name))

    def test_concurrent_pipelines_give_the_serial_results(self):
        # the pipeline keeps no state between calls, so two calls with other
        # bandwidths and x-grids on two threads give what each gives alone
        jobs = [(sample_stationary(CPExp(mu=1.8, a=0.7, b=1.8), 3000, seed=seed),
                 EstimationConfig(u0=2.0, vn=vn), default_x_grid(x_max, points))
                for seed, vn, x_max, points in ((5, 4.0, 3.0, 151), (6, 9.0, 2.0, 41))]
        serial = [run_algorithm2(*job) for job in jobs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda job: run_algorithm2(*job), jobs, timeout=120))
        for a, b in zip(serial, threaded):
            assert (a.triplet.mu_hat, a.triplet.lambda_hat) == (b.triplet.mu_hat,
                                                                b.triplet.lambda_hat)
            np.testing.assert_array_equal(a.curve.y, b.curve.y)
            np.testing.assert_array_equal(a.nu_hat, b.nu_hat)
            np.testing.assert_array_equal(a.imag_residual, b.imag_residual)


class TestSerialization:
    def test_triplet_json(self, tmp_path):
        cfg = EstimationConfig()
        s = sample_stationary(CPExp(mu=1.8, a=0.7, b=1.8), 500, seed=0)
        tri = _fit_alone(s, cfg)
        path = write_triplet_json(tri, tmp_path / "triplet.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"mu_hat", "lambda_hat", "ill_count", "n", "config"}
        assert payload["n"] == 500
        assert payload["config"]["u0"] == 1.0

    def test_density_csv(self, tmp_path):
        cfg = EstimationConfig()
        s = sample_stationary(CPExp(mu=1.8, a=0.7, b=1.8), 500, seed=0)
        est = run_algorithm2(s, cfg, default_x_grid(1.0, 11))
        path = write_levy_density_csv(est, tmp_path / "d.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "x,nu_hat,nu_bar_hat,imag_residual"
        assert len(lines) == 12
