"""Tests for scipy's complex special functions and the two jump-model classes.

Oracles:
  * erf / log-gamma values are cross-checked against mpmath at random
    complex points (independent implementation).
  * The Laplace exponent of the truncated-normal compound-Poisson model is
    cross-checked in-test against a direct Monte-Carlo average of
    1 - E[exp(-z * J)] over 10^6 raw jump draws J = -log(q) * Z with Z a
    standard normal conditioned on Z > alpha.
  * Each model's Levy density is cross-checked against its Laplace exponent
    by quadrature of mu z + int (1 - e^{-zx}) nu(x) dx at points on and off
    the real axis.
"""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import norm, truncnorm

from gouest import (
    MODELS,
    CPExp,
    DomainError,
    EstimationConfig,
    PoleError,
    TruncNormCP,
    inversion_alphas,
    laplace_exponent,
    levy_density,
    model_from_config,
    model_to_config,
)


def _random_points(n, re_lo=-8.0, re_hi=8.0, im_lo=-8.0, im_hi=8.0, seed=7):
    rng = np.random.default_rng(seed)
    re = rng.uniform(re_lo, re_hi, size=n)
    im = rng.uniform(im_lo, im_hi, size=n)
    return re + 1j * im


class TestComplexErf:
    """scipy's complex erf, from the Faddeeva code behind TruncNormCP's wofz."""

    def test_real_axis_matches_math_erf(self):
        for x in [0.0, 0.3, 1.0, -2.5, 4.0]:
            got = special.erf(complex(x, 0.0))
            assert got.imag == pytest.approx(0.0, abs=1e-15)
            assert got.real == pytest.approx(math.erf(x), abs=1e-14)

    def test_frozen_values(self):
        assert special.erf(1.0 + 0j).real == pytest.approx(0.8427007929497149, abs=1e-13)
        got = special.erf(1j)
        assert got.real == pytest.approx(0.0, abs=1e-14)
        assert got.imag == pytest.approx(1.6504257587975431, abs=1e-12)

    def test_matches_mpmath_at_random_points(self):
        for z in _random_points(40, -6, 6, -6, 6):
            got = special.erf(complex(z))
            want = complex(mpmath.erf(mpmath.mpc(z.real, z.imag)))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_odd_symmetry(self):
        for z in _random_points(25):
            fz = special.erf(complex(z))
            assert abs(special.erf(complex(-z)) + fz) <= 1e-13 * max(1.0, abs(fz))

    def test_conjugate_symmetry_is_exact(self):
        for z in _random_points(25):
            z = complex(z)
            assert special.erf(z.conjugate()) == complex(np.conj(special.erf(z)))


class TestComplexLogGamma:
    """scipy's complex log-gamma, which the tests' Mellin oracle relies on."""

    def test_real_values(self):
        assert special.loggamma(5.0 + 0j).real == pytest.approx(math.log(24.0), rel=1e-14)
        assert abs(special.loggamma(1.0 + 0j)) <= 1e-14

    def test_recurrence_at_random_points(self):
        for z in _random_points(100, 0.2, 10.0, -10.0, 10.0):
            z = complex(z)
            lhs = special.loggamma(z + 1)
            rhs = special.loggamma(z) + np.log(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_mpmath_at_random_points(self):
        for z in _random_points(40, 0.2, 12.0, -12.0, 12.0):
            got = special.loggamma(complex(z))
            want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestCPExp:
    def test_validation(self):
        with pytest.raises(DomainError):
            CPExp(a=-1.0, b=0.7, mu=0.2)
        with pytest.raises(DomainError):
            CPExp(a=1.8, b=0.0, mu=0.2)
        with pytest.raises(DomainError):
            CPExp(a=1.8, b=0.7, mu=-0.1)
        CPExp(a=1.8, b=0.7, mu=0.0)  # zero drift is allowed

    @pytest.mark.parametrize("mu", [1e-320, 5e-324])
    def test_overflowing_beta_shape_is_rejected(self, mu):
        # a/mu = inf as the Beta shape made every draw tiny/mu, a constant sample
        with pytest.raises(DomainError, match=rf"^a/mu must be finite, got a=0\.7 / mu={mu!r}"):
            CPExp(a=0.7, b=0.2, mu=mu)
        with pytest.raises(DomainError, match="^a/mu must be finite"):
            CPExp(a=0.7, b=0.2, mu=np.float64(mu))  # no overflow warning from numpy
        CPExp(a=0.7, b=0.2, mu=1e-308)  # a/mu = 7e307 is finite

    def test_jump_mass(self):
        assert CPExp(a=1.8, b=0.7, mu=0.2).jump_mass == pytest.approx(1.8)

    def test_laplace_exponent_closed_form(self):
        m = CPExp(a=0.7, b=1.8, mu=0.0)
        assert laplace_exponent(m, 1.0 + 0j).real == pytest.approx(0.25, rel=1e-14)
        z = 2.0 + 3.0j
        want = z * 0.7 / (1.8 + z)
        assert abs(laplace_exponent(m, z) - want) <= 1e-14 * abs(want)

    def test_laplace_exponent_with_drift(self):
        m = CPExp(a=1.8, b=0.7, mu=0.2)
        want = 0.2 + 1.8 / 1.7
        assert laplace_exponent(m, 1.0 + 0j).real == pytest.approx(want, rel=1e-14)

    def test_pole_at_minus_b(self):
        with pytest.raises(PoleError):
            laplace_exponent(CPExp(a=0.7, b=1.8, mu=0.0), -1.8 + 0j)

    def test_levy_density(self):
        m = CPExp(a=1.8, b=0.7, mu=0.2)
        x = np.linspace(1e-4, 60.0, 200001)
        nu = levy_density(m, x)
        assert np.all(nu > 0)
        assert nu[0] == pytest.approx(1.8 * 0.7 * math.exp(-0.7e-4), rel=1e-12)
        # total mass of the jump measure equals the Poisson rate a
        assert np.trapezoid(nu, x) == pytest.approx(1.8, rel=1e-3)
        assert np.all(levy_density(m, np.array([-1.0, 0.0])) == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
    def test_beta_draws_are_guarded_and_scaled_bitwise(self, seed):
        m = CPExp(a=0.7, b=0.2, mu=1.8)
        got, law = m.stationary(1000, np.random.default_rng(seed))
        raw = np.random.default_rng(seed).beta(m.b + 1.0, m.a / m.mu, size=1000)
        want = np.maximum(raw, np.finfo(float).tiny) / m.mu
        assert law == {"law": "beta"}
        assert got.tobytes() == want.tobytes()

    def test_beta_draw_is_guarded_in_place(self):
        # one array per draw: the generator's array, with a 0 raised to tiny
        drawn = np.array([0.0, 0.25, 1.0])

        class Generator:
            def beta(self, a, b, size):
                return drawn

        got, _ = CPExp(a=0.7, b=0.2, mu=2.0).stationary(3, Generator())
        assert got is drawn
        assert got.tolist() == [np.finfo(float).tiny / 2.0, 0.125, 0.5]


class TestTruncNormCP:
    MODEL = TruncNormCP(lam=1.0, alpha=0.5, q=0.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            TruncNormCP(lam=0.0, alpha=0.5, q=0.1)
        with pytest.raises(DomainError):
            TruncNormCP(lam=1.0, alpha=0.5, q=0.0)
        with pytest.raises(DomainError):
            TruncNormCP(lam=1.0, alpha=0.5, q=1.0)
        with pytest.raises(DomainError):
            TruncNormCP(lam=1.0, alpha=-0.5, q=0.1)

    def test_log_scale_and_mass(self):
        assert self.MODEL.log_scale == pytest.approx(math.log(10.0), rel=1e-15)
        assert self.MODEL.jump_mass == pytest.approx(1.0)

    def test_frozen_values(self):
        # Regression values, originally confirmed with 10^7-draw Monte Carlo.
        m = self.MODEL
        assert laplace_exponent(m, 0.5 + 0j).real == pytest.approx(0.6897518, abs=1e-6)
        assert laplace_exponent(m, 1.0 + 0j).real == pytest.approx(0.8836093, abs=1e-6)
        assert laplace_exponent(m, 2.0 + 0j).real == pytest.approx(0.9784226, abs=1e-6)

    def test_monte_carlo_oracle(self):
        # Independent check: jumps are J = -log(q) * Z with Z ~ N(0,1)
        # conditioned on Z > alpha, and phi(z) = lam * (1 - E[exp(-z J)]).
        m = self.MODEL
        rng = np.random.default_rng(123)
        z_draws = truncnorm.rvs(m.alpha, np.inf, size=10**6, random_state=rng)
        jumps = m.log_scale * z_draws
        for z in (0.5, 1.0, 2.0):
            mc = m.lam * (1.0 - np.exp(-z * jumps).mean())
            got = laplace_exponent(m, complex(z)).real
            assert got == pytest.approx(mc, abs=2e-3)

    def test_zero_and_saturation(self):
        m = self.MODEL
        assert abs(laplace_exponent(m, 0j)) <= 1e-14
        # As Re z -> infinity the exponent saturates at the total jump rate.
        assert laplace_exponent(m, 200.0 + 0j).real == pytest.approx(1.0, rel=1e-6)

    def test_positive_on_positive_axis(self):
        for x in np.linspace(0.05, 30.0, 40):
            val = laplace_exponent(self.MODEL, complex(x, 0.0))
            assert abs(val.imag) <= 1e-12
            # strictly below the total rate mathematically; saturates to 1.0
            # in double precision for large arguments
            assert 0.0 < val.real <= 1.0

    def test_conjugate_symmetry(self):
        for x, y in [(0.5, 1.0), (2.0, 5.0), (1.0, 29.0), (7.0, 13.0)]:
            z = complex(x, y)
            got = laplace_exponent(self.MODEL, z.conjugate())
            assert got == complex(np.conj(laplace_exponent(self.MODEL, z)))

    def test_levy_density(self):
        # jumps are c * Z with c = -log(q), so the support starts at c * alpha
        m = self.MODEL
        c = m.log_scale
        edge = c * m.alpha
        assert np.all(levy_density(m, np.array([0.0, 0.7, edge])) == 0.0)
        want = norm.pdf(2.0 / c) / (c * (1.0 - norm.cdf(0.5)))
        assert levy_density(m, np.array([2.0]))[0] == pytest.approx(want, rel=1e-12)
        x = np.linspace(edge + 1e-9, edge + 12.0 * c, 400001)
        nu = levy_density(m, x)
        assert np.all(nu >= 0)
        want = truncnorm.pdf(x[::1000], m.alpha, np.inf, scale=c)
        assert nu[::1000] == pytest.approx(want, rel=1e-12)
        # the jump measure is normalized to total mass lam
        assert np.trapezoid(nu, x) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("alpha", [5.0, 8.0, 9.0])
    def test_far_truncation_matches_mpmath(self, alpha):
        # 1 - F(alpha) must not be formed by subtraction: at alpha = 8 that
        # loses about 7% of nu, and past 8.29 it is 0
        m = TruncNormCP(lam=1.3, q=0.5, alpha=alpha)
        c = mpmath.mpf(m.log_scale)
        with mpmath.workdps(50):
            tail = mpmath.erfc(alpha / mpmath.sqrt(2))
            for z in (0.5, 1.0, 1.0 + 2.0j):
                want = 1.3 * (1 - mpmath.exp((c * z) ** 2 / 2)
                              * mpmath.erfc((alpha + c * z) / mpmath.sqrt(2)) / tail)
                got = laplace_exponent(m, complex(z))
                assert abs(got - complex(want)) <= 1e-12 * abs(complex(want))
            for x in np.array([1.01, 1.1, 1.5]) * m.log_scale * alpha:
                want = 1.3 * mpmath.npdf(x / c) / (c * tail / 2)
                assert levy_density(m, x) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("model", [
    CPExp(mu=1.8, a=0.7, b=0.2),
    TruncNormCP(lam=1.0, q=0.5, alpha=0.1),
    TruncNormCP(lam=2.0, q=0.1, alpha=0.5),
], ids=["cp_exp", "trunc_norm_example", "trunc_norm_wide"])
@pytest.mark.parametrize("z", [1.0, 1.0 + 2.0j, 1.0 - 3.0j, 0.3 + 7.0j, 5.0])
def test_levy_density_integrates_to_laplace_exponent(model, z):
    # Cross-layer oracle: phi(z) = mu z + int (1 - e^{-zx}) nu(x) dx, so the
    # density and the exponent must describe the same jump law.
    drift = model.mu if isinstance(model, CPExp) else 0.0
    lo = model.log_scale * model.alpha if isinstance(model, TruncNormCP) else 0.0

    def part(fn):
        val, _ = quad(lambda x: fn((1.0 - np.exp(-z * x)) * levy_density(model, x)),
                      lo, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        return val

    got = drift * z + complex(part(np.real), part(np.imag))
    assert abs(got - laplace_exponent(model, z)) <= 1e-9


def _phi_scalar_reference(model, z: complex) -> complex:
    """phi by its per-point formulas in Python complex arithmetic, the lower
    half-plane reflected: how laplace_exponent computed it point by point."""
    if z.imag < 0.0:
        return _phi_scalar_reference(model, z.conjugate()).conjugate()
    if isinstance(model, CPExp):
        return z * (model.mu + model.a / (model.b + z))
    c = model.log_scale
    erfcx = complex(special.wofz(1j * ((model.alpha + c * z) / math.sqrt(2.0))))
    tail = 1.0 - float(special.ndtr(model.alpha))
    scaled_sf = 0.5 * erfcx * cmath.exp(-0.5 * model.alpha**2 - model.alpha * c * z)
    return model.lam * (1.0 - scaled_sf / tail)


ARRAY_MODELS = [CPExp(mu=1.8, a=0.7, b=0.2), TruncNormCP(lam=1.0, q=0.5, alpha=0.1)]
EXAMPLE_MODELS = dict(zip(["cp_exp", "trunc_norm_cp"], ARRAY_MODELS))  # one per kind in MODELS


class TestArrayLaplaceExponent:
    @pytest.mark.parametrize("model", ARRAY_MODELS, ids=["cp_exp", "trunc_norm_cp"])
    def test_array_call_equals_scalar_calls_bitwise(self, model):
        z = _random_points(300, re_lo=0.0, re_hi=30.0, im_lo=-40.0, im_hi=40.0)
        got = laplace_exponent(model, z)
        scalars = [laplace_exponent(model, zj) for zj in z]
        assert all(type(p) is complex for p in scalars)
        assert got.tobytes() == np.array(scalars).tobytes()
        assert laplace_exponent(model, z.reshape(20, 15)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("model", ARRAY_MODELS, ids=["cp_exp", "trunc_norm_cp"])
    def test_conjugate_symmetry_on_arrays(self, model):
        z = _random_points(300, re_lo=0.0, re_hi=30.0, im_lo=-40.0, im_hi=40.0, seed=11)
        np.testing.assert_array_equal(laplace_exponent(model, z.conj()),
                                      laplace_exponent(model, z).conj())

    def test_pole_anywhere_in_array(self):
        z = np.array([1.0 + 2.0j, -0.2 + 0.0j, 3.0 - 1.0j])
        with pytest.raises(PoleError):
            laplace_exponent(CPExp(mu=1.8, a=0.7, b=0.2), z)

    @pytest.mark.parametrize("model, u0, v_max, m", [
        (CPExp(mu=1.8, a=0.7, b=0.2), 29.0, 30.0, 600),
        (TruncNormCP(lam=1.0, q=0.5, alpha=0.1), 1.0, 5.0, 500),
    ], ids=["fig1", "fig3"])
    def test_figure_grids_match_the_scalar_formula(self, model, u0, v_max, m):
        # NumPy's complex division rounds differently from CPython's by a few
        # ulp, so the array path matches the per-point formula to 1e-15, not bitwise
        z = u0 + 1j * (inversion_alphas(EstimationConfig(m_inv=m)) * v_max)
        want = np.array([_phi_scalar_reference(model, complex(zj)) for zj in z])
        got = laplace_exponent(model, z)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


class TestModelConfig:
    @given(
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        mu=st.floats(0.0, 5.0),
    )
    def test_cp_exp_round_trip(self, a, b, mu):
        if mu > 0.0 and a / mu == math.inf:  # a subnormal drift
            with pytest.raises(DomainError, match="^a/mu must be finite"):
                CPExp(a=a, b=b, mu=mu)
            return
        m = CPExp(a=a, b=b, mu=mu)
        assert model_from_config(model_to_config(m)) == m

    def test_trunc_norm_round_trip(self):
        m = TruncNormCP(lam=1.0, alpha=0.5, q=0.1)
        cfg = model_to_config(m)
        assert cfg["model"] == "trunc_norm_cp"
        assert cfg["lambda"] == 1.0
        assert model_from_config(cfg) == m

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_round_trip_over_table(self, kind):
        m = EXAMPLE_MODELS[kind]
        cfg = model_to_config(m)
        assert list(cfg) == ["model", *MODELS[kind].keys]
        assert cfg["model"] == kind and type(m) is MODELS[kind]
        assert model_from_config(cfg) == m

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError):
            model_from_config({"model": "mystery"})

    @pytest.mark.parametrize("kind, key", [("cp_exp", "lambda"), ("trunc_norm_cp", "mu")])
    def test_key_of_another_kind_is_rejected_by_name(self, kind, key):
        cfg = {**model_to_config(EXAMPLE_MODELS[kind]), key: 1.0}
        with pytest.raises(DomainError, match=f"^{kind} has no key '{key}'"):
            model_from_config(cfg)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_non_finite_parameter_is_rejected_by_name(self, kind, value):
        # an infinite drift or truncation point used to reach the sampler
        # (a Beta shape of 0, a series of zeros) or the manifest as Infinity
        model = EXAMPLE_MODELS[kind]
        for f in dataclasses.fields(model):
            with pytest.raises(DomainError, match=f"^{f.name} must be finite, got {value}"):
                dataclasses.replace(model, **{f.name: value})

    @pytest.mark.parametrize("value", ["fast", None, [1.0]])
    def test_non_numeric_parameter_names_its_key(self, value):
        with pytest.raises(DomainError, match="'mu'"):
            model_from_config({"model": "cp_exp", "mu": value, "a": 0.7, "b": 0.2})

    @pytest.mark.parametrize("value", ["1_8", "1.8", True, 10**400],
                             ids=["underscored", "string", "bool", "huge-int"])
    def test_parameter_must_be_a_json_number(self, value):
        # float() reads "1_8" as 18.0, "1.8" as 1.8 and True as 1.0, and
        # overflows on an int past the float range
        with pytest.raises(DomainError) as info:
            model_from_config({"model": "cp_exp", "mu": value, "a": 0.7, "b": 0.2})
        assert str(info.value) == f"cp_exp parameter 'mu' must be a number, got {value!r}"

    def test_int_parameter_reads_as_float(self):
        assert model_from_config({"model": "cp_exp", "mu": 2, "a": 1, "b": 0.2}) == CPExp(
            mu=2.0, a=1.0, b=0.2)
