"""Package acceptance suite: nine end-to-end checks at pinned tolerances.

Each test prints one summary line with the measured quantities before
asserting, so a verbose run gives a one-line verdict per check.

At a fixed cutoff V the kernel-windowed inversion estimates the truth seen
through its window, (1/2 pi) int e^{-ivx} K(v/V) F[nu_bar](-v) dv, not the
raw density. Checks 5 and 6 therefore score the inversion against that
windowed truth, computed here by adaptive quadrature independently of the
package's inversion sum. Check 5 also prints its distance to the raw
density: a smoothing bias that no sample size removes at a fixed cutoff.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.special import erf, loggamma

from gouest import (
    CPExp,
    EstimationConfig,
    RateStudyConfig,
    TruncNormCP,
    fit_alphas,
    flat_top,
    inversion_alphas,
    invert_levy_density,
    laplace_curve,
    laplace_curve_from_mellin,
    laplace_exponent,
    levy_density,
    rate_study,
    run_algorithm1,
    run_algorithm2,
    sample_stationary,
)

EXAMPLE1 = CPExp(mu=1.8, a=0.7, b=0.2)
EXAMPLE2 = TruncNormCP(lam=1.0, q=0.5, alpha=0.1)


@pytest.fixture(scope="module")
def rate_report():
    """Shared 25-replicate study over n in {1e3, 1e4, 1e5} (checks 4 and 7)."""
    study = RateStudyConfig(
        n_ladder=(10**3, 10**4, 10**5), replicates=25, beta=0.7 / 1.8, smoothness=0
    )
    template = EstimationConfig(u0=29.0, vn=30.0)
    return rate_study(study, EXAMPLE1, template, seed=0)


def test_01_mellin_recursion_oracle():
    """Closed-form stationary Mellin transforms satisfy z M(z)/M(z+1) = phi(z)."""
    worst = 0.0
    for u0 in (1.0, 5.0, 29.0):
        v = np.linspace(-30.0, 30.0, 50)
        z = u0 + 1j * v
        gamma_case = CPExp(mu=0.0, a=0.7, b=0.2)
        for mellin, model in [(EXAMPLE1.mellin, EXAMPLE1), (gamma_case.mellin, gamma_case)]:
            for zj in z:
                got = zj * mellin(zj) / mellin(zj + 1.0)
                err = abs(got - laplace_exponent(model, zj))
                worst = max(worst, err)
    ok = worst <= 1e-8
    print(f"[check 1] recursion max |z M(z)/M(z+1) - phi(z)| = {worst:.2e} "
          f"(tol 1e-08) -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_02_plugin_chain_affine_exactness():
    """Exact Mellin values whose ratio curve is affine are recovered exactly.

    The zero-jump-decay limit of the drift model has Laplace exponent
    mu z + lambda and exact Mellin transform
    Gamma(1+r) mu^{1-z} Gamma(z) / Gamma(z+r) with r = lambda/mu; feeding it
    through the fitting pipeline must return mu and lambda to 1e-6.
    """
    mu_true, lam_true = 1.8, 0.7
    r = lam_true / mu_true

    def exact_mellin(z):
        return np.exp(
            loggamma(1.0 + r)
            + (1.0 - z) * math.log(mu_true)
            + loggamma(z)
            - loggamma(z + r)
        )

    config = EstimationConfig()
    v_fit = config.vn * fit_alphas(config)
    curve = laplace_curve_from_mellin(exact_mellin, config.u0, v_fit)
    fit = run_algorithm1(curve, config)
    mu_hat, lam_hat = fit.mu_hat, fit.lambda_hat
    err_mu, err_lam = abs(mu_hat - mu_true), abs(lam_hat - lam_true)
    ok = err_mu <= 1e-6 and err_lam <= 1e-6
    print(f"[check 2] plug-in recovery |mu_hat-1.8| = {err_mu:.2e}, "
          f"|lambda_hat-0.7| = {err_lam:.2e} (tol 1e-06) -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_03_laplace_curve_reproduction():
    """Estimated ratio curves track the Laplace exponent at n = 1e4."""
    # first example: wide band, line at u0 = 29, tolerance 15% for |v| <= 10
    v1 = np.linspace(-30.0, 30.0, 601)
    band1 = np.abs(v1) <= 10.0
    phi1 = np.array([laplace_exponent(EXAMPLE1, complex(29.0, v)) for v in v1])
    pass1 = 0
    worst1 = []
    for rep in range(25):
        s = sample_stationary(EXAMPLE1, 10**4, seed=rep)
        curve = laplace_curve(s, 29.0, v1)
        rel = np.abs(curve.y - phi1) / np.abs(phi1)
        worst1.append(rel[band1].max())
        pass1 += worst1[-1] <= 0.15

    # second example: line at u0 = 1, tolerance 10% for |v| <= 3
    v2 = np.linspace(-5.0, 5.0, 501)
    band2 = np.abs(v2) <= 3.0
    phi2 = np.array([laplace_exponent(EXAMPLE2, complex(1.0, v)) for v in v2])
    pass2 = 0
    worst2 = []
    for rep in range(25):
        s = sample_stationary(EXAMPLE2, 10**4, seed=rep)
        curve = laplace_curve(s, 1.0, v2)
        rel = np.abs(curve.y - phi2) / np.abs(phi2)
        worst2.append(rel[band2].max())
        pass2 += worst2[-1] <= 0.10

    ok = pass1 >= 20 and pass2 >= 20
    print(f"[check 3] curve reproduction: example 1 {pass1}/25 "
          f"(median band err {np.median(worst1):.4f}), example 2 {pass2}/25 "
          f"(median band err {np.median(worst2):.4f}); need >= 20/25 "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert pass1 >= 20
    assert pass2 >= 20


def test_04_error_medians_decrease_with_n(rate_report):
    """Median fitting errors fall as the sample grows; drift error small at 1e5."""
    med_mu = np.sqrt(rate_report.median_sq_err_mu)
    med_lam = np.sqrt(rate_report.median_sq_err_lambda)
    decreasing = bool(np.all(np.diff(med_mu) < 0) and np.all(np.diff(med_lam) < 0))
    final_ok = med_mu[-1] <= 0.2
    print(f"[check 4] medians mu {np.array2string(med_mu, precision=6)}, "
          f"lambda {np.array2string(med_lam, precision=6)}; strictly decreasing: "
          f"{decreasing}; mu median at n=1e5 = {med_mu[-1]:.2e} (tol 0.2) "
          f"-> {'PASS' if decreasing and final_ok else 'FAIL'}")
    assert decreasing
    assert final_ok


def _windowed_tilted_truth(fourier, vn, x):
    """(1/2 pi) int_{-V}^{V} e^{-ivx} K(v/V) F(v) dv on the x-grid, for the
    transform F(v) = int e^{ivx} nu_bar(x) dx of a real density, by adaptive
    quadrature over [0, V] (F(-v) = conj F(v))."""
    def integrand(v):
        return (fourier(v) * np.exp(-1j * v * x)).real * flat_top(v / vn)

    value, _ = quad_vec(integrand, 0.0, vn, epsabs=1e-14, epsrel=1e-12)
    return value / math.pi


def test_05_inversion_round_trip_at_cutoff_5():
    """Exact-input spectral inversion at cutoff 5 against the windowed tilted
    density.

    The tilted density a b e^{-(b+u0)x} jumps at 0, so no cutoff-5 inversion
    comes near the raw density (relative L2 error ~0.36); the inversion sum
    must instead reproduce the continuous windowed integral of the exact
    transform.
    """
    a, b, u0 = 0.7, 0.2, 1.0
    config = EstimationConfig(u0=u0, vn=5.0, m_inv=400)
    v = config.vn * inversion_alphas(config)
    fhat = a * b / (b + u0 - 1j * v)
    x = np.linspace(0.0, 3.0, 601)
    est = invert_levy_density(fhat, config, x)
    truth = _windowed_tilted_truth(lambda w: a * b / (b + u0 - 1j * w), config.vn, x)
    raw = a * b * np.exp(-(b + u0) * x)

    def rel_l2(target):
        err = est.nu_bar_hat - target
        return math.sqrt(np.trapezoid(err**2, x) / np.trapezoid(target**2, x))

    norm_ratio, raw_ratio = rel_l2(truth), rel_l2(raw)
    ok = norm_ratio <= 1e-6
    print(f"[check 5] inversion round-trip relative L2 error against the windowed "
          f"truth = {norm_ratio:.2e} (tol 1e-06; against the raw density "
          f"{raw_ratio:.4f}) -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_06_end_to_end_density_reconstruction():
    """Second-example pipeline: small imaginary residual; peak location.

    The residual clause passes structurally (conjugate-symmetric grids).
    The peak is compared with that of the windowed truth at the same cutoff,
    u0 and kernel, built from the Fourier transform of e^{-u0 x} nu(x)
    taken by quadrature: the raw density peaks at its support edge, which
    the cutoff-6 window smooths away even for noiseless input.
    """
    config = EstimationConfig(u0=1.0, vn=6.0, eps=0.5)
    x = np.linspace(0.0, 3.0, 301)
    window = (x >= 0.1) & (x <= 3.0)
    edge = EXAMPLE2.log_scale * EXAMPLE2.alpha

    def tilted(s):
        return math.exp(-config.u0 * s) * levy_density(EXAMPLE2, s)

    def fourier(v):
        # the density is below 1e-300 beyond edge + 40 (40 / c = 58 sd)
        re = quad(tilted, edge, edge + 40.0, weight="cos", wvar=v, limit=200)[0]
        im = quad(tilted, edge, edge + 40.0, weight="sin", wvar=v, limit=200)[0]
        return complex(re, im)

    truth_bar = _windowed_tilted_truth(fourier, config.vn, x)
    truth = np.exp(config.u0 * x) * truth_bar
    true_argmax = x[window][np.argmax(truth[window])]
    true_argmax_tilted = x[window][np.argmax(truth_bar[window])]

    ok_imag = ok_arg = ok_arg_tilted = 0
    argmaxes = []
    for rep in range(25):
        s = sample_stationary(EXAMPLE2, 10**4, seed=rep)
        est = run_algorithm2(s, config, x)
        ratio = np.abs(est.imag_residual[window]).max() / np.abs(est.nu_hat[window]).max()
        ok_imag += ratio <= 0.15
        recon_argmax = x[window][np.argmax(est.nu_hat[window])]
        argmaxes.append(recon_argmax)
        ok_arg += abs(recon_argmax - true_argmax) <= 0.3
        tilted_argmax = x[window][np.argmax(est.nu_bar_hat[window])]
        ok_arg_tilted += abs(tilted_argmax - true_argmax_tilted) <= 0.3

    ok = ok_imag >= 20 and ok_arg >= 20
    print(f"[check 6] imaginary residual {ok_imag}/25; argmax within 0.3 of the "
          f"windowed truth's {true_argmax:.2f}: {ok_arg}/25 (tilted reading "
          f"{ok_arg_tilted}/25 around {true_argmax_tilted:.2f}, median recon "
          f"argmax {np.median(argmaxes):.2f}); need >= 20/25 "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok_imag >= 20
    assert ok_arg >= 20, (
        f"argmax clause: {ok_arg}/25 within +/-0.3 of the windowed truth's mode "
        f"{true_argmax:.2f} (tilted reading {ok_arg_tilted}/25); median "
        f"reconstructed argmax {np.median(argmaxes):.2f}"
    )


def test_07_rate_slope_in_band(rate_report):
    """Log-log slope of the drift error across the ladder sits in [-1.6, -0.6]."""
    slope = rate_report.slope_mu
    ok = -1.6 <= slope <= -0.6
    print(f"[check 7] fitted log-log slope of median squared drift error = "
          f"{slope:.4f} (band [-1.6, -0.6]) -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_08_kernel_condition():
    """Flat-top kernel satisfies |1 - K(x)| <= A |x|^s for the stated orders."""
    x = np.linspace(-1.0, 1.0, 10**4)
    x = x[x != 0.0]
    gap = np.abs(1.0 - flat_top(x))
    results = {s: bool(np.all(gap <= 1.0 / 0.05**s * np.abs(x) ** s + 1e-15))
               for s in (0, 1, 2, 4)}
    ok = all(results.values())
    print(f"[check 8] kernel condition by order: {results} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_09_special_function_identities():
    """scipy's complex erf and log-gamma (CPExp.mellin's loggamma) keep their
    identities at 100 random complex points."""
    rng = np.random.default_rng(2026)
    worst_erf = worst_lg = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-6.0, 6.0), rng.uniform(-25.0, 25.0))
        f = erf(z)
        worst_erf = max(worst_erf, abs(erf(-z) + f) / max(1.0, abs(f)))
        assert erf(np.conj(z)) == complex(np.conj(f))

        w = complex(rng.uniform(0.2, 12.0), rng.uniform(-25.0, 25.0))
        lhs = loggamma(w + 1.0)
        rhs = loggamma(w) + np.log(w)
        worst_lg = max(worst_lg, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert loggamma(np.conj(w)) == complex(np.conj(loggamma(w)))
    ok = worst_erf <= 1e-12 and worst_lg <= 1e-12
    print(f"[check 9] worst relative identity error: erf oddness {worst_erf:.2e}, "
          f"log-gamma recurrence {worst_lg:.2e} (tol 1e-12) -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok
