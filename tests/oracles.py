"""Zero-noise references for the Mellin-transform tests.

The estimator needs only the empirical Mellin transform. These are the exact
counterparts the tests score it against:

* ``cp_exp_mellin(model, z)`` -- the Mellin transform E[A^{z-1}] of a
  ``CPExp`` model's stationary law, in closed form.
* ``laplace_curve_from_mellin(mellin_fn, u0, v_grid)`` -- the ratio curve with
  the empirical moment replaced by an exact Mellin transform, which by the
  moment recursion is the exact Laplace exponent.
"""

import numpy as np

from gouest import DomainError, LaplaceCurve, PoleError
from gouest.models import _conjugate_symmetric


def cp_exp_mellin(model, z):
    """Exact Mellin transform E[A^{z-1}] of the stationary law for
    Re(z) > -b: exp of log-gamma differences that vanish at z = 1, so
    M(1) = 1 exactly; conjugate-symmetric as laplace_exponent is."""
    from scipy import special

    w = np.asarray(z, dtype=complex)
    if np.any(w.real <= -model.b):
        raise DomainError(f"need Re(z) > {-model.b}, got {w[w.real <= -model.b].flat[0]}")
    lg, a, b, mu = special.loggamma, model.a, model.b, model.mu

    def m(u):
        if mu == 0.0:  # Gamma(b+1, rate a)
            return np.exp(lg(b + u) - lg(complex(b + 1.0)) - (u - 1.0) * np.log(a))
        return np.exp((1.0 - u) * np.log(mu) + lg(b + u) - lg(complex(b + 1.0))
                      + lg(complex(b + 1.0 + a / mu)) - lg(b + u + a / mu))
    return _conjugate_symmetric(m, w)


def laplace_curve_from_mellin(mellin_fn, u0: float, v_grid) -> LaplaceCurve:
    """Plug-in curve with the empirical moment replaced by an exact Mellin
    transform; by the moment recursion the result is the exact Laplace
    exponent. Used for zero-noise oracle checks. mellin_fn takes the whole
    z-array at once, as ``cp_exp_mellin`` does."""
    v = np.asarray(v_grid, dtype=float)
    z = u0 + 1j * v
    m1 = np.asarray(mellin_fn(z), dtype=complex)
    m2 = np.asarray(mellin_fn(z + 1.0), dtype=complex)
    if np.any(m2 == 0.0):
        raise PoleError("Mellin denominator vanished on the curve grid")
    return LaplaceCurve(u0=float(u0), v=v, y=z * m1 / m2, denom_abs=np.abs(m2),
                        ill=np.zeros(v.size, dtype=bool), n=0)
