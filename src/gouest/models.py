"""Parametric Levy subordinator models.

Two finite-activity subordinators are supported:

* ``CPExp`` -- drift ``mu`` plus compound-Poisson jumps with Levy density
  ``nu(x) = a*b*exp(-b*x)`` on ``x > 0`` (total jump mass ``a``).
* ``TruncNormCP`` -- compound Poisson with intensity ``lam`` whose jumps are
  ``-log(q)`` times a standard normal truncated to ``(alpha, inf)``.

Each model exposes its exact Laplace exponent ``phi(z) = -log E[exp(-z*xi_1)]``
and its Levy density, together with the complex special functions needed to
evaluate them off the real axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .errors import AccuracyError, DomainError, PoleError

#: Declared accuracy envelope for complex_erf: |Im z| must not exceed this.
ERF_IM_ENVELOPE = 30.0

_SQRT2 = np.sqrt(2.0)


def complex_erf(z: complex) -> complex:
    """Error function for complex argument.

    Accurate to ~1e-13 relative error inside the envelope |Im z| <= 30,
    wherever the result is representable in double precision.

    Parameters
    ----------
    z : complex
        Evaluation point.

    Returns
    -------
    complex

    Raises
    ------
    AccuracyError
        If |Im z| > 30, or if the result overflows double precision
        (|erf| grows like exp(y^2) along the imaginary direction, which
        exceeds the double range once y^2 - x^2 is large enough; no
        double-precision implementation can represent those values).
    """
    z = complex(z)
    if abs(z.imag) > ERF_IM_ENVELOPE:
        raise AccuracyError(
            f"complex_erf: |Im z| = {abs(z.imag):g} exceeds the accuracy envelope "
            f"{ERF_IM_ENVELOPE:g}"
        )
    # Reflect to Re z >= 0 so that erf(-z) = -erf(z) holds exactly.
    if z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0):
        return -complex_erf(-z)
    out = complex(special.erf(z))
    if not (np.isfinite(out.real) and np.isfinite(out.imag)):
        raise AccuracyError(
            f"complex_erf: value at z = {z} overflows double precision; "
            "the 1e-12 accuracy contract is unattainable there"
        )
    return out


def complex_log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma for complex argument.

    Satisfies exp(clg(z+1)) = z*exp(clg(z)) to ~1e-13 relative error.

    Raises
    ------
    PoleError
        At the poles z = 0, -1, -2, ... of the Gamma function.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"log Gamma has a pole at z = {z.real:g}")
    return complex(special.loggamma(z))


@dataclass(frozen=True)
class CPExp:
    """Subordinator with drift ``mu`` and exponential jump density a*b*exp(-b*x).

    Total jump mass (intensity) equals ``a``; ``b`` is the jump-size rate.
    """

    mu: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.mu >= 0.0):
            raise DomainError(f"CPExp requires mu >= 0, got {self.mu}")
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"CPExp requires a, b > 0, got a={self.a}, b={self.b}")

    @property
    def jump_mass(self) -> float:
        return self.a


@dataclass(frozen=True)
class TruncNormCP:
    """Compound-Poisson subordinator with truncated-normal jump heights.

    Arrivals have intensity ``lam``; each jump equals ``-log(q)`` times a
    standard normal draw conditioned to exceed ``alpha``.
    """

    lam: float
    q: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.lam > 0.0):
            raise DomainError(f"TruncNormCP requires lam > 0, got {self.lam}")
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"TruncNormCP requires 0 < q < 1, got {self.q}")
        if not (self.alpha > 0.0):
            raise DomainError(f"TruncNormCP requires alpha > 0, got {self.alpha}")

    @property
    def jump_mass(self) -> float:
        return self.lam

    @property
    def log_scale(self) -> float:
        """Jump scale c = -log(q) > 0."""
        return -np.log(self.q)


SubordinatorModel = Union[CPExp, TruncNormCP]


def model_from_config(config: dict) -> SubordinatorModel:
    """Build a model from a JSON-compatible mapping.

    Accepted shapes::

        {"model": "cp_exp", "mu": 1.8, "a": 0.7, "b": 0.2}
        {"model": "trunc_norm_cp", "lambda": 1.0, "q": 0.5, "alpha": 0.1}

    Raises DomainError for a missing key, an unknown kind, or a parameter
    that is not a number.
    """
    try:
        kind = config["model"]
    except KeyError as exc:
        raise DomainError("model config must contain a 'model' key") from exc
    if kind == "cp_exp":
        cls, keys = CPExp, ("mu", "a", "b")
    elif kind == "trunc_norm_cp":
        cls, keys = TruncNormCP, ("lambda", "q", "alpha")
    else:
        raise DomainError(f"unknown model kind {kind!r}")
    params = []
    for key in keys:
        if key not in config:
            raise DomainError(f"{kind} config missing key {key!r}")
        try:
            params.append(float(config[key]))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{kind} parameter {key!r} must be a number, "
                              f"got {config[key]!r}") from exc
    return cls(*params)


def model_to_config(model: SubordinatorModel) -> dict:
    """Inverse of :func:`model_from_config`."""
    if isinstance(model, CPExp):
        return {"model": "cp_exp", "mu": model.mu, "a": model.a, "b": model.b}
    if isinstance(model, TruncNormCP):
        return {"model": "trunc_norm_cp", "lambda": model.lam, "q": model.q, "alpha": model.alpha}
    raise DomainError(f"not a subordinator model: {model!r}")


def levy_density(model: SubordinatorModel, x) -> np.ndarray | float:
    """Levy density nu(x) of the subordinator's jump measure.

    For ``CPExp``: a*b*exp(-b*x) on x > 0, else 0.
    For ``TruncNormCP``: lam * p(x/c) / (c * (1 - F(alpha))) on x > c*alpha,
    else 0, with c = -log(q) and p, F the standard normal density and
    distribution function: the density of the jumps c*Z that the sampler
    draws and :func:`laplace_exponent` integrates.

    Vectorized over ``x``; scalar in, scalar out.
    """
    x_arr = np.asarray(x, dtype=float)
    if isinstance(model, CPExp):
        # clamp x at 0 before exp so the discarded branch of where cannot overflow
        out = np.where(x_arr > 0.0, model.a * model.b * np.exp(-model.b * np.maximum(x_arr, 0.0)), 0.0)
    elif isinstance(model, TruncNormCP):
        c = model.log_scale
        tail = 1.0 - special.ndtr(model.alpha)
        dens = np.exp(-0.5 * (x_arr / c) ** 2) / np.sqrt(2.0 * np.pi)
        out = np.where(x_arr > c * model.alpha, model.lam * dens / (c * tail), 0.0)
    else:
        raise DomainError(f"not a subordinator model: {model!r}")
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _conjugate_symmetric(f, z):
    """f evaluated on the upper half-plane and conjugated below it, so that
    f(conj z) = conj f(z) holds exactly. f maps a complex array elementwise;
    a scalar z gives a complex, an array an array. A scalar goes through f as
    a 1-element array, because NumPy's scalar arithmetic may round
    differently from its array loops."""
    w = np.asarray(z, dtype=complex)
    lower = w.imag < 0.0
    out = f(np.atleast_1d(np.where(lower, w.conj(), w)))
    out = np.where(lower, out.conj(), out)
    return complex(out[0]) if w.ndim == 0 else out


def laplace_exponent(model: SubordinatorModel, z):
    """Laplace exponent phi(z) = -log E[exp(-z*xi_1)] of the subordinator.

    Admissible points: Re(z) > -b for ``CPExp``; Re(z) >= 0 for
    ``TruncNormCP`` (the formula extends further but is only contracted
    there). Vectorized over ``z``; a scalar gives a complex. Conjugate
    symmetry phi(conj z) = conj(phi(z)) holds exactly through
    ``_conjugate_symmetric``.

    Raises
    ------
    PoleError
        For ``CPExp`` if any point is z = -b.
    """
    if isinstance(model, CPExp):
        if np.any(np.asarray(z) == -model.b):
            raise PoleError(f"Laplace exponent of CPExp has a pole at z = {-model.b:g}")
        return _conjugate_symmetric(lambda w: w * (model.mu + model.a / (model.b + w)), z)
    if isinstance(model, TruncNormCP):
        # phi(z) = lam * [1 - e^{c^2 z^2 / 2} * (1 - F(alpha + c z)) / (1 - F(alpha))]
        # evaluated through the scaled complementary error function:
        #   e^{c^2 z^2/2} (1 - F(alpha + c z)) = erfcx((alpha + c z)/sqrt(2))
        #                                        * e^{-alpha^2/2 - alpha c z} / 2
        # erfcx(w) = wofz(i w) decays like 1/w, so no overflow for large |z|.
        lam, alpha, c = model.lam, model.alpha, model.log_scale
        tail = 1.0 - special.ndtr(alpha)

        def phi(w):
            erfcx = special.wofz(1j * ((alpha + c * w) / _SQRT2))
            scaled_sf = 0.5 * erfcx * np.exp(-0.5 * alpha**2 - alpha * c * w)
            return lam * (1.0 - scaled_sf / tail)

        return _conjugate_symmetric(phi, z)
    raise DomainError(f"not a subordinator model: {model!r}")
