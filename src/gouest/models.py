"""Parametric Levy subordinator models.

Two finite-activity subordinators are supported:

* ``CPExp`` -- drift ``mu`` plus compound-Poisson jumps with Levy density
  ``nu(x) = a*b*exp(-b*x)`` on ``x > 0`` (total jump mass ``a``).
* ``TruncNormCP`` -- compound Poisson with intensity ``lam`` whose jumps are
  ``-log(q)`` times a standard normal truncated to ``(alpha, inf)``.

Each model class holds its config ``kind`` and ``keys`` (one per field; a
field's metadata holds its CLI ``help``), ``drift``, ``jump_mass`` and three
array methods: ``phi``, the Laplace exponent -log E[exp(-z*xi_1)] on the
closed upper half-plane; ``nu``, the Levy density; ``stationary(n, rng)``,
n draws of A = int_0^inf e^{-xi_t} dt and the law's metadata. ``MODELS``
maps each kind to its class, and the module functions wrap the methods.
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass, field, fields
from typing import ClassVar, Union

import numpy as np

from .errors import DomainError, PoleError, TruncationError

_SQRT2 = np.sqrt(2.0)
# The series sampler's stopping rule: a draw's series is cut once the
# conditional-mean tail bound q^{S_k} / (lam * (1 - q^alpha)) drops below
# _SERIES_ETA times its partial sum; _SERIES_MAX_TERMS caps the terms per draw.
_SERIES_ETA = 1e-12
_SERIES_MAX_TERMS = 10**6


def _require_finite(model) -> None:
    """DomainError naming the first parameter of ``model`` that is inf or NaN."""
    for f in fields(model):
        value = getattr(model, f.name)
        if not np.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class CPExp:
    """Subordinator with drift ``mu`` and exponential jump density a*b*exp(-b*x).

    Total jump mass (intensity) equals ``a``; ``b`` is the jump-size rate.
    Its stationary law is closed form: A ~ Gamma(shape b+1, rate a) for
    zero drift, A ~ Beta(b+1, a/mu) / mu, in (0, 1/mu], otherwise; the
    Beta shape a/mu must be finite.
    """

    kind: ClassVar[str] = "cp_exp"
    keys: ClassVar[tuple] = ("mu", "a", "b")

    mu: float = field(metadata={"help": "drift"})
    a: float = field(metadata={"help": "jump intensity"})
    b: float = field(metadata={"help": "jump-size rate"})

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.mu >= 0.0):
            raise DomainError(f"CPExp requires mu >= 0, got {self.mu}")
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"CPExp requires a, b > 0, got a={self.a}, b={self.b}")
        if self.mu > 0.0 and np.isinf(float(self.a) / float(self.mu)):
            raise DomainError(f"a/mu must be finite, got a={self.a} / mu={self.mu} = inf")

    @property
    def jump_mass(self) -> float:
        return self.a

    @property
    def drift(self) -> float:
        return self.mu

    def phi(self, w: np.ndarray) -> np.ndarray:
        if np.any(w == -self.b):
            raise PoleError(f"Laplace exponent of CPExp has a pole at z = {-self.b:g}")
        return w * (self.mu + self.a / (self.b + w))

    def nu(self, x: np.ndarray) -> np.ndarray:
        # clamp x at 0 before exp so the discarded branch of where cannot overflow
        return np.where(x > 0.0, self.a * self.b * np.exp(-self.b * np.maximum(x, 0.0)), 0.0)

    def stationary(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
        if self.mu == 0.0:
            return rng.gamma(shape=self.b + 1.0, scale=1.0 / self.a, size=n), {"law": "gamma"}
        raw = rng.beta(self.b + 1.0, self.a / self.mu, size=n)
        # guard the measure-zero event of a draw rounding to exactly 0
        np.maximum(raw, np.finfo(float).tiny, out=raw)
        raw /= self.mu
        return raw, {"law": "beta"}


@dataclass(frozen=True)
class TruncNormCP:
    """Compound-Poisson subordinator with truncated-normal jump heights.

    Arrivals have intensity ``lam``; each jump equals ``-log(q)`` times a
    standard normal draw conditioned to exceed ``alpha``.
    """

    kind: ClassVar[str] = "trunc_norm_cp"
    keys: ClassVar[tuple] = ("lambda", "q", "alpha")
    drift: ClassVar[float] = 0.0

    lam: float = field(metadata={"help": "intensity"})
    q: float = field(metadata={"help": "scale parameter in (0,1)"})
    alpha: float = field(metadata={"help": "truncation point"})

    def __post_init__(self) -> None:
        _require_finite(self)
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

    def phi(self, w: np.ndarray) -> np.ndarray:
        from scipy import special

        # phi(z) = lam * [1 - e^{c^2 z^2 / 2} * (1 - F(alpha + c z)) / (1 - F(alpha))]
        # evaluated through the scaled complementary error function:
        #   e^{c^2 z^2/2} (1 - F(alpha + c z)) = erfcx((alpha + c z)/sqrt(2))
        #                                        * e^{-alpha^2/2 - alpha c z} / 2
        # erfcx(w) = wofz(i w) decays like 1/w, so no overflow for large |z|.
        alpha, c = self.alpha, self.log_scale
        erfcx = special.wofz(1j * ((alpha + c * w) / _SQRT2))
        scaled_sf = 0.5 * erfcx * np.exp(-0.5 * alpha**2 - alpha * c * w)
        return self.lam * (1.0 - scaled_sf / special.ndtr(-alpha))

    def nu(self, x: np.ndarray) -> np.ndarray:
        from scipy import special

        # lam * p(x/c) / (c * (1 - F(alpha))) on x > c*alpha, p and F standard normal:
        # the density of the jumps c*Z that stationary draws and phi integrates
        c = self.log_scale
        tail = special.ndtr(-self.alpha)  # 1 - F(alpha) without cancellation
        dens = np.exp(-0.5 * (x / c) ** 2) / np.sqrt(2.0 * np.pi)
        return np.where(x > c * self.alpha, self.lam * dens / (c * tail), 0.0)

    def stationary(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
        """A = sum_{k>=0} q^{S_k} (T_{k+1} - T_k) term by term, where the gaps
        are Exp(lam) and S_k accumulates truncated-normal heights. Each
        draw's k-th term is a deterministic function of the generator's
        state, the draw index and k: random variates are generated in
        full-length blocks per term index regardless of which draws are
        still running, so tightening the tail tolerance only appends terms
        and never changes earlier ones. Raises TruncationError if any draw
        is still above the tail tolerance after _SERIES_MAX_TERMS terms.
        """
        from scipy import special

        lam, q, alpha = self.lam, self.q, self.alpha
        log_q = np.log(q)
        tail_const = 1.0 / (lam * (1.0 - q**alpha))
        cdf_alpha = special.ndtr(alpha)
        if cdf_alpha == 1.0:
            raise DomainError(f"alpha must be below about 8.29 for the series sampler, got "
                              f"{alpha}: its normal cdf rounds to 1 and every height to inf")
        sf_alpha = 1.0 - cdf_alpha
        total, log_q_s = np.zeros(n), np.zeros(n)  # log_q_s: log of q^{S_k}; S_0 = 0
        active = np.ones(n, dtype=bool)
        for _ in range(_SERIES_MAX_TERMS):
            gaps = rng.exponential(scale=1.0 / lam, size=n)
            u = rng.random(n)
            np.add(total, np.exp(log_q_s) * gaps, out=total, where=active)
            # truncated-normal heights by inverse cdf on the tail of (alpha, inf)
            heights = np.empty(n)
            heights[active] = special.ndtri(cdf_alpha + u[active] * sf_alpha)
            np.add(log_q_s, log_q * heights, out=log_q_s, where=active)
            active &= np.exp(log_q_s) * tail_const >= _SERIES_ETA * total
            if not active.any():
                break
        else:
            raise TruncationError(
                f"series sampler: {int(active.sum())} of {n} draws still above the "
                f"tail tolerance {_SERIES_ETA:g} after {_SERIES_MAX_TERMS} terms"
            )
        return total, {"law": "series", "eta": _SERIES_ETA, "n_max": _SERIES_MAX_TERMS}


SubordinatorModel = Union[CPExp, TruncNormCP]
#: Model class by config kind; adding a model is one class and one entry here.
MODELS = {cls.kind: cls for cls in (CPExp, TruncNormCP)}


def model_from_config(config: dict) -> SubordinatorModel:
    """Build a model from a JSON-compatible mapping.

    Accepted shapes::

        {"model": "cp_exp", "mu": 1.8, "a": 0.7, "b": 0.2}
        {"model": "trunc_norm_cp", "lambda": 1.0, "q": 0.5, "alpha": 0.1}

    Raises DomainError for a missing key, an unknown kind, a key that is
    not the kind's, or a parameter that is not a number (a string or bool).
    """
    if not isinstance(config, dict) or "model" not in config:
        raise DomainError(f"model config must be an object with a 'model' key, got {config!r}")
    kind = config["model"]
    try:
        cls = MODELS[kind]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"unknown model kind {kind!r}") from exc
    for key in config:
        if key != "model" and key not in cls.keys:
            raise DomainError(f"{kind} has no key {key!r}; its keys are {', '.join(cls.keys)}")
    params = []
    for key in cls.keys:
        if key not in config:
            raise DomainError(f"{kind} config missing key {key!r}")
        try:
            params.append(json_number(config[key]))
        except (TypeError, OverflowError) as exc:
            raise DomainError(f"{kind} parameter {key!r} must be a number, "
                              f"got {config[key]!r}") from exc
    return cls(*params)


def json_number(value) -> float:
    """float(value) for a real number other than a bool, else TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def model_to_config(model: SubordinatorModel) -> dict:
    """Inverse of :func:`model_from_config`."""
    return {"model": model.kind, **dict(zip(model.keys, astuple(model)))}


def levy_density(model: SubordinatorModel, x) -> np.ndarray | float:
    """Levy density nu(x) of the subordinator's jump measure, ``model.nu``.
    Vectorized over ``x``; scalar in, scalar out."""
    out = model.nu(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


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
    return _conjugate_symmetric(model.phi, z)
