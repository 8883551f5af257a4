"""Weight functions for the drift/intensity fit and the regularizing kernel
for the Fourier inversion.

The weight lives on the one-sided grid fraction interval [eps, 1]; the
regularizing kernel is symmetric with support [-1, 1] and a flat plateau
K = 1 on |x| <= 0.05, which makes the inversion bias vanish to every
polynomial order.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

#: Half-width of the flat-top plateau.
FLAT_TOP_PLATEAU = 0.05

#: Fit-weight variants: "flat" (w = 1 on the support) or "epanechnikov"
#: (parabola vanishing at both ends of [eps, 1], peak value 1 at the midpoint).
WEIGHT_VARIANTS = ("flat", "epanechnikov")


def weight(variant: str, alpha, eps: float) -> np.ndarray | float:
    """Evaluate the fit weight ``variant`` (one of :data:`WEIGHT_VARIANTS`) on
    [eps, 1] at grid fraction(s) ``alpha``; eps is the fitting band's
    (``EstimationConfig.eps``).

    Zero outside [eps, 1]; vectorized over ``alpha``.
    """
    if variant not in WEIGHT_VARIANTS:
        raise DomainError(f"unknown weight variant {variant!r}")
    a = np.asarray(alpha, dtype=float)
    inside = (a >= eps) & (a <= 1.0)
    if variant == "flat":
        out = np.where(inside, 1.0, 0.0)
    else:
        # parabola on [eps, 1], rescaled to peak at 1 in the midpoint
        t = (2.0 * a - (1.0 + eps)) / (1.0 - eps)
        out = np.where(inside, np.maximum(1.0 - t**2, 0.0), 0.0)
    if np.ndim(alpha) == 0:
        return float(out)
    return out


def flat_top(x) -> np.ndarray | float:
    """Flat-top kernel.

    K(x) = 1 for |x| <= 0.05, 0 for |x| >= 1, and
    exp(-exp(-1/(|x|-0.05)) / (1-|x|)) in between. Symmetric, continuous,
    values in [0, 1]. Vectorized over ``x``.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    # evaluate the middle branch only on its domain; elsewhere use safe dummies
    mid = (ax > FLAT_TOP_PLATEAU) & (ax < 1.0)
    ax_safe = np.where(mid, ax, 0.5)
    val = np.exp(-np.exp(-1.0 / (ax_safe - FLAT_TOP_PLATEAU)) / (1.0 - ax_safe))
    out = np.where(ax <= FLAT_TOP_PLATEAU, 1.0, np.where(ax >= 1.0, 0.0, val))
    if np.ndim(x) == 0:
        return float(out)
    return out


def verify_kernel_condition(s: int, big_a: float, grid_points: int = 10_000) -> bool:
    """Check |1 - K(x)| <= A*|x|^s for the flat-top kernel numerically on a
    grid of [-1, 1] \\ {0}.

    The bound holds for every s >= 0 with A = sup |1-K(x)|/|x|^s, finite
    because K = 1 on the plateau.
    """
    if s < 0:
        raise DomainError(f"kernel condition needs s >= 0, got {s}")
    x = np.linspace(-1.0, 1.0, grid_points)
    x = x[x != 0.0]
    lhs = np.abs(1.0 - flat_top(x))
    rhs = big_a * np.abs(x) ** s
    return bool(np.all(lhs <= rhs + 1e-15))
