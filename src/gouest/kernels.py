"""Weight functions for the drift/intensity fit and the regularizing kernel
for the Fourier inversion.

The weight lives on the one-sided grid fraction interval [eps, 1]; the
regularizing kernel is symmetric with support [-1, 1] and a flat plateau
K = 1 on |x| <= 0.05, which makes the inversion bias vanish to every
polynomial order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Half-width of the flat-top plateau.
FLAT_TOP_PLATEAU = 0.05


@dataclass(frozen=True)
class WeightSpec:
    """Weight function on [eps, 1] used by the weighted least-squares fit;
    the support edge eps is the fitting band's (``EstimationConfig.eps``).

    variant: "flat" (w = 1 on the support) or "epanechnikov" (parabola
    vanishing at both ends of [eps, 1], peak value 1 at the midpoint).
    """

    variant: str = "flat"

    def __post_init__(self) -> None:
        if self.variant not in ("flat", "epanechnikov"):
            raise DomainError(f"unknown weight variant {self.variant!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Regularizing kernel; only the flat-top kernel is provided."""

    variant: str = "flat_top"

    def __post_init__(self) -> None:
        if self.variant != "flat_top":
            raise DomainError(f"unknown kernel variant {self.variant!r}")


def weight(spec: WeightSpec, alpha, eps: float) -> np.ndarray | float:
    """Evaluate the weight function on [eps, 1] at grid fraction(s) ``alpha``.

    Zero outside [eps, 1]; vectorized over ``alpha``.
    """
    a = np.asarray(alpha, dtype=float)
    inside = (a >= eps) & (a <= 1.0)
    if spec.variant == "flat":
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


def kernel(spec: KernelSpec, x) -> np.ndarray | float:
    """Evaluate the configured regularizing kernel."""
    if spec.variant == "flat_top":
        return flat_top(x)
    raise DomainError(f"unknown kernel variant {spec.variant!r}")


def verify_kernel_condition(spec: KernelSpec, s: int, big_a: float, grid_points: int = 10_000) -> bool:
    """Check |1 - K(x)| <= A*|x|^s numerically on a grid of [-1, 1] \\ {0}.

    For the flat-top kernel the bound holds for every s >= 0 with
    A = sup |1-K(x)|/|x|^s, finite because K = 1 on the plateau.
    """
    if s < 0:
        raise DomainError(f"kernel condition needs s >= 0, got {s}")
    x = np.linspace(-1.0, 1.0, grid_points)
    x = x[x != 0.0]
    lhs = np.abs(1.0 - np.asarray(kernel(spec, x)))
    rhs = big_a * np.abs(x) ** s
    return bool(np.all(lhs <= rhs + 1e-15))
