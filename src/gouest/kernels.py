"""The regularizing kernel of the Fourier inversion.

The kernel is symmetric with support [-1, 1] and a flat plateau K = 1 on
|x| <= 0.05, which makes the inversion bias vanish to every polynomial
order.
"""

from __future__ import annotations

import numpy as np

#: Half-width of the flat-top plateau.
FLAT_TOP_PLATEAU = 0.05


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
