"""Empirical Mellin transforms and the ratio estimator for the Laplace exponent.

The stationary observations satisfy a one-step moment recursion linking the
Mellin transform M(z) = E[X^{z-1}] to the driving Laplace exponent:
phi(z) = z * M(z) / M(z+1). Replacing M by the empirical moment
M_n(z) = (1/n) sum X_k^{z-1} gives the estimator Y_n(z), the first stage of
the estimation pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, PoleError
from .models import laplace_exponent
from .sampling import write_columns_csv

__all__ = [
    "LaplaceCurve",
    "laplace_curve",
    "write_laplace_curve_csv",
]


@dataclass
class LaplaceCurve:
    """Ratio-estimator values Y_n(u0 + i v) on an ordered v-grid."""

    u0: float
    v: np.ndarray
    y: np.ndarray
    denom_abs: np.ndarray
    ill: np.ndarray
    n: int

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=float)
        self.y = np.asarray(self.y, dtype=complex)
        self.denom_abs = np.asarray(self.denom_abs, dtype=float)
        self.ill = np.asarray(self.ill, dtype=bool)
        if not (self.u0 > 0.0):
            raise DomainError(f"u0 must be positive, got {self.u0}")
        if np.any(np.diff(self.v) < 0.0):
            raise DomainError("v-grid must be ordered")
        if not (self.v.shape == self.y.shape == self.denom_abs.shape == self.ill.shape):
            raise DomainError("LaplaceCurve arrays must have equal length")
        if not np.all(self.denom_abs > 0.0):
            raise DomainError("conditioning diagnostics must be positive")


# Binned Taylor kernel of the empirical moments (see laplace_curve):
# observations per block of the sorted sample, phases per chunk of rows x
# bins of a block (2 MB for each of the argument, cosine and sine), the
# bound on the Taylor remainder, and p! (exact in float64) for every Taylor
# term: _bin_plan's half-width is at most 1/2, so its order is at most 16.
_BLOCK = 8192
_PHASES = 2**18
_TAYLOR_TAIL = 2.0**-60
_FACTORIALS = np.array([float(math.factorial(p)) for p in range(16)])


def _bin_plan(w_max: float) -> tuple[float, int]:
    """Bin width h and Taylor order P for frequencies up to w_max: h is the
    largest power of two, at most 1, with w_max*h <= 1, and P the smallest
    order whose remainder bound (w_max*h/2)^P / P! is at most 2^-60."""
    h = 2.0 ** -np.ceil(np.log2(max(w_max, 1.0)))
    half_width = w_max * h / 2.0
    order, tail = 1, half_width
    while tail > _TAYLOR_TAIL:
        order += 1
        tail *= half_width / order
    return h, order


def _binned_moments(x_sorted: np.ndarray, u0: float, w: np.ndarray) -> np.ndarray:
    """sum_k c_kj exp(i w_r log x_k) over the ascending sample for every row r
    of the ascending, nonnegative w and the weights c_k = (x_k^(u0-1),
    x_k^u0)/n: a (rows, 2) complex array.

    Each t = log x lies in a bin b of width h (_bin_plan) with centre
    tau_b = (q + 1/2)h, at u = (t - tau_b)/(h/2) in [-1, 1]. One blocked pass
    sums the moments mu_bpj = sum_{k in b} c_kj u_k^p for p < P; then
    exp(i w t) = exp(i w tau_b) sum_p (i w h/2)^p u^p / p! up to the
    remainder bound, so every row comes from the bins alone.

    The pass only bins and sums; the bins wait in a pending list, and the
    phase stage runs once over all of them at the end of the pass (and
    earlier whenever _BLOCK bins are pending, which bounds the memory of a
    widely spread sample). The moments are real, so the bin phases enter as
    cos(w tau_b) and sin(w tau_b), each contracted with the moments in its
    own real einsum: half the multiply-adds of a complex product. einsum
    and not a BLAS product, because a BLAS product may round a row
    differently depending on the other rows in it, and run_algorithm2
    relies on a band's rows being bitwise the same alone and inside the
    union grid. An overflowing weight is caught once, on the accumulated
    sums: an infinite weight makes its sums inf or nan.
    """
    n = x_sorted.size
    # past 2^52 the float64 log x holds no bit of the phase w log x, and the
    # bin offsets u below hold none either; Python floats, so that an
    # overflowing product is inf without a warning
    log_x_max = max(-math.log(x_sorted[0]), math.log(x_sorted[-1]))
    if float(w[-1]) * log_x_max >= 2.0**52:
        raise DomainError(
            f"largest |v| must be below 2^52 / largest |log x| = {2.0**52 / log_x_max:.6g}, "
            f"got {w[-1]:.6g}")
    h, order = _bin_plan(w[-1])
    # sums_re/im[r, j, p] = sum_b cos/sin(w_r tau_b) mu_bpj
    sums_re = np.zeros((w.size, 2 * order))
    sums_im = np.zeros((w.size, 2 * order))
    weights = np.empty((2, min(n, _BLOCK)))
    pending, pending_bins = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            x = x_sorted[lo:lo + _BLOCK]
            c = weights[:, :x.size]
            t = np.log(x)
            np.exp((u0 - 1.0) * t, out=c[0])
            np.multiply(c[0], x, out=c[1])
            c /= n
            s = t / h
            q = np.floor(s)
            u = 2.0 * (s - q) - 1.0
            starts = np.flatnonzero(np.concatenate(([True], q[1:] != q[:-1])))
            mu = np.empty((2, order, starts.size))
            for p in range(order):
                mu[:, p] = np.add.reduceat(c, starts, axis=1)
                np.multiply(c, u, out=c)
            pending.append((mu.reshape(2 * order, starts.size), (q[starts] + 0.5) * h))
            pending_bins += starts.size
            if pending_bins >= _BLOCK or lo + _BLOCK >= n:
                mu = np.concatenate([m for m, _ in pending], axis=1)
                tau = np.concatenate([tb for _, tb in pending])
                chunk = max(1, _PHASES // tau.size)
                for r in range(0, w.size, chunk):
                    arg = np.multiply.outer(w[r:r + chunk], tau)
                    sums_re[r:r + chunk] += np.einsum("rb,kb->rk", np.cos(arg), mu)
                    sums_im[r:r + chunk] += np.einsum("rb,kb->rk", np.sin(arg), mu)
                pending, pending_bins = [], 0
    if not (np.all(np.isfinite(sums_re)) and np.all(np.isfinite(sums_im))):
        raise DomainError(
            f"empirical Mellin weight x^u0 or x^(u0-1) overflows float64 at u0={u0:g} "
            f"(min x = {x_sorted[0]:.6g}, max x = {x_sorted[-1]:.6g})")
    p = np.arange(order)
    taylor = (w[:, None] * (h / 2.0)) ** p / _FACTORIALS[p] * 1j**p
    sums = (sums_re + 1j * sums_im).reshape(w.size, 2, order)
    return np.einsum("rp,rjp->rj", taylor, sums)


def laplace_curve(sample, u0: float, v_grid) -> LaplaceCurve:
    """Ratio-estimator curve Y_n(u0+iv) over an ordered v-grid.

    Both moments, M_n(u0+iv) and M_n(u0+1+iv), come from one pass over the
    ascending sample against the real weights x^{u0-1}/n and x^{u0}/n, with a
    binned Taylor expansion of the phases e^{iv log x} (the Taylor-series
    NDFT of Anderson & Dahleh, 1996): log x is binned at a power-of-two
    width h with h max|v| <= 1, the pass sums each bin's weighted powers of
    the offset from its centre up to order P, and every |v| is then a sum
    over the bins alone, at a cost of n*P plus bins*|v|*P operations on any
    grid. The phase stage runs once over the bins of the whole pass (in
    parts of at least _BLOCK bins for a widely spread sample). The bin
    moments are real, so each bin phase enters as its cosine and sine,
    contracted in two real einsums; einsum, not a BLAS product,
    keeps every |v| bitwise independent of the other grid points, which the
    fused pipeline of run_algorithm2 relies on. The truncation error is at
    most 2^-60 sum|c_k| per bin; the rest is rounding of the same order as
    a direct sum's, so the curve agrees with a direct sum to 1e-12 relative
    in Y and in |M_n(u0+1+iv)| on the estimators' grids. Negative v come
    from the positive half by conjugation. A point is ill-conditioned when
    |M_n(u0+1+iv)| is below the sampling-noise scale 10/sqrt(n) of the
    empirical moment, where the ratio carries no signal. Raises DomainError
    when a weight overflows float64, which shows as a non-finite accumulated
    sum, and when max|v| * max|log x| reaches 2^52, past which the phases
    v log x have no bits.

    The moments read only the multiset of values, so an ascending sample is
    passed as it is and any other is sorted into a copy: the caller's array
    is never reordered, and the curve is bitwise the same either way.
    """
    values = sample.values
    if not (u0 > 0.0):
        raise DomainError(f"u0 must be positive, got {u0}")
    v = np.asarray(v_grid, dtype=float)
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise DomainError("need a nonempty, finite 1-d v-grid")

    v_abs, inverse = np.unique(np.abs(v), return_inverse=True)
    ascending = values if np.all(values[:-1] <= values[1:]) else np.sort(values)
    moments = _binned_moments(ascending, u0, v_abs)[inverse]
    np.conj(moments, out=moments, where=(v < 0.0)[:, None])
    m1, m2 = moments[:, 0], moments[:, 1]

    z = u0 + 1j * v
    if np.any(m2 == 0.0):
        raise PoleError("empirical Mellin denominator vanished on the curve grid")
    y = z * m1 / m2
    denom_abs = np.abs(m2)
    return LaplaceCurve(u0=float(u0), v=v, y=y, denom_abs=denom_abs,
                        ill=denom_abs < 10.0 / np.sqrt(values.size), n=values.size)


def write_laplace_curve_csv(curve: LaplaceCurve, path: str | Path, model=None) -> Path:
    """Write the curve as CSV: v, re_Y, im_Y, abs_Y, denom_abs, ill_flag, and
    with a model its Laplace exponent at u0 + iv as re_phi, im_phi."""
    columns = {
        "v": curve.v, "re_Y": curve.y.real, "im_Y": curve.y.imag,
        "abs_Y": np.hypot(curve.y.real, curve.y.imag),
        "denom_abs": curve.denom_abs, "ill_flag": curve.ill,
    }
    if model is not None:
        phi = laplace_exponent(model, curve.u0 + 1j * curve.v)
        columns.update(re_phi=phi.real, im_phi=phi.imag)
    return write_columns_csv(path, columns)
