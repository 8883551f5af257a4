"""Empirical and theoretical Mellin transforms and the ratio estimator for
the Laplace exponent.

The stationary observations satisfy a one-step moment recursion linking the
Mellin transform M(z) = E[X^{z-1}] to the driving Laplace exponent:
phi(z) = z * M(z) / M(z+1). Replacing M by the empirical moment
M_n(z) = (1/n) sum X_k^{z-1} gives the estimator Y_n(z), the shared first
stage of both estimation pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DomainError, PoleError
from .models import complex_log_gamma
from .sampling import Sample, write_columns_csv

__all__ = [
    "LaplaceCurve",
    "default_floor",
    "laplace_curve",
    "laplace_curve_from_mellin",
    "mellin_theoretical_beta",
    "mellin_theoretical_gamma",
    "symmetric_grid",
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
    meta: dict = field(default_factory=dict)

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


def default_floor(n: int) -> float:
    """Conditioning floor 10/sqrt(n): below the sampling-noise scale of the
    empirical moment the ratio estimator carries no signal."""
    return 10.0 / np.sqrt(n)


def _values_of(sample) -> np.ndarray:
    """Observations of a Sample, or of a raw array validated as one."""
    return (sample if isinstance(sample, Sample) else Sample(values=sample)).values


# Phase recurrence of the empirical moments (see laplace_curve): rows between
# direct reseeds, and observations per block, so one block of phases is at most
# 64 x 4096 complex values (4 MB) whatever the grid and the sample size.
_RESEED_ROWS = 64
_BLOCK = 4096
# A row stays in a run while it lies within this many ulps of the run's
# progression. The offset is corrected to first order, which leaves an error
# of (offset * log x)^2 / 2, far below rounding; an irregular grid reseeds.
_PROGRESSION_ULPS = 64


def symmetric_grid(v_max: float, m: int) -> np.ndarray:
    """The m+1 points v_max*(2k - m)/m, k = 0..m, built from integer indices
    so that v and -v are exact negatives and laplace_curve computes each
    |v| once."""
    k = np.arange(m + 1)
    return (2 * k - m) / m * v_max


def _recurrence_runs(w: np.ndarray):
    """Split the ascending rows w into runs (start, stop, step) of at most 64
    rows: row start is reseeded, and row start+j lies on the progression
    w[start] + j*step up to an offset of at most _PROGRESSION_ULPS ulps. A
    run needs three rows on its progression, so every row of an irregular
    grid is a reseed. Returns the runs and every row's exact offset from its progression
    (0 at a reseed)."""
    tol = _PROGRESSION_ULPS * np.finfo(float).eps
    runs, offsets, start = [], np.zeros(w.size), 0
    while start < w.size:
        stop = start + 1
        step = w[stop] - w[start] if stop < w.size else 0.0
        while stop < w.size and stop - start < _RESEED_ROWS:
            offset = float(Fraction(w[stop]) - Fraction(w[start])
                           - (stop - start) * Fraction(step))
            if abs(offset) > tol * w[stop]:
                break
            offsets[stop] = offset
            stop += 1
        if stop - start == 2:
            # a single step costs an exp like a reseed and is not exact
            stop, offsets[start + 1] = start + 1, 0.0
        runs.append((start, stop, step))
        start = stop
    return runs, offsets


def _phase_moments(log_x: np.ndarray, weights: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k weights[k, j] exp(i w_r log x_k) for every row r of the ascending,
    nonnegative w: a (rows, columns) complex array.

    Per block of observations, each run from _recurrence_runs starts from a
    direct exp and advances by one complex multiply per row,
    e^{i(w+step)t} = e^{iwt} e^{i step t}. The filled block meets the real
    weights c and c*t in one matrix product; the second set applies the
    first-order offset correction e^{i offset t} = 1 + i offset t.
    """
    runs, offsets = _recurrence_runs(w)
    columns = weights.shape[1]
    sums = np.zeros((w.size, 2 * columns), dtype=complex)
    phase = np.empty((_RESEED_ROWS, min(_BLOCK, log_x.size)), dtype=complex)
    for lo in range(0, log_x.size, _BLOCK):
        t = log_x[lo:lo + _BLOCK]
        c = weights[lo:lo + _BLOCK]
        block_weights = np.hstack([c, c * t[:, None]]).astype(complex)
        for start, stop, step in runs:
            rows = phase[:stop - start, :t.size]
            np.exp(1j * w[start] * t, out=rows[0])
            if stop - start > 1:
                advance = np.exp(1j * step * t)
                for j in range(1, stop - start):
                    np.multiply(rows[j - 1], advance, out=rows[j])
            sums[start:stop] += rows @ block_weights
    return sums[:, :columns] + 1j * offsets[:, None] * sums[:, columns:]


def laplace_curve(sample, u0: float, v_grid, floor: float | None = None) -> LaplaceCurve:
    """Ratio-estimator curve Y_n(u0+iv) over an ordered v-grid.

    Both moments, M_n(u0+iv) and M_n(u0+1+iv), come from one pass over the
    sample against the stacked real weights x^{u0-1}/n and x^{u0}/n. The
    phases e^{iv log x} are built by recurrence over the sorted unique |v|:
    a direct exp at a reseed row (every 64 rows, and wherever the spacing of
    |v| changes, so an irregular grid is all reseeds), one complex multiply
    by e^{i dv log x} per row in between, with the rows' ulp-sized offsets
    from an exact progression corrected to first order. Each phase thus
    carries an error of the order of the rounding of v log x that a direct
    exp makes; on the estimators' grids the curve agrees with a direct sum
    to 1e-12 relative in Y and in |M_n(u0+1+iv)|. Negative v come from the
    positive half by conjugation. Raises DomainError when a weight
    overflows float64.
    """
    values = _values_of(sample)
    if not (u0 > 0.0):
        raise DomainError(f"u0 must be positive, got {u0}")
    if floor is None:
        floor = default_floor(values.size)
    v = np.asarray(v_grid, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("need a nonempty 1-d v-grid")

    log_x = np.log(values)
    with np.errstate(over="ignore"):
        r1 = np.exp((u0 - 1.0) * log_x)
        weights = np.stack([r1, r1 * values], axis=1)
    if not np.all(np.isfinite(weights)):
        raise DomainError(
            f"empirical Mellin weight x^u0 or x^(u0-1) overflows float64 at u0={u0:g} "
            f"(min x = {values.min():.6g}, max x = {values.max():.6g})")
    weights /= values.size

    v_abs, inverse = np.unique(np.abs(v), return_inverse=True)
    moments = _phase_moments(log_x, weights, v_abs)[inverse]
    np.conj(moments, out=moments, where=(v < 0.0)[:, None])
    m1, m2 = moments[:, 0], moments[:, 1]

    z = u0 + 1j * v
    if np.any(m2 == 0.0):
        raise PoleError("empirical Mellin denominator vanished on the curve grid")
    y = z * m1 / m2
    denom_abs = np.abs(m2)
    return LaplaceCurve(u0=float(u0), v=v, y=y, denom_abs=denom_abs,
                        ill=denom_abs < floor, n=values.size,
                        meta={"floor": float(floor)})


def laplace_curve_from_mellin(mellin_fn, u0: float, v_grid, n: int = 0) -> LaplaceCurve:
    """Plug-in curve with the empirical moment replaced by an exact Mellin
    transform; by the moment recursion the result is the exact Laplace
    exponent. Used for zero-noise oracle checks."""
    v = np.asarray(v_grid, dtype=float)
    z = u0 + 1j * v
    m1 = np.asarray([mellin_fn(zz) for zz in z], dtype=complex)
    m2 = np.asarray([mellin_fn(zz + 1.0) for zz in z], dtype=complex)
    if np.any(m2 == 0.0):
        raise PoleError("Mellin denominator vanished on the curve grid")
    return LaplaceCurve(u0=float(u0), v=v, y=z * m1 / m2, denom_abs=np.abs(m2),
                        ill=np.zeros(v.size, dtype=bool), n=int(n),
                        meta={"plugin": True})


def _reflect_scalar(fn, z: complex) -> complex:
    """Evaluate fn preserving exact conjugate symmetry."""
    z = complex(z)
    if z.imag < 0.0:
        return complex(np.conj(fn(np.conj(z))))
    return complex(fn(z))


def mellin_theoretical_beta(z, a: float, b: float, mu: float):
    """Exact Mellin transform E[X^{z-1}] of the scaled-Beta stationary law
    (positive drift mu, exponential jump model with intensity a, rate b).

    Arranged as exp of log-gamma differences that vanish identically at
    z = 1, so M(1) = 1 exactly. Requires Re(z) > -b.
    """
    if not (a > 0.0 and b > 0.0 and mu > 0.0):
        raise DomainError(f"need a, b, mu > 0, got a={a}, b={b}, mu={mu}")
    beta = a / mu

    def upper(zz: complex) -> complex:
        if zz.real <= -b:
            raise DomainError(f"need Re(z) > {-b}, got {zz}")
        log_m = ((1.0 - zz) * np.log(mu)
                 + complex_log_gamma(b + zz) - complex_log_gamma(b + 1.0)
                 + complex_log_gamma(b + 1.0 + beta) - complex_log_gamma(b + zz + beta))
        return np.exp(log_m)

    if np.ndim(z) == 0:
        return _reflect_scalar(upper, z)
    return np.asarray([_reflect_scalar(upper, zz) for zz in np.asarray(z, dtype=complex)])


def mellin_theoretical_gamma(z, a: float, b: float):
    """Exact Mellin transform of the Gamma stationary law (zero drift,
    exponential jump model): Gamma(b+1, rate a) moments. M(1) = 1 exactly.
    Requires Re(z) > -b."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"need a, b > 0, got a={a}, b={b}")

    def upper(zz: complex) -> complex:
        if zz.real <= -b:
            raise DomainError(f"need Re(z) > {-b}, got {zz}")
        log_m = (complex_log_gamma(b + zz) - complex_log_gamma(b + 1.0)
                 - (zz - 1.0) * np.log(a))
        return np.exp(log_m)

    if np.ndim(z) == 0:
        return _reflect_scalar(upper, z)
    return np.asarray([_reflect_scalar(upper, zz) for zz in np.asarray(z, dtype=complex)])


def write_laplace_curve_csv(curve: LaplaceCurve, path: str | Path) -> Path:
    """Write the curve as CSV: v, re_Y, im_Y, abs_Y, denom_abs, ill_flag."""
    return write_columns_csv(path, {
        "v": curve.v, "re_Y": curve.y.real, "im_Y": curve.y.imag,
        "abs_Y": np.hypot(curve.y.real, curve.y.imag),
        "denom_abs": curve.denom_abs, "ill_flag": curve.ill,
    })
