"""Stationary sampling of the exponential functional A = integral_0^inf e^{-xi_t} dt,
and the sample, CSV and JSON I/O.

Each model draws A by its own law (``stationary`` in :mod:`gouest.models`);
:func:`sample_stationary` adds the generator and the :class:`Sample`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError
from .models import SubordinatorModel, model_to_config

__all__ = [
    "Sample",
    "make_generator",
    "sample_stationary",
    "write_columns_csv",
    "write_json",
    "write_sample_csv",
    "read_sample_csv",
]

# The largest sample numpy can size as a float64 array.
MAX_N = int(np.iinfo(np.intp).max) // 8


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for reproducible, parallel-safe streams.

    Distinct ``(seed, stream)`` pairs give statistically independent streams;
    replicate r of a study should pass ``stream=r``. Both must be
    nonnegative integers; a negative one is a DomainError naming it.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if int(value) < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {value}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(stream)))))


@dataclass
class Sample:
    """Stationary observations X_1..X_n, all strictly positive.

    ``delta`` is the observation spacing (bookkeeping only; the estimators
    use the values as exchangeable stationary draws).
    """

    values: np.ndarray
    delta: float = 1.0
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise DomainError("Sample.values must be a nonempty 1-d array")
        # min and max see every nan and inf, and build no n-size temporary
        lo, hi = self.values.min(), self.values.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("Sample.values contain non-finite entries (inf or nan)")
        if not lo > 0.0:
            raise DomainError("Sample.values must be strictly positive")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DomainError(f"Sample.delta must be positive and finite, got {self.delta}")

    @property
    def n(self) -> int:
        return int(self.values.size)


def sample_stationary(model: SubordinatorModel, n: int, seed: int = 0, delta: float = 1.0,
                      stream: int = 0) -> Sample:
    """n draws of the model's stationary law (``model.stationary``) from the
    generator (seed, stream). The meta holds the model's config and law."""
    if not 1 <= n <= MAX_N:
        raise DomainError(f"need n >= 1 and at most {MAX_N}, the largest float64 array "
                          f"numpy can size; got {n}")
    values, law = model.stationary(n, make_generator(seed, stream))
    meta = {"model": model_to_config(model), **law}
    return Sample(values=values, delta=delta, seed=seed, meta=meta)


# ---------------------------------------------------------------------------
# Serialization: the shared columnar CSV and JSON writers, and the sample CSV
# plus its JSON metadata sibling.


def write_columns_csv(path: str | Path, columns: dict) -> Path:
    """Write equal-length 1-d columns as CSV, headed by the mapping's keys in
    order: floats as %.17g, ints and bools as %d, LF line endings."""
    path = Path(path)
    arrays = [np.asarray(c) for c in columns.values()]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
        raise DomainError("CSV columns must be 1-d arrays of equal length")
    row = ",".join("%d" if a.dtype.kind in "biu" else "%.17g" for a in arrays) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % values for values in zip(*(a.tolist() for a in arrays)))
    return path


def write_json(path: str | Path, payload) -> Path:
    """Write payload as JSON: sorted keys, indent 2, a final LF."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_sample_csv(sample: Sample, csv_path: str | Path) -> tuple[Path, Path]:
    """Write observations to CSV (header ``x``, LF endings, 17 significant
    digits) and metadata (model, seed, n, delta) to a sibling JSON file."""
    csv_path = write_columns_csv(csv_path, {"x": sample.values})
    meta_path = csv_path.with_suffix(".json")
    meta = {
        "model": sample.meta.get("model"),
        "seed": sample.seed,
        "n": sample.n,
        "delta": sample.delta,
    }
    extra = {k: v for k, v in sample.meta.items() if k != "model"}
    if extra:
        meta["extra"] = extra
    return csv_path, write_json(meta_path, meta)


def read_sample_csv(csv_path: str | Path) -> Sample:
    """Read a sample written by :func:`write_sample_csv`.

    A file headed by the line ``x`` whose rows are plain decimals
    (``digits.digits``, or exponent form, LF endings) is read by an exact
    integer-based parser; any other layout goes through ``np.loadtxt``. Both
    give every value bitwise equal to ``float(row)``.

    The JSON sibling is optional; without it the sample gets delta=1 and no
    seed. Raises DomainError on a malformed header or sidecar and on
    non-finite or nonpositive values.
    """
    csv_path = Path(csv_path)
    values = _read_decimal_rows(csv_path)
    if values is None:
        values = _loadtxt_rows(csv_path)
    if values.size == 0:
        raise DomainError(f"{csv_path}: no observations")
    delta, seed, meta = 1.0, None, {}
    meta_path = csv_path.with_suffix(".json")
    if meta_path.exists():
        try:
            with open(meta_path) as fh:
                info = json.load(fh)
            delta = float(info.get("delta", 1.0))
        except (ValueError, TypeError, AttributeError) as exc:
            raise DomainError(f"{meta_path}: malformed sample sidecar ({exc})") from exc
        seed = info.get("seed")
        if info.get("model") is not None:
            meta["model"] = info["model"]
    return Sample(values=values, delta=delta, seed=seed, meta=meta)


def _loadtxt_rows(csv_path: Path) -> np.ndarray:
    """The general reader: csv header check, then np.loadtxt on the rows."""
    with open(csv_path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise DomainError(f"{csv_path}: empty sample file")
        header = next(csv.reader([line]))
        if header != ["x"]:
            raise DomainError(f"{csv_path}: expected header ['x'], got {header}")
        try:
            with warnings.catch_warnings():
                # read_sample_csv reports a header-only file as having no observations
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, dtype=float, delimiter=",", usecols=0, ndmin=1,
                                    comments=None, quotechar='"')
        except ValueError as exc:
            raise DomainError(f"{csv_path}: malformed row ({exc})") from exc
    return values


# The exact reader of plain decimal rows. A row "I.F" is the decimal
# x = D / 10^k, with D the integer spelled by the digits of I and F and
# k = len(F). Once the dots are dropped, a chunk's rows parse as integers in
# one np.fromstring call, and each value is RN(x), the correctly rounded
# quotient that float(row) returns (Clinger, PLDI 1990), formed in float64
# with a double-double residual (Dekker, Numer. Math. 18, 1971). With
# u = 2^-53, D < 2^62 and k <= 22 (10^k is exact, since 5^22 < 2^53):
#   q = fl(fl(D) / 10^k) lies within 2 ulp(q) of x;
#   q * 10^k = ph + pl exactly (Veltkamp split and TwoProduct);
#   D = fl(D) + dl with dl exact, and fl(D) - ph is exact (Sterbenz), so the
#   residual r = D - q * 10^k is formed with an error below 4u^2 fl(D), and
#   c = fl(r / 10^k) differs from x - q by less than 2^-50 ulp(q);
#   s + e = q + c exactly (TwoSum), so |x - s| < |e| + 2^-48 h, where h is
#   half the float spacing next to s on e's side (h >= ulp(q) / 4).
# s = fl(s + fl(e * (1 + 2^-40))) shows |e| < (1 - 2^-41) h, so x lies
# strictly inside s's rounding interval and s = RN(x). Rows that fail this
# test lie within 2^-39 h of a rounding midpoint (exact ties included);
# they, rows with D >= 2^62 or more than 22 places, and rows in exponent form
# (e, E, + and - parsed as 0) go to float(row). The uint64 parse (strtoul)
# skips leading zeros and saturates at 2^64 - 1, and D is clipped at 2^62, so
# every row of 20 or more significant digits (D >= 10^19) is among them.
_CSV_CHUNK_BYTES = 1 << 17
_MAX_PLACES = 22
_DIGITS_BOUND = 2**62
_POW10 = np.array([float(10**k) for k in range(_MAX_PLACES + 1)])
_MIDPOINT_GUARD = 1.0 + 2.0**-40
_ROWS_SLACK = 1.125  # rows reserved per row a chunk's bytes per row predicts
_DIGIT, _DOT, _LF = ord("0"), ord("."), ord("\n")
_EXPONENT_BYTES = np.frombuffer(b"eE+-", np.uint8)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a = hi + lo exactly, each with at most 26 significant bits."""
    t = (2.0**27 + 1.0) * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _round_decimals(digits: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RN(digits / 10^k) for k <= 22, and the mask of the rows whose rounding
    is proven (digits < 2^62 and not near a rounding midpoint). Clips digits
    at 2^62 in place, so that fl(digits) converts back to uint64."""
    np.minimum(digits, _DIGITS_BOUND, out=digits)
    p = _POW10[k]
    df = digits.astype(np.float64)
    dl = (digits - df.astype(np.uint64)).view(np.int64).astype(np.float64)
    q = df / p
    ph = q * p
    qh, ql = _split(q)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    pl = ((qh * p_hi - ph) + qh * p_lo + ql * p_hi) + ql * p_lo
    c = (((df - ph) - pl) + dl) / p
    s = q + c
    b = s - q
    e = (q - (s - b)) + (c - b)
    return s, (s + e * _MIDPOINT_GUARD == s) & (digits < _DIGITS_BOUND)


def _read_decimal_rows(csv_path: Path) -> np.ndarray | None:
    """The values of a sample CSV whose first line is exactly "x", or None when
    a byte or a row shape needs the general reader: anything but digits,
    dots, LF and exponents, a blank row, a row with two dots or no digit.

    One pass: the array is sized for the rest of the file at the first
    chunk's bytes per row, plus slack, grown the same way when a later chunk
    does not fit, and trimmed to the rows read at the end."""
    with open(csv_path, "rb") as fh:
        if fh.read(2) != b"x\n":
            return None
        size = os.fstat(fh.fileno()).st_size
        values, filled, carry = np.empty(0), 0, b""
        while chunk := carry + fh.read(_CSV_CHUNK_BYTES - len(carry)):
            if len(chunk) < _CSV_CHUNK_BYTES:  # the end of the file
                carry = b""
                if chunk[-1] != _LF:
                    chunk += b"\n"  # a last row without its LF
            else:
                cut = chunk.rfind(b"\n") + 1
                if cut == 0:
                    return None  # a row longer than a chunk
                chunk, carry = chunk[:cut], chunk[cut:]
            part = _parse_decimal_chunk(chunk)
            if part is None:
                return None
            if filled + part.size > values.size:
                left = max(size - fh.tell() + len(carry), 0)  # bytes not yet parsed
                values.resize(filled + part.size
                              + math.ceil(_ROWS_SLACK * left * part.size / len(chunk)),
                              refcheck=False)
            values[filled:filled + part.size] = part
            filled += part.size
    values.resize(filled, refcheck=False)
    return values


def _parse_decimal_chunk(chunk: bytes) -> np.ndarray | None:
    """Values of LF-terminated rows, or None if a row needs the general reader."""
    raw = np.frombuffer(chunk, np.uint8)
    marks = np.flatnonzero(raw - _DIGIT > 9)  # every byte that is not a digit
    kind = raw[marks]
    text = chunk
    if kind.size % 2 == 0 and (kind[::2] == _DOT).all() and (kind[1::2] == _LF).all():
        # every row is "I.F", none in exponent form
        dots, ends, dot_rows, slow = marks[::2], marks[1::2], slice(None), False
    else:
        found = _mixed_row_marks(marks, kind)
        if found is None:
            return None
        dots, ends, dot_rows, slow, exponents = found
        masked = raw.copy()  # exponent rows parse as digits, keeping every offset
        masked[exponents] = _DIGIT
        text = masked.tobytes()
    starts = np.concatenate(([0], ends[:-1] + 1))
    n_digits = ends - starts
    n_digits[dot_rows] -= 1
    if not n_digits.all():
        return None  # an empty row: np.fromstring skips it, or reads b"\n" as [0]
    k = np.zeros(ends.size, dtype=np.intp)
    k[dot_rows] = ends[dot_rows] - dots - 1
    slow |= k > _MAX_PLACES
    k[slow] = 0
    digits = np.fromstring(text.replace(b".", b""), dtype=np.uint64, sep="\n")
    if digits.size != ends.size:
        return None
    values, proven = _round_decimals(digits, k)
    for i in np.flatnonzero(slow | ~proven).tolist():
        try:
            values[i] = float(chunk[starts[i]:ends[i]])
        except ValueError:
            return None
    return values


def _mixed_row_marks(marks: np.ndarray, kind: np.ndarray) -> tuple | None:
    """Dots, row ends, the row of each dot, the exponent rows and the offsets
    of their exponent and sign bytes in a chunk whose rows are not all "I.F",
    or None if a byte or row shape needs the general reader.

    The few marks that are neither a dot nor an LF are set aside. If the
    rest still alternate dot, LF, the rows are sliced from them as on the
    plain path; a row without a dot leaves them out of step, and each dot is
    then placed by a binary search of the row ends, as each set-aside mark
    always is."""
    aside = np.flatnonzero((kind != _DOT) & (kind != _LF))
    other = kind[aside]
    if not np.isin(other, _EXPONENT_BYTES).all():
        return None
    rest, rest_kind = np.delete(marks, aside), np.delete(kind, aside)
    if (rest_kind.size % 2 == 0 and (rest_kind[::2] == _DOT).all()
            and (rest_kind[1::2] == _LF).all()):
        dots, ends, dot_rows = rest[::2], rest[1::2], slice(None)
    else:
        is_end = rest_kind == _LF
        dots, ends = rest[~is_end], rest[is_end]
        dot_rows = np.searchsorted(ends, dots)
        if np.any(np.diff(dot_rows) == 0):
            return None  # a row with two dots
    row_of_other = np.searchsorted(ends, marks[aside])
    slow = np.zeros(ends.size, dtype=bool)
    # signs may only stand in rows with an exponent
    slow[row_of_other[(other | 0x20) == ord("e")]] = True
    if not slow[row_of_other].all():
        return None
    return dots, ends, dot_rows, slow, marks[aside]
