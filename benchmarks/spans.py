"""Span tracing of gouest's public functions and the per-layer metrics
derived from the spans.

A :class:`Tracer` wraps every public function (one whose name has no
leading underscore) that a gouest module defines, and rebinds the wrapper at every import
site, so ``gouest.cli.laplace_curve`` and ``gouest.estimators.laplace_curve``
both record. Each call becomes a :class:`Span` with name, start, end and the
index of the span that was open when it began. A few boundaries also record
work counts computed from their arguments or result. Spans stay in memory;
:func:`layer_metrics` turns the spans of one command run into the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("cli", "sampling", "mellin", "estimators", "rates", "models", "kernels")

DRAW_FUNCTIONS = frozenset({
    "sampling.sample_stationary", "sampling.sample_beta_case",
    "sampling.sample_gamma_case", "sampling.sample_series_cp",
})
# The closed-form truth the rate study scores its estimates against.
TRUTH_FUNCTIONS = frozenset({"models.levy_density", "models.laplace_exponent"})
# Result files the CLI writes after estimation; the sample CSV that
# `simulate` writes is counted under sampling.csv_write_s instead.
OUTPUT_WRITERS = frozenset({
    "estimators.write_levy_density_csv", "estimators.write_triplet_json",
    "mellin.write_laplace_curve_csv", "rates.write_mise_report_json",
})
# Bytes of one complex128 phase value, for mellin.bytes_computed.
PHASE_BYTES = 16

# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "cli.self_s": "s", "cli.output_write_s": "s",
    "sampling.self_s": "s", "sampling.draw_s": "s", "sampling.draws": "count",
    "sampling.csv_write_s": "s", "sampling.csv_bytes": "B", "sampling.csv_read_s": "s",
    "mellin.self_s": "s", "mellin.curve_s": "s", "mellin.curve_calls": "count",
    "mellin.grid_points": "count", "mellin.phase_rows": "count",
    "mellin.phase_evals": "count", "mellin.bytes_computed": "B",
    "estimators.self_s": "s", "estimators.fit_s": "s", "estimators.fit_calls": "count",
    "estimators.fit_calls_per_replicate": "count", "estimators.invert_s": "s",
    "estimators.invert_evals": "count",
    "rates.self_s": "s", "rates.replicate_ms.p50": "ms", "rates.replicate_ms.tail": "ms",
    "rates.replicate_ms.tail_pct": "%", "rates.replicate_ms.samples": "count",
    "rates.mise_s": "s", "rates.replicates_failed": "count",
    "models.self_s": "s", "models.truth_s": "s",
    "kernels.self_s": "s",
}


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sample_size(sample) -> int:
    return int(np.size(getattr(sample, "values", sample)))


def _count_curve(bound, result) -> dict:
    v = np.asarray(bound.arguments["v_grid"], dtype=float)
    rows = int(np.unique(np.abs(v)).size)
    n = _sample_size(bound.arguments["sample"])
    return {"grid_points": int(v.size), "phase_rows": rows, "phase_evals": n * rows}


def _count_draws(bound, result) -> dict:
    return {"draws": int(result.n)}


def _count_csv_bytes(bound, result) -> dict:
    return {"csv_bytes": os.path.getsize(result[0])}


def _count_invert(bound, result) -> dict:
    x = np.asarray(bound.arguments["x_grid"])
    return {"invert_evals": int(x.size * np.size(bound.arguments["fhat"]))}


def _count_study(bound, result) -> dict:
    study = bound.arguments["study"]
    return {"replicates": study.replicates * len(study.n_ladder),
            "replicates_failed": len(result.failures)}


COUNTERS = {
    "mellin.laplace_curve": _count_curve,
    "sampling.sample_stationary": _count_draws,
    "sampling.sample_beta_case": _count_draws,
    "sampling.sample_gamma_case": _count_draws,
    "sampling.sample_series_cp": _count_draws,
    "sampling.write_sample_csv": _count_csv_bytes,
    "estimators.invert_levy_density": _count_invert,
    "rates.rate_study": _count_study,
}


class Tracer:
    """Records a span per call of every public gouest function while
    installed; use as a context manager so the originals are always put back."""

    def __init__(self, package_name: str = "gouest") -> None:
        self.package_name = package_name
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{self.package_name}.{short}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        prefix = self.package_name + "."
        sites = [m for key, m in list(sys.modules.items())
                 if key == self.package_name or key.startswith(prefix)]
        for module in sites:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# Arithmetic on one command run's spans.


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children counted once, clipped to the parent)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _has_ancestor_in(spans: list[Span], index: int, names) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def top_level(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` that no other span named in ``names`` encloses,
    so nested calls of one layer are not counted twice."""
    return [s for i, s in enumerate(spans)
            if s.name in names and not _has_ancestor_in(spans, i, names)]


def replicate_durations(spans: list[Span]) -> list[float]:
    """Wall time of each rate-study replicate: from the draw that opens it to
    the end of the last call the study makes before the next draw."""
    out = []
    for i, study in enumerate(spans):
        if study.name != "rates.rate_study":
            continue
        kids = [s for s in spans if s.parent == i]
        starts = [k for k, s in enumerate(kids) if s.name in DRAW_FUNCTIONS]
        for a, b in zip(starts, starts[1:] + [len(kids)]):
            out.append(kids[b - 1].end - kids[a].start)
    return out


def _total(spans: list[Span], names) -> float:
    return sum(s.duration for s in top_level(spans, names))


def _count(spans: list[Span], key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers of one command run (seconds and counts)."""
    own = self_times(spans)
    module_self = {m: 0.0 for m in MODULES}
    for span, t in zip(spans, own):
        module_self[span.module] += t
    draws = top_level(spans, DRAW_FUNCTIONS)
    curves = [s for s in spans if s.name == "mellin.laplace_curve"]
    fits = [i for i, s in enumerate(spans) if s.name == "estimators.run_algorithm1"]
    studies = [s for s in spans if s.name == "rates.rate_study"]
    replicates = _count(studies, "replicates")
    fits_in_study = sum(_has_ancestor_in(spans, i, {"rates.rate_study"}) for i in fits)
    evals = _count(curves, "phase_evals")
    metrics = {
        "trace.spans": len(spans),
        "cli.output_write_s": _total(spans, OUTPUT_WRITERS),
        "sampling.draw_s": sum(s.duration for s in draws),
        "sampling.draws": _count(draws, "draws"),
        "sampling.csv_write_s": _total(spans, {"sampling.write_sample_csv"}),
        "sampling.csv_bytes": _count(spans, "csv_bytes"),
        "sampling.csv_read_s": _total(spans, {"sampling.read_sample_csv"}),
        "mellin.curve_s": _total(spans, {"mellin.laplace_curve"}),
        "mellin.curve_calls": len(curves),
        "mellin.grid_points": _count(curves, "grid_points"),
        "mellin.phase_rows": _count(curves, "phase_rows"),
        "mellin.phase_evals": evals,
        "mellin.bytes_computed": PHASE_BYTES * evals,
        "estimators.fit_s": _total(spans, {"estimators.run_algorithm1"}),
        "estimators.fit_calls": len(fits),
        "estimators.fit_calls_per_replicate": fits_in_study / replicates if replicates else 0.0,
        "estimators.invert_s": _total(spans, {"estimators.invert_levy_density"}),
        "estimators.invert_evals": _count(spans, "invert_evals"),
        "rates.mise_s": _total(spans, {"rates.mise"}),
        "rates.replicates_failed": _count(studies, "replicates_failed"),
        "models.truth_s": _total(spans, TRUTH_FUNCTIONS),
    }
    for module, t in module_self.items():
        metrics[f"{module}.self_s"] = t
    return metrics


def replicate_summary(durations_s: list[float]) -> dict:
    """Median replicate time and the highest percentile that still has at
    least ten replicates beyond it, with the sample count it rests on."""
    ms = np.sort(np.asarray(durations_s, dtype=float)) * 1e3
    n = int(ms.size)
    summary = {"rates.replicate_ms.p50": float(np.median(ms)) if n else 0.0,
               "rates.replicate_ms.tail": 0.0,
               "rates.replicate_ms.tail_pct": 0.0,
               "rates.replicate_ms.samples": n}
    if n > 10:
        summary["rates.replicate_ms.tail"] = float(ms[n - 11])
        summary["rates.replicate_ms.tail_pct"] = 100.0 * (n - 10) / n
    return summary
