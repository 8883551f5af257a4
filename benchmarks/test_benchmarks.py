"""Tests of the benchmark's own arithmetic, tracing and definitions.

Run from the repository root: ``python3 -m pytest -q benchmarks``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gouest  # noqa: E402
import gouest.cli  # noqa: E402
import gouest.estimators  # noqa: E402
from gouest.models import TruncNormCP, laplace_exponent  # noqa: E402

from spans import (LAYER_UNITS, Span, Tracer, layer_metrics, replicate_durations,  # noqa: E402
                   replicate_summary, self_times, top_level)
from workloads import GATED, WORKLOADS, output_digests, truncnorm_mean_a  # noqa: E402


def test_self_time_subtracts_children_once_and_clips_to_parent():
    spans = [
        Span("cli.main", -1, 0.0, 10.0),
        Span("mellin.laplace_curve", 0, 1.0, 3.0),
        Span("mellin.laplace_curve", 0, 2.0, 4.0),   # overlaps the previous child
        Span("sampling.read_sample_csv", 0, 8.0, 12.0),  # runs past the parent's end
        Span("models.levy_density", 1, 1.5, 2.5),    # grandchild: not the root's child
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 1.0, 2.0, 4.0, 1.0])


def test_top_level_counts_nested_layer_calls_once():
    spans = [
        Span("sampling.sample_stationary", -1, 0.0, 5.0, {"draws": 100}),
        Span("sampling.sample_beta_case", 0, 1.0, 4.0, {"draws": 100}),
        Span("sampling.sample_beta_case", -1, 6.0, 7.0, {"draws": 10}),
    ]
    names = {"sampling.sample_stationary", "sampling.sample_beta_case"}
    assert [s.start for s in top_level(spans, names)] == [0.0, 6.0]
    metrics = layer_metrics(spans)
    assert metrics["sampling.draws"] == 110
    assert metrics["sampling.draw_s"] == pytest.approx(6.0)
    assert metrics["sampling.self_s"] == pytest.approx(2.0 + 3.0 + 1.0)


def test_replicates_run_from_one_draw_to_the_last_call_before_the_next():
    spans = [
        Span("rates.rate_study", -1, 0.0, 20.0),
        Span("sampling.sample_stationary", 0, 1.0, 2.0),
        Span("estimators.run_algorithm1", 0, 2.0, 5.0),
        Span("sampling.sample_stationary", 0, 6.0, 7.0),
        Span("rates.mise", 0, 7.0, 9.0),
    ]
    assert replicate_durations(spans) == pytest.approx([4.0, 3.0])


def test_replicate_tail_has_ten_samples_beyond_it():
    summary = replicate_summary([i / 1e3 for i in range(1, 31)])
    assert summary["rates.replicate_ms.samples"] == 30
    assert summary["rates.replicate_ms.tail"] == pytest.approx(20.0)
    assert summary["rates.replicate_ms.tail_pct"] == pytest.approx(100.0 * 20 / 30)
    assert replicate_summary([0.001] * 5)["rates.replicate_ms.tail"] == 0.0


def _traced_rate_study(out: Path) -> dict:
    argv = ["rate-study", "--model", "cp_exp", "--u0", "29", "--n-ladder", "200,400",
            "--reps", "2", "--x-points", "31", "--seed", "3", "--out", str(out)]
    with Tracer("gouest") as tracer:
        assert gouest.cli.main(argv) == 0
    return layer_metrics(tracer.take())


def test_computed_counts_repeat_across_traced_runs(tmp_path):
    first = _traced_rate_study(tmp_path / "a")
    second = _traced_rate_study(tmp_path / "b")
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["mellin.curve_calls"] > 0
    assert first["mellin.phase_rows"] > 0
    assert first["mellin.phase_evals"] > first["mellin.phase_rows"]
    assert first["estimators.fit_calls"] == first["estimators.fit_calls_per_replicate"] * 4
    assert first["rates.replicates_failed"] == 0


def test_tracer_wraps_every_import_site_and_restores_them():
    original = gouest.estimators.laplace_curve
    with Tracer("gouest"):
        assert gouest.cli.laplace_curve is gouest.estimators.laplace_curve
        assert gouest.estimators.laplace_curve is not original
        assert gouest.laplace_curve is gouest.estimators.laplace_curve
    assert gouest.cli.laplace_curve is original
    assert gouest.estimators.laplace_curve is original
    assert gouest.laplace_curve is original


def test_truncnorm_mean_matches_laplace_exponent():
    phi1 = laplace_exponent(TruncNormCP(lam=1.0, q=0.5, alpha=0.1), 1.0)
    assert truncnorm_mean_a() == pytest.approx(1.0 / phi1.real, rel=1e-12)


def test_output_digests_ignore_manifest_timestamps(tmp_path):
    for stamp in ("2020", "2030"):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"command": "simulate", "started_at": stamp, "finished_at": stamp}))
        (tmp_path / "sample.csv").write_text("x\n1\n")
        digests = output_digests(tmp_path)
        assert stamp not in json.dumps(digests)
        if stamp == "2020":
            first = digests
    assert digests == first


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(GATED)
    assert [w["why"] for w in bench["workloads"]] == [WORKLOADS[n].why for n in GATED]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    named = {m for w in WORKLOADS.values() for group in w.moves.values() for m in group}
    assert named | {m for w in WORKLOADS.values() for m in w.flat} <= set(LAYER_UNITS)
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert {k for w in WORKLOADS.values() for k in w.moves} <= e2e
    assert all(0 < m["bound"] <= 0.25 and not math.isnan(m["bound"])
               for m in bench["end_to_end"])
