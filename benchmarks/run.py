"""Benchmark of the gouest command-line tool.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload rate-study --seed 1 --seconds 45 --trace 0

Each workload is one CLI command (see ``workloads.py``). Set-up (importing
gouest, generating the inputs from the seed, a warm-up on a tiny input) is
timed in three fresh interpreters. Then, for ``--seconds``, each command run
happens in a fresh child process that calls ``gouest.cli.main`` in-process,
so every run starts as cold as a user's would, with the BLAS thread count
pinned to one. Every run's outputs are checked and hashed here.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends a third
of the time on untraced runs and the rest on traced ones, and reports the
per-layer metrics and the tracing overhead. The last line of stdout is the
result; the line before it holds the samples, checks, output hashes and
environment behind it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from spans import LAYER_UNITS, Span, layer_metrics, replicate_durations, replicate_summary
from workloads import WORK, WORKLOADS, output_digests

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 3
MIN_RUNS = 3
MIN_UNTRACED = 2
# Traced rate-study runs pool their replicates; three runs of nine give 27
# samples, enough for a tail percentile above the median.
MIN_TRACED = 3
TIME_LIMIT_S = 170.0
# One BLAS thread: on a shared two-CPU machine, estimate-large runs with two
# threads spread about +-12% against +-4% with one, for a gain of about 3%.
BLAS_THREADS = 1


def _int_from(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(threads: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_version, "nproc": os.cpu_count(),
            "blas_threads": int(threads), "cpu": cpu_model()}


class Session:
    """Starts the worker processes of one benchmark run, checks every command
    run's outputs and keeps the counts of attempted and failed operations."""

    def __init__(self, workload, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.out = ROOT / WORK / workload.name / "out"
        threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        self.digests = None
        self.checked: dict = {}
        self.attempted = self.failed = 0
        self.problems: list = []

    def child(self, mode: str) -> dict:
        command = [sys.executable, str(WORKER), "--workload", self.workload.name,
                   "--seed", str(self.seed), "--mode", mode]
        try:
            done = subprocess.run(command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: {self.workload.name} ran past {TIME_LIMIT_S} s")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: {self.workload.name} {mode} worker exited "
                             f"with {done.returncode}")
        return json.loads(lines[-1])

    def fail(self, what) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def run(self, mode: str) -> dict:
        """One command run in a fresh worker, then the checks of its outputs."""
        result = self.child(mode)
        self.attempted += 1
        if result["code"] != 0:
            self.fail({"exit_code": result["code"]})
        try:
            reps, reps_failed = self.workload.replicates(self.out)
            digests = output_digests(self.out)
        except (OSError, ValueError, KeyError) as exc:
            self.attempted += 1
            self.fail({"outputs": repr(exc)})
            return result
        self.attempted += reps + 1
        self.failed += reps_failed
        if reps_failed:
            self.problems.append({"replicates_failed": reps_failed})
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.fail({"determinism": digests})
        key = json.dumps(digests, sort_keys=True)
        if key not in self.checked:
            try:
                self.checked[key] = self.workload.checks(self.out)
            except (OSError, ValueError, KeyError) as exc:
                self.checked[key] = {"readable": (False, repr(exc))}
        for name, (passed, observed) in self.checked[key].items():
            self.attempted += 1
            if not passed:
                self.fail({name: observed})
        return result

    def loop(self, mode: str, until: float, minimum: int) -> list:
        """Run at least ``minimum`` times, then until the next run would end
        after ``until`` (a time.monotonic reading)."""
        results = []
        while True:
            start = time.monotonic()
            results.append(self.run(mode))
            took = time.monotonic() - start
            if len(results) >= minimum and time.monotonic() + took > until:
                return results


def traced_layers(session: Session, untraced: list, traced: list) -> dict:
    """Per-layer times as medians over the traced runs, work counts (which
    must repeat exactly between traced runs), pooled replicate times and the
    tracing overhead."""
    runs = [[Span(*record) for record in r["spans"]] for r in traced]
    per_run = [layer_metrics(spans) for spans in runs]
    counts = [k for k in per_run[0] if not k.endswith("_s")]
    mismatched = [k for k in counts if any(m[k] != per_run[0][k] for m in per_run)]
    layers = {key: per_run[0][key] if key in counts else statistics.median(m[key] for m in per_run)
              for key in per_run[0]}
    layers.update(replicate_summary([d for spans in runs for d in replicate_durations(spans)]))
    layers["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
    layers["trace.overhead_s"] = (layers["trace.run_s"]
                                  - statistics.median(r["run_s"] for r in untraced))
    session.attempted += 1
    if mismatched:
        session.fail({"counts_differ_between_traced_runs": mismatched})
    (ROOT / WORK / session.workload.name / "spans.json").write_text(
        json.dumps([r["spans"] for r in traced]))
    return {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=_int_from(0))
    parser.add_argument("--seconds", required=True, type=_int_from(1))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gouest" / "__init__.py").is_file():
        print(f"error: no gouest sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    session = Session(WORKLOADS[args.workload], args.seed, start + TIME_LIMIT_S)
    setups = [session.child("setup")["setup_s"] for _ in range(SETUPS)]
    begin = time.monotonic()
    if args.trace:
        runs = session.loop("run", begin + args.seconds / 3.0, MIN_UNTRACED)
        traced = session.loop("trace", begin + args.seconds, MIN_TRACED)
        metrics = traced_layers(session, runs, traced)
    else:
        runs = session.loop("run", begin + args.seconds, MIN_RUNS)
        traced = []
        run_s = statistics.median(r["run_s"] for r in runs)
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "items_per_s": {"value": session.workload.items / run_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
            "ok_frac": {"value": 1.0 - session.failed / session.attempted, "unit": "frac"},
        }
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items": session.workload.items, "item_unit": session.workload.item_unit,
        "setup_s": setups, "run_s": [r["run_s"] for r in runs],
        "traced_run_s": [r["run_s"] for r in traced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "failed_frac": session.failed / session.attempted, "problems": session.problems,
        "checks": {name: observed for checks in session.checked.values()
                   for name, (_, observed) in checks.items()},
        "outputs_sha256": session.digests,
        "env": environment(session.env["OPENBLAS_NUM_THREADS"]),
    }
    print(json.dumps(details))
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
