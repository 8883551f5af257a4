"""One child process of the benchmark; run it through ``run.py``.

``--mode setup`` times the workload's set-up in this fresh interpreter:
importing gouest from the checkout's ``src``, generating the inputs from the
seed and a warm-up run on a tiny input. ``--mode run`` and ``--mode trace``
import gouest untimed and time one call of ``gouest.cli.main``; ``trace``
records spans around it with :class:`spans.Tracer`. Prints one JSON object
as the last line of stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORK, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import gouest.cli

    if not Path(gouest.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported gouest from {gouest.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    if args.mode == "setup":
        work.mkdir(parents=True, exist_ok=True)
        workload.prepare(work, args.seed)
        warm = work / "warm"
        shutil.rmtree(warm, ignore_errors=True)
        if gouest.cli.main(workload.warm_argv(work, args.seed, warm)) != 0:
            raise SystemExit(f"warm-up of {workload.name} failed")
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = workload.argv(work, args.seed, out)
    tracer = Tracer("gouest").install() if args.mode == "trace" else None
    start = time.perf_counter()
    code = gouest.cli.main(argv)
    run_s = time.perf_counter() - start
    result = {"code": code, "run_s": run_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = [[s.name, s.parent, s.start, s.end, s.counts] for s in tracer.take()]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
