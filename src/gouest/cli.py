"""Command-line driver: simulation, estimation and the replicated
convergence-rate study, emitting plain CSV/JSON for downstream plotting.

Exit codes: 0 success, 2 input error (a sample too large for memory
included), 3 numerical degeneracy, 4 I/O failure. Every run writes a
manifest.json listing command, config, seed, timestamps, and all output
files — on failure as well as success, except when argparse rejects the
arguments (exit 2) or the output directory cannot be created (exit 4).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import DomainError, GouestError, PoleError, TruncationError
from .estimators import (EstimationConfig, default_x_grid, run_algorithm2,
                         write_levy_density_csv, write_triplet_json)
# laplace_curve is not called here: benchmarks/test_benchmarks.py::
# test_tracer_wraps_every_import_site_and_restores_them checks this import site
from .mellin import laplace_curve, write_laplace_curve_csv
from .models import MODELS, CPExp, TruncNormCP, model_from_config, model_to_config
from .rates import (REPLICATE_COLUMNS, STUDY_X_POINTS, RateStudyConfig, mise, rate_study,
                    write_mise_report_json)
from .sampling import (read_sample_csv, sample_stationary, write_columns_csv, write_json,
                       write_sample_csv)

__all__ = ["main"]

_EXAMPLE1_MODEL = CPExp(mu=1.8, a=0.7, b=0.2)
_EXAMPLE2_MODEL = TruncNormCP(lam=1.0, q=0.5, alpha=0.1)
# Parameters a model flag leaves out, by model kind.
_MODEL_DEFAULTS = {c["model"]: c for c in map(model_to_config, (_EXAMPLE1_MODEL, _EXAMPLE2_MODEL))}


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _ladder(raw: str) -> tuple:
    """Sample sizes from a comma-separated string of integers."""
    try:
        return tuple(int(t) for t in raw.split(",") if t.strip())
    except ValueError as exc:
        raise DomainError(f"bad value for 'n_ladder': {raw!r} ({exc})") from exc


def _model_from_args(args):
    """The reference model of --model's kind with each model flag given in
    place of its parameter; model_from_config builds the result."""
    given = {key: getattr(args, key) for cls in MODELS.values() for key in cls.keys
             if getattr(args, key) is not None}
    return model_from_config({**_MODEL_DEFAULTS.get(args.model, {}), "model": args.model, **given})


def _estimation_config_from_args(args) -> EstimationConfig:
    """--grid-m sets both grid counts; without it, and for the --vn that
    rate-study does not take, EstimationConfig's defaults stay."""
    settings = {k: getattr(args, k) for k in ("u0", "vn", "eps") if hasattr(args, k)}
    if args.grid_m is not None:
        settings.update(m_fit=args.grid_m, m_inv=args.grid_m)
    return EstimationConfig(**settings)


def _rule_beta(model) -> float:
    """The polynomial Mellin decay exponent beta = jump_mass/drift of a model
    with drift, which the bandwidth rule takes when no decay parameter is given."""
    if model.drift <= 0.0:
        raise DomainError("a driftless model needs --beta or --alpha-decay (cannot "
                          "derive jump_mass/mu)")
    return model.jump_mass / model.drift


# ---------------------------------------------------------------------------
# Commands. Each receives (args, out_dir, outputs) and appends every file it
# wrote to outputs; the wrapper owns the manifest and exit codes.


def _cmd_simulate(args, out_dir: Path, outputs: list) -> dict:
    model = _model_from_args(args)
    sample = sample_stationary(model, args.n, seed=args.seed)
    csv_path, meta_path = write_sample_csv(sample, out_dir / "sample.csv")
    outputs += [csv_path, meta_path]
    return {"model": model_to_config(model), "n": args.n, "seed": args.seed}


def _cmd_estimate(args, out_dir: Path, outputs: list) -> dict:
    try:
        sample = read_sample_csv(args.sample)
    except FileNotFoundError as exc:
        raise DomainError(f"sample file not found: {args.sample}") from exc
    model = sample.model  # a sample whose sidecar names its model is scored against it
    config = _estimation_config_from_args(args)
    x_grid = default_x_grid(x_max=args.x_max, x_points=args.x_points)

    density = run_algorithm2(sample, config, x_grid)
    triplet = density.triplet
    outputs.append(write_triplet_json(triplet, out_dir / "triplet.json"))
    outputs.append(write_laplace_curve_csv(density.curve, out_dir / "laplace_curve.csv", model))
    outputs.append(write_levy_density_csv(density, out_dir / "levy_density.csv", model))
    result = {"sample": str(args.sample), "n": sample.n, "estimation": asdict(config),
              "mu_hat": triplet.mu_hat, "lambda_hat": triplet.lambda_hat,
              "ill_count": triplet.ill_count}
    if model is not None:
        result.update(mu_err=triplet.mu_hat - model.drift,
                      lambda_err=triplet.lambda_hat - model.jump_mass,
                      mise=mise(density, model))
    return result


def _cmd_rate_study(args, out_dir: Path, outputs: list) -> dict:
    model = _model_from_args(args)
    beta = args.beta
    if beta is None and args.alpha_decay is None:
        beta = _rule_beta(model)
    study = RateStudyConfig(n_ladder=_ladder(args.n_ladder), replicates=args.reps,
                            smoothness=args.s, beta=beta, alpha=args.alpha_decay)
    # the study substitutes the rule's V_n at each n for the template's vn
    template = _estimation_config_from_args(args)
    report = rate_study(study, model, template, seed=args.seed,
                        x_grid=default_x_grid(x_max=args.x_max, x_points=args.x_points))
    outputs.append(write_mise_report_json(report, out_dir / "mise_report.json"))
    outputs.append(write_columns_csv(out_dir / "replicates.csv",
                                     dict(zip(REPLICATE_COLUMNS, zip(*report.rows)))))
    return {"model": model_to_config(model), "seed": args.seed, "study": asdict(study),
            "estimation": {k: v for k, v in asdict(template).items() if k != "vn"},
            "slope_mu": report.slope_mu, "failures": len(report.failures)}


# ---------------------------------------------------------------------------
# Parser and entry point. Each flag's default is the value the command runs
# with when the flag is not given.


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
    parser.add_argument("--out", required=True, help="output directory")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """--model, and one --<field> per field name of the MODELS classes."""
    parser.add_argument("--model", choices=list(MODELS), default=_EXAMPLE1_MODEL.kind)
    flags: dict = {}  # field name -> its config key (the dest), help text and kinds
    for cls in MODELS.values():
        for f, key in zip(fields(cls), cls.keys):
            flags.setdefault(f.name, (key, f.metadata["help"], []))[2].append(cls.kind)
    for name, (key, text, kinds) in flags.items():
        parser.add_argument(f"--{name}", type=float, default=None, dest=key,
                            help=f"{text} ({', '.join(kinds)})")


def _add_estimation_flags(parser: argparse.ArgumentParser, x_points: int, vn: bool = True) -> None:
    parser.add_argument("--u0", type=float, default=EstimationConfig.u0,
                        help="real part of the Mellin line (default %(default)s)")
    if vn:
        parser.add_argument("--vn", type=float, default=EstimationConfig.vn,
                            help="spectral bandwidth (default %(default)s)")
    parser.add_argument("--eps", type=float, default=EstimationConfig.eps,
                        help="lower edge of the fitting band (default %(default)s)")
    parser.add_argument("--grid-m", type=int, default=None, dest="grid_m",
                        help="grid count for both the fitting and inversion grids "
                             f"(default {EstimationConfig.m_fit} and {EstimationConfig.m_inv})")
    parser.add_argument("--x-max", type=float, default=3.0, dest="x_max")
    parser.add_argument("--x-points", type=int, default=x_points, dest="x_points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gouest",
        description="Simulation and nonparametric estimation for subordinator-driven "
                    "generalized Ornstein-Uhlenbeck models.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw stationary observations, write sample CSV")
    _add_model_flags(p)
    p.add_argument("-n", "--n", type=int, default=10**4, help="sample size (default 10^4)")
    _add_common(p)

    p = sub.add_parser("estimate", help="estimate the triplet and Levy density from a sample CSV")
    p.add_argument("sample", help="sample CSV file (header 'x')")
    _add_estimation_flags(p, x_points=301)
    _add_common(p, seed=False)

    p = sub.add_parser("rate-study", help="replicated convergence-rate study")
    _add_model_flags(p)
    p.add_argument("--n-ladder", default=",".join(map(str, RateStudyConfig.n_ladder)),
                   dest="n_ladder", help="comma-separated sample sizes (default %(default)s)")
    p.add_argument("--reps", type=int, default=RateStudyConfig.replicates,
                   help="replicates (default %(default)s)")
    p.add_argument("--s", type=float, default=RateStudyConfig.smoothness,
                   help="smoothness s of the bandwidth rule, may be fractional "
                        "(default %(default)g)")
    p.add_argument("--beta", type=float, default=None,
                   help="polynomial Mellin decay exponent (default jump_mass/mu)")
    p.add_argument("--alpha-decay", type=float, default=None, dest="alpha_decay",
                   help="exponential Mellin decay rate (selects the exponential rule)")
    # V_n at each n comes from the bandwidth rule, so rate-study takes no --vn
    _add_estimation_flags(p, x_points=STUDY_X_POINTS, vn=False)
    _add_common(p)
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "rate-study": _cmd_rate_study,
}

# Exit code by error kind; the first kind that matches wins. A MemoryError
# is an input error: a sample size numpy can size but the machine cannot hold.
_EXIT_CODES = (((TruncationError, PoleError), 3),
               ((GouestError, MemoryError), 2), (OSError, 4))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {args.out}: {exc}", file=sys.stderr)
        return 4

    outputs: list = []
    manifest = {
        "command": args.command,
        "argv": list(sys.argv[1:]) if argv is None else list(argv),
        "version": __version__,
        "started_at": _utc_now(),
        "seed": getattr(args, "seed", None),
        "status": "ok",
        "error": None,
        "config": None,
        "outputs": [],
    }
    code = 0
    try:
        manifest["config"] = _COMMANDS[args.command](args, out_dir, outputs)
    except (GouestError, MemoryError, OSError) as exc:
        code = next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))
        manifest["status"] = "error"
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        label = "I/O error" if code == 4 else f"error ({type(exc).__name__})"
        print(f"{label}: {exc}", file=sys.stderr)
    manifest["finished_at"] = _utc_now()
    manifest["outputs"] = [str(p) for p in outputs]
    try:
        write_json(out_dir / "manifest.json", manifest)
    except OSError as exc:
        print(f"I/O error writing manifest: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
