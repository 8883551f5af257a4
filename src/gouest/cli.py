"""Command-line driver: simulation, estimation, and the two reference
simulation studies, emitting plain CSV/JSON for downstream plotting.

Exit codes: 0 success, 2 input/config error (a sample too large for memory
included), 3 numerical degeneracy, 4 I/O failure. Every run writes a
manifest.json listing command, config, seed, timestamps, and all output
files — on failure as well as success.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, GouestError, PoleError, TruncationError
from .estimators import (EstimationConfig, default_x_grid, run_algorithm2, whole_number,
                         write_levy_density_csv, write_triplet_json)
from .mellin import laplace_curve, symmetric_grid, write_laplace_curve_csv
from .models import (MODELS, CPExp, TruncNormCP, laplace_exponent, levy_density,
                     model_from_config, model_to_config)
from .rates import STUDY_X_POINTS, RateStudyConfig, rate_study, write_mise_report_json
from .sampling import (Sample, read_sample_csv, sample_stationary, write_columns_csv,
                       write_json, write_sample_csv)

__all__ = ["main"]

_EXAMPLE1_MODEL = CPExp(mu=1.8, a=0.7, b=0.2)
_EXAMPLE2_MODEL = TruncNormCP(lam=1.0, q=0.5, alpha=0.1)
# Parameters a model flag or config section leaves out, by model kind.
_MODEL_DEFAULTS = {c["model"]: c for c in map(model_to_config, (_EXAMPLE1_MODEL, _EXAMPLE2_MODEL))}
# Display band of the reference studies: [-30, 30] at u0 = 29 for the
# drift-plus-exponential model, [-5, 5] at u0 = 1 for the truncated-normal one.
_EXAMPLE1_U0, _EXAMPLE1_V = 29.0, 30.0
_EXAMPLE2_U0, _EXAMPLE2_V = 1.0, 5.0
# Calibrated defaults for the experiment2 estimation pipeline: bandwidth 6
# with fitting band [0.5*V, V] gave the best replicated integrated squared
# error and the smallest fit biases in a measured sweep (see decisions log).
_EXAMPLE2_VN = 6.0
_EXAMPLE2_EPS = 0.5
_FIG_N = 10**4
_LADDER = (10**3, 10**4, 10**5)  # experiment1's, and rate-study's default
_FIG_STREAM = 2**20  # keeps figure samples off the replicate streams


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    return loaded


def _section(file_config: dict, name: str) -> dict:
    section = file_config.get(name, {})
    if not isinstance(section, dict):
        raise DomainError(f"config section {name!r} must be a JSON object, got {section!r}")
    return section


def _merge(flag_value, config_section: dict, key: str, default, convert=float):
    """Flag beats config file beats default; the winner goes through convert
    (int takes whole numbers only), and a value it cannot take is a
    DomainError naming the key. A key whose default is None may stay None."""
    value = flag_value if flag_value is not None else config_section.get(key, default)
    if value is None and default is None:
        return None
    try:
        return whole_number(key, value) if convert is int else convert(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def _ladder(raw) -> tuple:
    """Sample sizes from a comma-separated string or a list of whole numbers."""
    if isinstance(raw, str):
        return tuple(int(t) for t in raw.split(",") if t.strip())
    return tuple(whole_number("n_ladder", t) for t in raw)


def _model_from_args(args, file_config: dict, default_kind: str | None = None):
    """Flags beat the file's model section, which beats the parameters of the
    reference model of the same kind; model_from_config builds the result."""
    keys = ["model", *(key for cls in MODELS.values() for key in cls.keys)]
    flags = {key: getattr(args, key) for key in keys}
    config = {**_section(file_config, "model"),
              **{k: v for k, v in flags.items() if v is not None}}
    kind = config.setdefault("model", default_kind)
    if kind is None:
        raise DomainError("no model given: pass --model or a config file with a 'model' section")
    return model_from_config({**_MODEL_DEFAULTS.get(str(kind), {}), **config})


def _estimation_config_from_args(args, file_config: dict,
                                 u0: float = EstimationConfig.u0) -> EstimationConfig:
    """Flags beat the file's estimation section, which beats the command's u0
    and EstimationConfig's own defaults. The section may repeat the fixed
    keys of a manifest's estimation entry, at their fixed values only."""
    section, default = _section(file_config, "estimation"), EstimationConfig
    for key, fixed in default.FIXED.items():
        if section.get(key, fixed) != fixed:
            raise DomainError(f"{key!r} is fixed at {fixed!r}, got {section[key]!r}")
    # one CLI knob sets both grids; the split defaults stay otherwise
    grid_m = _merge(args.grid_m, section, "grid_m", None, int)
    return EstimationConfig(
        u0=_merge(args.u0, section, "u0", u0),
        vn=_merge(args.vn, section, "vn", default.vn),
        eps=_merge(args.eps, section, "eps", default.eps),
        m_fit=_merge(grid_m, section, "m_fit", default.m_fit, int),
        m_inv=_merge(grid_m, section, "m_inv", default.m_inv, int),
        floor=_merge(args.floor, section, "floor", default.floor),
    )


def _x_grid_from_args(args, file_config: dict, x_points: int = 301) -> np.ndarray:
    section = _section(file_config, "x_grid")
    return default_x_grid(
        x_min=_merge(args.x_min, section, "x_min", 0.0),
        x_max=_merge(args.x_max, section, "x_max", 3.0),
        x_points=_merge(args.x_points, section, "x_points", x_points, int),
    )


def _rule_beta(model) -> float:
    """The polynomial Mellin decay exponent beta = jump_mass/drift of a model
    with drift, which the bandwidth rule takes when no --beta is given."""
    if model.drift <= 0.0:
        raise DomainError("polynomial decay class needs --beta (cannot derive "
                          "jump_mass/mu for a driftless model)")
    return model.jump_mass / model.drift


def _figure_curve(model, n: int, seed: int, u0: float, v_max: float, m: int,
                  path: Path, outputs: list) -> Sample:
    """Write a reference figure's Laplace curve on symmetric_grid(v_max, m),
    with the theoretical columns alongside, from n draws; return them sorted."""
    sample = sample_stationary(model, n, seed=seed, stream=_FIG_STREAM)
    # the estimators read only the multiset of values: sorted in place, the
    # sample needs no sorted copy in laplace_curve
    sample.values.sort()
    curve = laplace_curve(sample, u0, symmetric_grid(v_max, m))
    phi = laplace_exponent(model, curve.u0 + 1j * curve.v)
    outputs.append(write_columns_csv(path, {
        "v": curve.v, "re_Y": curve.y.real, "im_Y": curve.y.imag,
        "re_phi": phi.real, "im_phi": phi.imag,
        "denom_abs": curve.denom_abs, "ill_flag": curve.ill,
    }))
    return sample


# ---------------------------------------------------------------------------
# Commands. Each receives (args, file_config, out_dir, outputs), where
# file_config is the loaded --config file ({} without one), and appends every
# file it wrote to outputs; the wrapper owns the manifest and exit codes.


def _cmd_simulate(args, file_config: dict, out_dir: Path, outputs: list) -> dict:
    model = _model_from_args(args, file_config)
    n = _merge(args.n, file_config, "n", 10**4, int)
    seed = _merge(args.seed, file_config, "seed", 0, int)
    sample = sample_stationary(model, n, seed=seed)
    csv_path, meta_path = write_sample_csv(sample, out_dir / "sample.csv")
    outputs += [csv_path, meta_path]
    return {"model": model_to_config(model), "n": n, "seed": seed}


def _cmd_estimate(args, file_config: dict, out_dir: Path, outputs: list) -> dict:
    try:
        sample = read_sample_csv(args.sample)
    except FileNotFoundError as exc:
        raise DomainError(f"sample file not found: {args.sample}") from exc
    # the estimators read only the multiset of values: sorted in place, the
    # sample needs no sorted copy in laplace_curve
    sample.values.sort()
    config = _estimation_config_from_args(args, file_config)
    x_grid = _x_grid_from_args(args, file_config)

    density = run_algorithm2(sample, config, x_grid)
    triplet = density.triplet
    outputs.append(write_triplet_json(triplet, out_dir / "triplet.json"))
    outputs.append(write_laplace_curve_csv(density.curve, out_dir / "laplace_curve.csv"))
    outputs.append(write_levy_density_csv(density, out_dir / "levy_density.csv"))
    return {"sample": str(args.sample), "n": sample.n, "estimation": config.to_dict(),
            "mu_hat": triplet.mu_hat, "lambda_hat": triplet.lambda_hat,
            "ill_count": triplet.ill_count}


def _cmd_experiment1(args, file_config: dict, out_dir: Path, outputs: list) -> dict:
    """Reference study for the drift-plus-exponential model: estimated vs
    theoretical Laplace-exponent curve, plus replicated (mu, lambda)
    estimates across the sample-size ladder."""
    # the experiments take no config file: flags beat the reference defaults
    seed = _merge(args.seed, {}, "seed", 0, int)
    n_fig = _merge(args.n, {}, "n", _FIG_N, int)
    replicates = _merge(args.reps, {}, "replicates", RateStudyConfig.replicates, int)
    model = _EXAMPLE1_MODEL

    _figure_curve(model, n_fig, seed, _EXAMPLE1_U0, _EXAMPLE1_V, 600,
                  out_dir / "fig1_laplace.csv", outputs)

    beta = _rule_beta(model)
    study = RateStudyConfig(n_ladder=_LADDER, replicates=replicates, beta=beta)
    template = EstimationConfig(u0=_EXAMPLE1_U0, vn=_EXAMPLE1_V)
    report = rate_study(study, model, template, seed=seed)
    header = ("n", "replicate", "vn", "mu_hat", "lambda_hat", "ill_count")
    columns = dict(zip(header, zip(*report.rows)))
    outputs.append(write_columns_csv(out_dir / "fig2_estimates.csv", columns))
    return {"model": model_to_config(model), "seed": seed, "n_curve": n_fig,
            "replicates": replicates, "n_ladder": list(_LADDER),
            "u0": _EXAMPLE1_U0, "beta": beta, "failures": len(report.failures)}


def _cmd_experiment2(args, file_config: dict, out_dir: Path, outputs: list) -> dict:
    """Reference study for the truncated-normal compound-Poisson model:
    Laplace-exponent curves and the recovered jump density with its
    imaginary residual, against the closed-form truth."""
    seed = _merge(args.seed, {}, "seed", 0, int)
    n = _merge(args.n, {}, "n", _FIG_N, int)
    vn = _merge(args.vn, {}, "vn", _EXAMPLE2_VN)
    model = _EXAMPLE2_MODEL

    sample = _figure_curve(model, n, seed, _EXAMPLE2_U0, _EXAMPLE2_V, 500,
                           out_dir / "fig3_laplace.csv", outputs)

    config = EstimationConfig(u0=_EXAMPLE2_U0, vn=vn, eps=_EXAMPLE2_EPS)
    x_grid = default_x_grid(0.0, 3.0, 301)
    density = run_algorithm2(sample, config, x_grid)
    outputs.append(write_columns_csv(out_dir / "fig4_density.csv", {
        "x": density.x, "nu_hat": density.nu_hat, "nu_bar_hat": density.nu_bar_hat,
        "imag_residual": density.imag_residual, "nu_true": levy_density(model, x_grid),
    }))
    return {"model": model_to_config(model), "seed": seed, "n": n,
            "estimation": config.to_dict(),
            "mu_hat": density.triplet.mu_hat, "lambda_hat": density.triplet.lambda_hat}


def _cmd_rate_study(args, file_config: dict, out_dir: Path, outputs: list) -> dict:
    section, estimation = _section(file_config, "study"), _section(file_config, "estimation")
    if args.vn is not None or "vn" in estimation:
        raise DomainError("rate-study takes V_n at each n from its bandwidth rule (--decay, "
                          "--beta or --alpha-decay, --s); drop --vn and estimation.vn")
    model = _model_from_args(args, file_config, default_kind="cp_exp")

    decay = _merge(args.decay, section, "decay_class", RateStudyConfig.decay_class, str)
    beta = _merge(args.beta, section, "beta", RateStudyConfig.beta)
    if beta is None and decay == "polynomial":
        beta = _rule_beta(model)
    study = RateStudyConfig(
        n_ladder=_merge(args.n_ladder, section, "n_ladder", _LADDER, _ladder),
        replicates=_merge(args.reps, section, "replicates", RateStudyConfig.replicates, int),
        smoothness=_merge(args.s, section, "smoothness", RateStudyConfig.smoothness),
        beta=beta,
        alpha=_merge(args.alpha_decay, section, "alpha", RateStudyConfig.alpha),
        decay_class=decay,
    )
    # the study substitutes the rule's V_n at each n for the template's vn
    template = _estimation_config_from_args(args, file_config, u0=_EXAMPLE1_U0)
    seed = _merge(args.seed, file_config, "seed", 0, int)
    report = rate_study(study, model, template, seed=seed,
                        x_grid=_x_grid_from_args(args, file_config, x_points=STUDY_X_POINTS))
    outputs.append(write_mise_report_json(report, out_dir / "mise_report.json"))
    return {"model": model_to_config(model), "seed": seed, "study": asdict(study),
            "slope_mu": report.slope_mu, "failures": len(report.failures)}


# ---------------------------------------------------------------------------
# Parser and entry point.


def _add_common(parser: argparse.ArgumentParser, seed: bool = True, config: bool = True) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--out", required=True, help="output directory")
    if config:
        parser.add_argument("--config", default=None,
                            help="JSON config file; flags win on conflict")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """--model, and one --<field> per field name of the MODELS classes."""
    parser.add_argument("--model", choices=list(MODELS), default=None)
    flags: dict = {}  # field name -> its config key (the dest), help text and kinds
    for cls in MODELS.values():
        for f, key in zip(fields(cls), cls.keys):
            flags.setdefault(f.name, (key, f.metadata["help"], []))[2].append(cls.kind)
    for name, (key, text, kinds) in flags.items():
        parser.add_argument(f"--{name}", type=float, default=None, dest=key,
                            help=f"{text} ({', '.join(kinds)})")


def _add_estimation_flags(parser: argparse.ArgumentParser,
                          vn_help: str = "spectral bandwidth") -> None:
    parser.add_argument("--u0", type=float, default=None, help="real part of the Mellin line")
    parser.add_argument("--vn", type=float, default=None, help=vn_help)
    parser.add_argument("--eps", type=float, default=None, help="lower edge of the fitting band")
    parser.add_argument("--grid-m", type=int, default=None, dest="grid_m",
                        help="grid count for both the fitting and inversion grids")
    parser.add_argument("--floor", type=float, default=None,
                        help="ill-conditioning floor (default 10/sqrt(n))")
    parser.add_argument("--x-min", type=float, default=None, dest="x_min")
    parser.add_argument("--x-max", type=float, default=None, dest="x_max")
    parser.add_argument("--x-points", type=int, default=None, dest="x_points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gouest",
        description="Simulation and nonparametric estimation for subordinator-driven "
                    "generalized Ornstein-Uhlenbeck models.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw stationary observations, write sample CSV")
    _add_model_flags(p)
    p.add_argument("-n", "--n", type=int, default=None, help="sample size (default 10^4)")
    _add_common(p)

    p = sub.add_parser("estimate", help="estimate the triplet and Levy density from a sample CSV")
    p.add_argument("sample", help="sample CSV file (header 'x')")
    _add_estimation_flags(p)
    _add_common(p, seed=False)

    p = sub.add_parser("experiment1", help="reference study, drift-plus-exponential model")
    p.add_argument("-n", "--n", type=int, default=None, help="curve sample size (default 10^4)")
    p.add_argument("--reps", type=int, default=None, help="replicates per ladder point")
    _add_common(p, config=False)

    p = sub.add_parser("experiment2", help="reference study, truncated-normal model")
    p.add_argument("-n", "--n", type=int, default=None, help="sample size (default 10^4)")
    p.add_argument("--vn", type=float, default=None, help="inversion bandwidth (default 6)")
    _add_common(p, config=False)

    p = sub.add_parser("rate-study", help="replicated convergence-rate study")
    _add_model_flags(p)
    p.add_argument("--n-ladder", default=None, dest="n_ladder",
                   help="comma-separated sample sizes (default 1000,10000,100000)")
    p.add_argument("--reps", type=int, default=None,
                   help=f"replicates (default {RateStudyConfig.replicates})")
    p.add_argument("--s", type=float, default=None,
                   help="smoothness s of the bandwidth rule, may be fractional "
                        f"(default {RateStudyConfig.smoothness:g})")
    p.add_argument("--beta", type=float, default=None, help="polynomial Mellin decay exponent")
    p.add_argument("--alpha-decay", type=float, default=None, dest="alpha_decay",
                   help="exponential Mellin decay rate")
    p.add_argument("--decay", choices=["polynomial", "exponential"], default=None)
    # --vn stays parsed, unlisted, so that it is rejected with the bandwidth rule's message
    _add_estimation_flags(p, vn_help=argparse.SUPPRESS)
    _add_common(p)
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "experiment1": _cmd_experiment1,
    "experiment2": _cmd_experiment2,
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
        file_config = _load_config_file(getattr(args, "config", None))
        manifest["config"] = _COMMANDS[args.command](args, file_config, out_dir, outputs)
        # the seed the command drew with, from its flag, the config file or the default
        manifest["seed"] = manifest["config"].get("seed")
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
