"""Command-line interface: estimate, simulate, rate, overpool, diagnostics and
data-diagnostics.

Every command takes ``--kernel``, ``--degree``, ``--bandwidth``, ``--out`` and
``--format``, and reads every option it takes.  Only ``estimate`` and the two
diagnostics commands take ``--grid``, and these two take no ``--seed``;
``data-diagnostics`` takes no model options.  ``--estimator`` names (DH, DM,
LL, DH_binned) are case-insensitive.  The diagnostics and DH_binned are local
linear and refuse any ``--degree`` but 1.

``estimate`` reads a file, checks the options that pooling needs, then pools
and estimates through ``simulation.pool_step`` and ``estimate_step``, the
steps every simulated replicate runs.  It refuses ``--nu`` where nothing
pools: with pooled input, whose pool sizes fix nu, and with ``ll``.  It
refuses ``--seed`` except where ``dm`` pools individual data at random.

Option precedence is CLI flag > config-file value > built-in default.  The
config file (``--config``) is a flat JSON object keyed by long option names
with ``_`` for ``-`` (``N``, ``widen_on_failure``).  Its values
are parsed by the command's own parser, so they get the flags' types and
choices: a list stands for a repeated flag, ``true`` for a bare switch, and
``false`` or ``null`` for an absent one.  A flag replaces the config's value
of the same option, lists included.  An unknown key or an abbreviated flag
exits with code 2, and a repeated single-valued flag takes its last value.
All randomness flows from ``--seed``; the commands that draw random numbers
refuse to run without one.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import io as pio
# estimate_* and pool_* are not called here (simulation's pool_step and
# estimate_step run them); they stay importable from this module because
# perfbench's tracer hooks them by name in both modules.
from .estimators import (  # noqa: F401
    asymptotic_diagnostics,
    data_mode_diagnostics,
    estimate_dh,
    estimate_dh_binned,
    estimate_dm,
    estimate_ll,
)
from .kernels import kernel
from .models import constant_model, make_model
from .pooling import (  # noqa: F401
    pool_binned,
    pool_homogeneous,
    pool_random,
)
from .simulation import (
    ESTIMATOR_NAMES,
    ExperimentError,
    estimate_step,
    overpooling_experiment,
    pool_step,
    rate_experiment,
    run_table,
)
from .smoothing import BandwidthRule, SmootherSpec

log = logging.getLogger("poolreg")

_COMMON = {
    "kernel": "gaussian",
    "degree": 1,
    "out": "poolreg-out",
    "format": ("csv", "json"),
}

# The value of every option a command reads when neither a flag nor the config
# sets it.  estimate smooths one dataset (cv); the simulation commands use the
# steadier plug-in rule; both diagnostics demand an explicit fixed bandwidth.
_BUILT_IN = {
    "estimate": {**_COMMON, "bandwidth": "cv", "grid": "201", "seed": None,
                 "input": None, "estimator": None, "nu": None,
                 "widen_on_failure": False},
    "simulate": {**_COMMON, "bandwidth": "plugin", "seed": None, "model": ["iii"],
                 "law": "uniform", "N": [5000], "nu": [5], "estimator": ["DH"],
                 "traces": False, "replicates": 200},
    "rate": {**_COMMON, "bandwidth": "plugin", "seed": None, "model": "iii",
             "law": "uniform", "N": [1000, 4000, 16000], "nu": 5, "replicates": 100},
    "overpool": {**_COMMON, "bandwidth": "plugin", "seed": None, "p0": 0.1,
                 "N": 10_000, "nu": [5, 10, 20, 40], "replicates": 100},
    "diagnostics": {**_COMMON, "bandwidth": "cv", "grid": "201", "model": "iii",
                    "law": "uniform", "N": 10_000, "nu": 5},
    "data-diagnostics": {**_COMMON, "bandwidth": "cv", "grid": "201", "input": None,
                         "nu": 5},
}


class CliError(ValueError):
    """Bad command-line usage (missing flag, unusable combination)."""


def _parse_bandwidth(text: str) -> BandwidthRule:
    text = text.strip()
    if text == "cv":
        return BandwidthRule.cv()
    if text == "plugin":
        return BandwidthRule.plugin()
    if text.startswith("fixed:"):
        try:
            return BandwidthRule.fixed(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise CliError(f"bad fixed bandwidth in {text!r}") from exc
    raise CliError(f"--bandwidth must be fixed:H, cv or plugin (got {text!r})")


def _parse_grid(text: str):
    """Grid spec: ``N`` points over the data range, or ``a:b:N``."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            if n < 2:
                raise ValueError
            return (None, None, n)
        if len(parts) == 3:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 2 or not b > a or not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError
            return (a, b, n)
    except ValueError:
        pass
    raise CliError(f"--grid must be N or a:b:N with finite a < b (got {text!r})")


def _estimator_name(text: str) -> str:
    """The estimator that text names in any case; other text is left to choices."""
    return {n.lower(): n for n in ESTIMATOR_NAMES}.get(text.lower(), text)


def _formats(text: str) -> tuple[str, ...]:
    fmts = tuple(f.strip() for f in text.split(",") if f.strip())
    bad = [f for f in fmts if f not in ("csv", "json")]
    if bad or not fmts:
        raise argparse.ArgumentTypeError(
            "--format takes a comma-separated subset of csv,json")
    return fmts


def _smoother(opt) -> SmootherSpec:
    return SmootherSpec(kernel(opt["kernel"]), opt["degree"],
                        _parse_bandwidth(opt["bandwidth"]))


def _require_seed(opt, what: str) -> int:
    if opt["seed"] is None:
        raise CliError(f"--seed is required for {what} (no silent nondeterminism)")
    return opt["seed"]


def _input_path(opt) -> Path:
    if opt["input"] is None:
        raise CliError("--input is required")
    path = Path(opt["input"])
    if not path.exists():
        raise CliError(f"input file not found: {path}")
    return path


def _emit(result, opt, stem: str) -> None:
    for f in pio.emit_results(result, opt["format"], opt["out"], stem):
        log.info("wrote %s", f)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_estimate(opt) -> int:
    path = _input_path(opt)
    name = opt["estimator"]
    if name is None:
        raise CliError(f"--estimator is required ({', '.join(ESTIMATOR_NAMES)})")
    spec = _smoother(opt)
    gridspec = _parse_grid(opt["grid"])

    if pio.is_pooled_csv(path):
        data = pio.ingest_pooled_csv(path)
        log.info("ingested %d pooled groups (strategy %s)", data.n_groups,
                 data.strategy)
        if name in ("LL", "DH_binned"):
            raise CliError(f"the {name} estimator needs individual-level input")
        if opt["nu"] is not None:
            raise CliError("--nu is not read with pooled input: its pool sizes fix nu")
        if opt["seed"] is not None:
            raise CliError("--seed is not read with pooled input: its pools are formed")
        x = data.member_covariates
    else:
        raw = pio.ingest_individual_csv(path)
        log.info("ingested %d individual rows (d=%d)", raw.n, raw.dimension)
        if name == "LL" and opt["nu"] is not None:
            raise CliError("--nu is not read by the LL estimator, which does not pool")
        if name != "LL" and opt["nu"] is None:
            raise CliError("--nu is required to pool individual data")
        if name != "DM" and opt["seed"] is not None:
            raise CliError(f"--seed is not read by the {name} estimator: only DM "
                           "pools at random")
        seed = _require_seed(opt, "random pooling") if name == "DM" else None
        x = raw.covariates.reshape(raw.n, -1)
        region = tuple(zip(x.min(axis=0).tolist(), x.max(axis=0).tolist()))
        constant = [k for k, (lo, hi) in enumerate(region) if lo == hi]
        if name == "DH_binned" and constant:
            column = "x" if constant[0] == 0 else f"x{constant[0] + 1}"
            raise CliError(f"covariate {column} is constant: dh_binned bins the "
                           "range of every covariate, so each needs two values")
        data = pool_step(name, raw, opt["nu"], region, seed)

    if name == "DH_binned" and data.dimension > 1:
        if gridspec[0] is not None:
            raise CliError("a:b:N grids are univariate; multivariate "
                           "evaluation uses the nonempty bin centers")
        grid = data.centers()
    else:
        grid = _grid_array(gridspec, float(x.min()), float(x.max()))
    result = estimate_step(name, data, spec, grid, opt["widen_on_failure"])

    if name != "LL" and not data.z_star().any():
        log.warning(
            "every pool tested positive (%d pools): p_hat = 1 everywhere carries "
            "no information about the curve; use a smaller group size nu",
            data.n_groups,
        )
    n_clamped = int((result.clamp_flags != 0).sum())
    n_failed = int((result.failures != 0).sum())
    if n_clamped:
        log.warning("clamped_points=%d of %d", n_clamped, result.p_hat.shape[0])
    if n_failed:
        log.warning("failed_points=%d of %d", n_failed, result.p_hat.shape[0])
    _emit(result, opt, f"estimate_{result.estimator_tag.lower()}")
    return 0


def _grid_array(gridspec, lo, hi) -> np.ndarray:
    a, b, n = gridspec
    if a is None:
        a, b = lo, hi
    return np.linspace(a, b, n)


def _cmd_simulate(opt) -> int:
    seed = _require_seed(opt, "simulate")
    models = [make_model(m, law=opt["law"]) for m in opt["model"]]
    result = run_table(
        models, opt["N"], opt["nu"], opt["estimator"],
        smoother=_smoother(opt), replicates=opt["replicates"], seed=seed,
        with_traces=opt["traces"],
    )
    rows, trace_rows = result if opt["traces"] else (result, None)
    excluded = sum(r.cell.n_failed_reps for r in rows)
    if excluded:
        log.warning("excluded_replicates=%d across %d cells", excluded, len(rows))
    _emit(rows, opt, "table")
    if trace_rows is not None:  # _emit has made the directory
        f = pio.write_traces_csv(trace_rows, Path(opt["out"]) / "table_traces.csv")
        log.info("wrote %s", f)
    return 0


def _cmd_rate(opt) -> int:
    seed = _require_seed(opt, "rate")
    res = rate_experiment(
        make_model(opt["model"], law=opt["law"]), opt["nu"], opt["N"],
        replicates=opt["replicates"], seed=seed, smoother=_smoother(opt),
    )
    log.info("slope=%.4f band=[%.4f, %.4f]", res.slope, *res.slope_band)
    _emit(res, opt, "rate")
    return 0


def _cmd_overpool(opt) -> int:
    seed = _require_seed(opt, "overpool")
    rows = overpooling_experiment(
        constant_model(opt["p0"]), opt["N"], opt["nu"],
        replicates=opt["replicates"], seed=seed, smoother=_smoother(opt),
    )
    _emit(rows, opt, "overpool")
    return 0


def _diagnostics_options(opt):
    """The smoother, its fixed bandwidth and the grid spec of a diagnostics run."""
    spec = _smoother(opt)
    if spec.bandwidth.mode != "fixed":
        raise CliError("diagnostics evaluate the error formulas at a concrete "
                       "bandwidth; pass --bandwidth fixed:H")
    return spec, float(spec.bandwidth.h), _parse_grid(opt["grid"])


def _cmd_diagnostics(opt) -> int:
    spec, h, gridspec = _diagnostics_options(opt)
    model = make_model(opt["model"], law=opt["law"])
    grid = _grid_array(gridspec, *model.quantile_band())
    diag = asymptotic_diagnostics(model, spec, opt["nu"], opt["N"], h, grid)
    _emit(diag, opt, "diagnostics")
    return 0


def _cmd_data_diagnostics(opt) -> int:
    spec, h, gridspec = _diagnostics_options(opt)
    raw = pio.ingest_individual_csv(_input_path(opt))
    pooled = pool_step("DH", raw, opt["nu"], None, None)
    grid = _grid_array(gridspec, *np.quantile(raw.covariates, [0.05, 0.95]))
    _emit(data_mode_diagnostics(pooled, spec, h, grid), opt, "diagnostics")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolreg",
        description="Prevalence curves from group-tested (pooled) samples",
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, replicated=False):
        # an option the command line leaves out stays absent, so that the
        # config file and _BUILT_IN can fill it in
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p.add_argument("--kernel", choices=["gaussian", "epanechnikov", "uniform"])
        p.add_argument("--degree", type=int)
        p.add_argument("--bandwidth", help="fixed:H | cv | plugin")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", type=_formats, help="csv,json subset")
        if replicated:
            p.add_argument("--replicates", type=int)
            p.add_argument("--seed", type=int)
        return p

    p_est = command("estimate", "estimate a prevalence curve from a file")
    p_est.add_argument("--input")
    p_est.add_argument("--grid", help="N | a:b:N")
    p_est.add_argument("--seed", type=int, help="random pooling (dm only)")
    p_est.add_argument("--estimator", type=_estimator_name, choices=ESTIMATOR_NAMES,
                       help="case-insensitive")
    p_est.add_argument("--nu", type=float)
    p_est.add_argument("--widen-on-failure", action="store_true",
                       help="retry failed grid points with doubled bandwidths")

    p_sim = command("simulate", "Monte Carlo summary table", replicated=True)
    p_sim.add_argument("--model", action="append", choices=["i", "ii", "iii", "iv"])
    p_sim.add_argument("--law", choices=["uniform", "normal"])
    p_sim.add_argument("--N", action="append", type=int)
    p_sim.add_argument("--nu", action="append", type=int)
    p_sim.add_argument("--estimator", action="append", type=_estimator_name,
                       choices=ESTIMATOR_NAMES, help="case-insensitive")
    p_sim.add_argument("--traces", action="store_true",
                       help="also write per-replicate ISE values for audit")

    p_rate = command("rate", "convergence-rate experiment", replicated=True)
    p_rate.add_argument("--model", choices=["i", "ii", "iii", "iv"])
    p_rate.add_argument("--law", choices=["uniform", "normal"])
    p_rate.add_argument("--N", action="append", type=int)
    p_rate.add_argument("--nu", type=int)

    p_over = command("overpool", "over-pooling degradation experiment",
                     replicated=True)
    p_over.add_argument("--p0", type=float, help="flat prevalence level")
    p_over.add_argument("--N", type=int)
    p_over.add_argument("--nu", action="append", type=int)

    p_diag = command("diagnostics", "asymptotic error diagnostics of a model")
    p_diag.add_argument("--grid", help="N | a:b:N")
    p_diag.add_argument("--model", choices=["i", "ii", "iii", "iv"])
    p_diag.add_argument("--law", choices=["uniform", "normal"])
    p_diag.add_argument("--N", type=int)
    p_diag.add_argument("--nu", type=int)

    p_data = command("data-diagnostics",
                     "asymptotic error diagnostics estimated from an individual CSV")
    p_data.add_argument("--input")
    p_data.add_argument("--grid", help="N | a:b:N")
    p_data.add_argument("--nu", type=int)

    return parser


def _config_options(parser, command: str, path: str) -> dict:
    """The options a config file sets, parsed as flags by the command's parser."""
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CliError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        for v in value if isinstance(value, list) else [value]:
            if v is True:
                tokens.append(flag)
            elif v is not False and v is not None:
                tokens.append(f"{flag}={v}")
    ns, unknown = parser.parse_known_args([command, *tokens])
    if unknown:
        keys = sorted({t[2:].split("=", 1)[0].replace("-", "_") for t in unknown})
        raise CliError(f"unknown config key(s) for {command}: {', '.join(keys)}")
    del ns.command
    return vars(ns)


def _resolve_options(argv) -> tuple[str, dict]:
    """The command and its options: built-in, then config file, then flags."""
    parser = build_parser()
    flags = vars(parser.parse_args(argv))
    command = flags.pop("command")
    from_config = (_config_options(parser, command, flags.pop("config"))
                   if "config" in flags else {})
    return command, {**_BUILT_IN[command], **from_config, **flags}


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "rate": _cmd_rate,
    "overpool": _cmd_overpool,
    "diagnostics": _cmd_diagnostics,
    "data-diagnostics": _cmd_data_diagnostics,
}


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="poolreg: %(levelname)s %(message)s"
    )
    try:
        command, opt = _resolve_options(argv)
        return _COMMANDS[command](opt)
    except (ValueError, ExperimentError) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("i/o failure: %s (%s)", exc, getattr(exc, "filename", "?"))
        return 2


if __name__ == "__main__":
    sys.exit(main())
