"""Command-line interface: estimate, simulate, rate, overpool, diagnostics.

Option precedence is CLI flag > config-file value > built-in default.  The
config file (``--config``) is a flat JSON object keyed by long option names
with underscores.  All randomness flows from ``--seed``; the commands that
draw random numbers refuse to run without one.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as pio
from .estimators import (
    EstimationError,
    asymptotic_diagnostics,
    data_mode_diagnostics,
    estimate_dh,
    estimate_dh_binned,
    estimate_dm,
    estimate_ll,
)
from .kernels import kernel
from .models import constant_model, make_model
from .pooling import PoolingError, pool_binned, pool_homogeneous, pool_random
from .simulation import (
    ExperimentError,
    overpooling_experiment,
    rate_experiment,
    run_table,
)
from .smoothing import BandwidthError, BandwidthRule, SmootherSpec

log = logging.getLogger("poolreg")

_DEFAULTS = {
    "kernel": "gaussian",
    "degree": 1,
    "grid": "201",
    "format": "csv,json",
    "out": "poolreg-out",
    "law": "uniform",
}

# estimate smooths one dataset (cv default); the simulation commands use the
# steadier plug-in rule; diagnostics demand an explicit fixed bandwidth
_BANDWIDTH_DEFAULTS = {
    "estimate": "cv",
    "simulate": "plugin",
    "rate": "plugin",
    "overpool": "plugin",
    "diagnostics": "cv",
}


class CliError(ValueError):
    """Bad command-line usage (missing flag, unusable combination)."""


@dataclass(frozen=True)
class RunConfig:
    """Normalized invocation: one command plus its resolved options."""

    command: str
    options: dict


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
            if n < 2 or not b > a:
                raise ValueError
            return (a, b, n)
    except ValueError:
        pass
    raise CliError(f"--grid must be N or a:b:N (got {text!r})")


def _formats(text: str) -> tuple[str, ...]:
    fmts = tuple(f.strip() for f in text.split(",") if f.strip())
    bad = [f for f in fmts if f not in ("csv", "json")]
    if bad or not fmts:
        raise CliError("--format takes a comma-separated subset of csv,json")
    return fmts


def _smoother(opt) -> SmootherSpec:
    return SmootherSpec(kernel(opt["kernel"]), int(opt["degree"]),
                        _parse_bandwidth(opt["bandwidth"]))


def _pick(ns: argparse.Namespace, cfg: dict, key: str):
    val = getattr(ns, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return _DEFAULTS.get(key)


def _require_seed(opt, what: str) -> int:
    if opt.get("seed") is None:
        raise CliError(f"--seed is required for {what} (no silent nondeterminism)")
    return int(opt["seed"])


def _sniff_pooled(path: Path) -> bool:
    with path.open() as fh:
        first = fh.readline()
    return first.split(",")[0].strip() == "group_id"


# ---------------------------------------------------------------------------
# command implementations


def _cmd_estimate(opt) -> int:
    path = Path(opt["input"])
    if not path.exists():
        raise CliError(f"input file not found: {path}")
    name = opt["estimator"]
    if name is None:
        raise CliError("--estimator is required (dh, dm, ll or dh_binned)")
    name = name.lower()
    spec = _smoother(opt)
    gridspec = _parse_grid(opt["grid"])

    pooled = raw = None
    if _sniff_pooled(path):
        pooled = pio.ingest_pooled_csv(path)
        log.info("ingested %d pooled groups (strategy %s)", pooled.n_groups,
                 pooled.strategy)
    else:
        raw = pio.ingest_individual_csv(path)
        log.info("ingested %d individual rows (d=%d)", raw.n, raw.dimension)

    widen = bool(opt.get("widen_on_failure") or False)
    if name == "dh":
        if pooled is None:
            if raw.responses is None:
                raise CliError(
                    "individual input has no y column: responses are required "
                    "to pool on the fly for the DH estimator"
                )
            if opt.get("nu") is None:
                raise CliError("--nu is required to pool individual data")
            pooled = pool_homogeneous(raw, int(opt["nu"]))
        lo, hi = pooled.covariate_range()
        result = estimate_dh(pooled, spec, _grid_array(gridspec, lo, hi), widen)
    elif name == "ll":
        if raw is None:
            raise CliError("the LL estimator needs individual-level input")
        lo, hi = float(raw.covariates.min()), float(raw.covariates.max())
        result = estimate_ll(raw, spec, _grid_array(gridspec, lo, hi), widen)
    elif name == "dm":
        if pooled is None:
            if raw.responses is None:
                raise CliError(
                    "individual input has no y column: responses are required "
                    "to pool on the fly for the DM estimator"
                )
            if opt.get("nu") is None:
                raise CliError("--nu is required to pool individual data")
            seed = _require_seed(opt, "random pooling")
            pooled = pool_random(raw, int(opt["nu"]), seed)
        lo, hi = pooled.covariate_range()
        result = estimate_dm(pooled, spec, _grid_array(gridspec, lo, hi), widen)
    elif name == "dh_binned":
        if raw is None:
            raise CliError(
                "the binned estimator rebins individual-level data; pooled "
                "input does not carry the bin geometry"
            )
        if raw.responses is None:
            raise CliError("individual input has no y column")
        if opt.get("nu") is None:
            raise CliError("--nu is required to bin individual data")
        x = raw.covariates.reshape(raw.n, raw.dimension) if raw.dimension > 1 else (
            raw.covariates[:, None]
        )
        region = tuple(
            (float(x[:, k].min()), float(x[:, k].max())) for k in range(raw.dimension)
        )
        pooled = pool_binned(raw, float(opt["nu"]), region)
        if raw.dimension == 1:
            lo, hi = region[0]
            grid = _grid_array(gridspec, lo, hi)
        else:
            if gridspec[0] is not None:
                raise CliError("a:b:N grids are univariate; multivariate "
                               "evaluation uses the nonempty bin centers")
            grid = pooled.centers()
        result = estimate_dh_binned(pooled, spec, grid, widen)
    else:
        raise CliError(f"unknown estimator {name!r}")

    if pooled is not None and not pooled.z_star().any():
        log.warning(
            "every pool tested positive (%d pools): p_hat = 1 everywhere carries "
            "no information about the curve; use a smaller group size nu",
            pooled.n_groups,
        )
    n_clamped = int((result.clamp_flags != 0).sum())
    n_failed = int((result.failures != 0).sum())
    if n_clamped:
        log.warning("clamped_points=%d of %d", n_clamped, result.p_hat.shape[0])
    if n_failed:
        log.warning("failed_points=%d of %d", n_failed, result.p_hat.shape[0])
    files = pio.emit_results(result, opt["formats"], opt["out"],
                             f"estimate_{result.estimator_tag.lower()}")
    for f in files:
        log.info("wrote %s", f)
    return 0


def _grid_array(gridspec, lo, hi) -> np.ndarray:
    a, b, n = gridspec
    if a is None:
        a, b = lo, hi
    return np.linspace(a, b, n)


def _models_from(opt):
    ids = opt["model"] or ["iii"]
    return [make_model(m, law=opt["law"]) for m in ids]


def _cmd_simulate(opt) -> int:
    seed = _require_seed(opt, "simulate")
    models = _models_from(opt)
    n_values = [int(v) for v in (opt["n"] or [5000])]
    nu_values = [int(v) for v in (opt["nu"] or [5])]
    canon = {"dh": "DH", "dm": "DM", "ll": "LL", "dh_binned": "DH_binned"}
    estimators = tuple(canon[e.lower()] for e in (opt["estimator"] or ["DH"]))
    replicates = int(opt["replicates"] or 200)
    with_traces = bool(opt.get("traces") or False)
    result = run_table(
        models, n_values, nu_values, estimators,
        smoother=_smoother(opt), replicates=replicates, seed=seed,
        with_traces=with_traces,
    )
    rows, trace_rows = result if with_traces else (result, None)
    excluded = sum(r.cell.n_failed_reps for r in rows)
    if excluded:
        log.warning("excluded_replicates=%d across %d cells", excluded, len(rows))
    for f in pio.emit_results(rows, opt["formats"], opt["out"], "table"):
        log.info("wrote %s", f)
    if trace_rows is not None:
        outdir = Path(opt["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        f = pio.write_traces_csv(trace_rows, outdir / "table_traces.csv")
        log.info("wrote %s", f)
    return 0


def _cmd_rate(opt) -> int:
    seed = _require_seed(opt, "rate")
    model = make_model((opt["model"] or ["iii"])[0], law=opt["law"])
    n_values = [int(v) for v in (opt["n"] or [1000, 4000, 16000])]
    nu = int(opt["nu"][0]) if opt["nu"] else 5
    res = rate_experiment(
        model, nu, n_values,
        replicates=int(opt["replicates"] or 100), seed=seed,
        smoother=_smoother(opt),
        fixed_h=opt.get("fixed_h"),
    )
    log.info("slope=%.4f band=[%.4f, %.4f]", res.slope, *res.slope_band)
    for f in pio.emit_results(res, opt["formats"], opt["out"], "rate"):
        log.info("wrote %s", f)
    return 0


def _cmd_overpool(opt) -> int:
    seed = _require_seed(opt, "overpool")
    p0 = float(opt["p0"] if opt.get("p0") is not None else 0.1)
    model = constant_model(p0)
    nu_values = [int(v) for v in (opt["nu"] or [5, 10, 20, 40])]
    n = int((opt["n"] or [10_000])[0])
    rows = overpooling_experiment(
        model, n, nu_values,
        replicates=int(opt["replicates"] or 100), seed=seed,
        smoother=_smoother(opt),
    )
    for f in pio.emit_results(rows, opt["formats"], opt["out"], "overpool"):
        log.info("wrote %s", f)
    return 0


def _cmd_diagnostics(opt) -> int:
    rule = _parse_bandwidth(opt["bandwidth"])
    if rule.mode != "fixed":
        raise CliError("diagnostics evaluate the error formulas at a concrete "
                       "bandwidth; pass --bandwidth fixed:H")
    h = float(rule.h)
    nu = int(opt["nu"][0]) if opt["nu"] else 5
    gridspec = _parse_grid(opt["grid"])
    spec = _smoother({**opt, "bandwidth": f"fixed:{h}"})

    if opt.get("input"):
        path = Path(opt["input"])
        if not path.exists():
            raise CliError(f"input file not found: {path}")
        raw = pio.ingest_individual_csv(path)
        if raw.responses is None:
            raise CliError("data-mode diagnostics need a y column")
        pooled = pool_homogeneous(raw, nu)
        lo = float(np.quantile(raw.covariates, 0.05))
        hi = float(np.quantile(raw.covariates, 0.95))
        diag = data_mode_diagnostics(pooled, spec, h, _grid_array(gridspec, lo, hi))
    else:
        model = make_model((opt["model"] or ["iii"])[0], law=opt["law"])
        n = int((opt["n"] or [10_000])[0])
        lo, hi = model.quantile_band()
        diag = asymptotic_diagnostics(
            model, spec, nu, n, h, _grid_array(gridspec, lo, hi)
        )
    for f in pio.emit_results(diag, opt["formats"], opt["out"], "diagnostics"):
        log.info("wrote %s", f)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolreg",
        description="Prevalence curves from group-tested (pooled) samples",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, replicated=False):
        p.add_argument("--kernel", choices=["gaussian", "epanechnikov", "uniform"])
        p.add_argument("--degree", type=int)
        p.add_argument("--bandwidth", help="fixed:H | cv | plugin")
        p.add_argument("--grid", help="N | a:b:N")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", dest="format", help="csv,json subset")
        if replicated:
            p.add_argument("--replicates", type=int)

    p_est = sub.add_parser("estimate", help="estimate a prevalence curve from a file")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--estimator", help="dh | dm | ll | dh_binned")
    p_est.add_argument("--nu", type=float)
    p_est.add_argument("--widen-on-failure", dest="widen_on_failure",
                       action="store_true", default=None,
                       help="retry failed grid points with doubled bandwidths")
    common(p_est)

    p_sim = sub.add_parser("simulate", help="Monte Carlo summary table")
    p_sim.add_argument("--model", action="append", choices=["i", "ii", "iii", "iv"])
    p_sim.add_argument("--law", choices=["uniform", "normal"])
    p_sim.add_argument("--N", dest="n", action="append", type=int)
    p_sim.add_argument("--nu", action="append", type=int)
    p_sim.add_argument("--estimator", action="append",
                       choices=["DH", "DM", "LL", "DH_binned", "dh", "dm", "ll",
                                "dh_binned"])
    p_sim.add_argument("--traces", action="store_true", default=None,
                       help="also write per-replicate ISE values for audit")
    common(p_sim, replicated=True)

    p_rate = sub.add_parser("rate", help="convergence-rate experiment")
    p_rate.add_argument("--model", action="append", choices=["i", "ii", "iii", "iv"])
    p_rate.add_argument("--law", choices=["uniform", "normal"])
    p_rate.add_argument("--N", dest="n", action="append", type=int)
    p_rate.add_argument("--nu", action="append", type=int)
    p_rate.add_argument("--fixed-h", dest="fixed_h", type=float)
    common(p_rate, replicated=True)

    p_over = sub.add_parser("overpool", help="over-pooling degradation experiment")
    p_over.add_argument("--p0", type=float, help="flat prevalence level")
    p_over.add_argument("--N", dest="n", action="append", type=int)
    p_over.add_argument("--nu", action="append", type=int)
    common(p_over, replicated=True)

    p_diag = sub.add_parser("diagnostics", help="asymptotic error diagnostics")
    p_diag.add_argument("--model", action="append", choices=["i", "ii", "iii", "iv"])
    p_diag.add_argument("--law", choices=["uniform", "normal"])
    p_diag.add_argument("--input", help="individual CSV for data-mode diagnostics")
    p_diag.add_argument("--N", dest="n", action="append", type=int)
    p_diag.add_argument("--nu", action="append", type=int)
    common(p_diag)

    return parser


def _resolve_options(ns: argparse.Namespace) -> RunConfig:
    cfg = {}
    if ns.config:
        cfg_path = Path(ns.config)
        if not cfg_path.exists():
            raise CliError(f"config file not found: {cfg_path}")
        cfg = json.loads(cfg_path.read_text())
        if not isinstance(cfg, dict):
            raise CliError("config file must hold a JSON object")

    opt = {}
    for key in vars(ns):
        if key in ("config", "command"):
            continue
        opt[key] = _pick(ns, cfg, key)
    for key in ("kernel", "degree", "grid", "out", "law"):
        if opt.get(key) is None:
            opt[key] = _DEFAULTS[key]
    if opt.get("bandwidth") is None:
        opt["bandwidth"] = _BANDWIDTH_DEFAULTS[ns.command]
    opt["formats"] = _formats(opt.get("format") or _DEFAULTS["format"])
    return RunConfig(ns.command, opt)


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "rate": _cmd_rate,
    "overpool": _cmd_overpool,
    "diagnostics": _cmd_diagnostics,
}


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="poolreg: %(levelname)s %(message)s"
    )
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        run = _resolve_options(ns)
        return _COMMANDS[run.command](run.options)
    except (CliError, BandwidthError, EstimationError, PoolingError,
            pio.DataFormatError, ExperimentError, ValueError) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("i/o failure: %s (%s)", exc, getattr(exc, "filename", "?"))
        return 2


if __name__ == "__main__":
    sys.exit(main())
