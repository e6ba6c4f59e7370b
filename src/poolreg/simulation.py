"""Monte Carlo harness: ISE protocol, summary tables, rate and over-pooling runs.

Every replicate draws its own generator from (master seed, cell index,
replicate index), so cells and replicates are independent and the whole
table is reproducible bit for bit from one seed, regardless of execution
order.

``pool_step`` and ``estimate_step`` are the one table from an estimator's
name to its pooling and its estimate; ``poolreg estimate`` runs them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import (
    EstimateResult,
    EstimationError,
    estimate_dh,
    estimate_dh_binned,
    estimate_dm,
    estimate_ll,
)
from .models import PrevalenceModel
from .pooling import (
    RawDataset,
    pool_binned,
    pool_homogeneous,
    pool_random,
)
from .smoothing import BandwidthError, BandwidthRule, SmootherSpec

ESTIMATOR_NAMES = ("DH", "DM", "LL", "DH_binned")


def default_table_smoother() -> SmootherSpec:
    """Harness default: local linear, gaussian kernel, plug-in bandwidth.

    The plug-in is far steadier than raw cross-validation on binary pooled
    responses, whose leave-one-out score is dominated by Bernoulli noise.
    """
    return SmootherSpec(bandwidth=BandwidthRule.plugin())


ISE_GRID_POINTS = 401
_DM_POOL_SALT = 1  # extra seed key so random pooling never aliases sampling


class ReplicateFailed(RuntimeError):
    """A replicate produced too many failed grid points to score."""


class ExperimentError(RuntimeError):
    """An experiment cell failed outright (too many unusable replicates)."""


def seed_stream(master: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, cell index, replicate index, ...)."""
    if master < 0:
        raise ValueError("seeds must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([int(master), *map(int, key)]))


@dataclass(frozen=True)
class SimulationSpec:
    """One table cell: model, sizes, estimators, smoother and master seed."""

    model: PrevalenceModel
    n: int
    nu: int
    estimators: tuple[str, ...] = ("DH",)
    smoother: SmootherSpec = field(default_factory=default_table_smoother)
    replicates: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        bad = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if bad:
            raise ValueError(f"unknown estimators {bad}; choose from {ESTIMATOR_NAMES}")
        if self.n < 1:
            raise ValueError(f"N must be >= 1 (got N={self.n})")
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        if any(e != "LL" for e in self.estimators) and self.n % self.nu != 0:
            raise ValueError("nu must divide N for the pooled estimators")
        if "DH_binned" in self.estimators and self.smoother.degree != 1:
            raise ValueError("DH_binned is local linear: it needs degree 1, "
                             f"got {self.smoother.degree}")


@dataclass(frozen=True)
class SummaryCell:
    """10^4 x median and interquartile range of the ISE over the replicates."""

    med_ise_e4: float
    iqr_ise_e4: float
    n_failed_reps: int
    replicates: int

    @property
    def flagged(self) -> bool:
        return self.n_failed_reps > 0.25 * self.replicates


@dataclass(frozen=True)
class TableRow:
    model_id: str
    law: str
    n: int
    nu: int
    estimator: str
    cell: SummaryCell


@dataclass(frozen=True)
class TraceRow:
    """Per-replicate ISE record for audit; ise is None for failed replicates."""

    model_id: str
    law: str
    n: int
    nu: int
    estimator: str
    replicate: int
    ise: float | None


def sample_replicate(
    model: PrevalenceModel, n: int, seed_stream: np.random.Generator | int
) -> RawDataset:
    """Draw X iid from the covariate law and Y | X ~ Bernoulli(p(X))."""
    rng = (
        seed_stream
        if isinstance(seed_stream, np.random.Generator)
        else np.random.default_rng(seed_stream)
    )
    x = model.law.sample(rng, n)
    y = (rng.random(n) < model.p(x)).astype(np.int8)
    return RawDataset(x, y)


def ise(
    result: EstimateResult,
    model: PrevalenceModel,
    quantile_band: tuple[float, float] = (0.05, 0.95),
) -> float:
    """Integrated squared error over the central quantile band of the law.

    Trapezoidal rule on a uniform grid between the band's *distribution*
    quantiles.  Failed grid points are linearly interpolated from their
    neighbors and counted; a replicate with more than 10% failed points in
    the band cannot be scored.
    """
    a, b = model.quantile_band(*quantile_band)
    grid = np.linspace(a, b, ISE_GRID_POINTS)

    gx = np.asarray(result.grid, dtype=float)
    if gx.ndim != 1:
        raise ValueError("ise requires a univariate estimate")
    in_band = (gx >= a) & (gx <= b)
    bad = (result.failures != 0) | ~np.isfinite(result.p_hat)
    n_band = int(in_band.sum())
    if n_band == 0 or gx.min() > a or gx.max() < b:
        raise ReplicateFailed("estimate grid does not cover the quantile band")
    if int((bad & in_band).sum()) > 0.10 * n_band:
        raise ReplicateFailed(
            f"{int((bad & in_band).sum())} of {n_band} grid points failed"
        )
    good = ~bad
    if good.sum() < 2:
        raise ReplicateFailed("fewer than two usable grid points")
    p_hat = np.interp(grid, gx[good], result.p_hat[good])
    diff = p_hat - np.asarray(model.p(grid), dtype=float)
    return float(np.trapezoid(diff * diff, grid))


def _binned_region(model: PrevalenceModel) -> tuple[tuple[float, float], ...]:
    if model.law.kind == "uniform":
        return ((model.law.a, model.law.b),)
    return ((model.law.quantile(1e-4), model.law.quantile(1.0 - 1e-4)),)


def pool_step(name: str, raw: RawDataset, nu, region, rng):
    """The pools the named estimator smooths; LL keeps the raw sample.

    ``region`` bounds DH_binned's bins and ``rng`` (a generator or a seed)
    forms DM's random pools; each estimator ignores what it does not use.
    """
    if name == "LL":
        return raw
    if raw.responses is None:
        raise EstimationError(f"individual input has no y column: the {name} "
                              "estimator pools the responses")
    if name == "DH":
        return pool_homogeneous(raw, nu)
    if name == "DM":
        return pool_random(raw, nu, rng)
    return pool_binned(raw, nu, region)


def estimate_step(
    name: str, data, smoother: SmootherSpec, grid, widen_on_failure: bool = False
) -> EstimateResult:
    """The named estimator's curve from ``pool_step``'s output."""
    # looked up per call, so that the estimate_* a tracer patches here are used
    estimate = {"DH": estimate_dh, "DM": estimate_dm, "LL": estimate_ll,
                "DH_binned": estimate_dh_binned}[name]
    return estimate(data, smoother, grid, widen_on_failure)


def _run_cell(spec: SimulationSpec, cell_index: int):
    """The one replicate loop, shared by tables, rate and over-pooling runs.

    Returns per estimator the replicate ISEs (None where unscorable) and the
    count of replicates whose pools all tested positive.  Pooling sits
    outside the ``try``: ``SimulationSpec`` has already validated nu.
    """
    grid = np.linspace(*spec.model.quantile_band(), ISE_GRID_POINTS)
    region = _binned_region(spec.model)

    per_rep: dict[str, list[float | None]] = {e: [] for e in spec.estimators}
    all_positive = dict.fromkeys(spec.estimators, 0)
    for r in range(spec.replicates):
        raw = sample_replicate(spec.model, spec.n, seed_stream(spec.seed, cell_index, r))
        pool_rng = seed_stream(spec.seed, cell_index, r, _DM_POOL_SALT)
        for name in spec.estimators:
            data = pool_step(name, raw, spec.nu, region, pool_rng)
            if name != "LL" and not data.z_star().any():
                all_positive[name] += 1
            try:
                est = estimate_step(name, data, spec.smoother, grid)
                per_rep[name].append(ise(est, spec.model))
            except (EstimationError, BandwidthError, ReplicateFailed):
                per_rep[name].append(None)
    return per_rep, all_positive


def _summary(scores: list[float | None], replicates: int) -> SummaryCell:
    """10^4 x median and IQR of the scored replicates; None counts as failed."""
    vals = np.asarray([v for v in scores if v is not None])
    if vals.size:
        med = float(np.median(vals)) * 1e4
        iqr = float(np.quantile(vals, 0.75) - np.quantile(vals, 0.25)) * 1e4
    else:
        med = iqr = math.nan
    return SummaryCell(med, iqr, len(scores) - vals.size, replicates)


def run_cell(spec: SimulationSpec, cell_index: int = 0) -> dict[str, SummaryCell]:
    """Replicate loop {sample, pool, select bandwidth, estimate, ISE} for a cell.

    All estimators in the cell see the same replicate datasets.  Replicates
    that cannot be scored (sparse-data fit failures) are excluded from the
    median/IQR and counted.
    """
    per_rep, _ = _run_cell(spec, cell_index)
    return {name: _summary(per_rep[name], spec.replicates) for name in spec.estimators}


def run_table(
    models: list[PrevalenceModel],
    n_values: list[int],
    nu_values: list[int],
    estimators: tuple[str, ...],
    smoother: SmootherSpec | None = None,
    replicates: int = 200,
    seed: int = 0,
    with_traces: bool = False,
):
    """Full (model, N, nu, estimator) grid of summary cells.

    Cell indices follow the enumeration order of the (model, N, nu) product,
    which together with the master seed fixes every replicate stream.  With
    ``with_traces`` the per-replicate ISE values are returned alongside the
    summary rows for audit.
    """
    smoother = smoother if smoother is not None else default_table_smoother()
    specs = [SimulationSpec(m, n, nu, tuple(estimators), smoother, replicates, seed)
             for m in models for n in n_values for nu in nu_values]
    rows: list[TableRow] = []
    trace_rows: list[TraceRow] = []
    for cell_index, spec in enumerate(specs):
        per_rep, _ = _run_cell(spec, cell_index)
        key = (spec.model.model_id, spec.model.law.kind, spec.n, spec.nu)
        for name in estimators:
            rows.append(TableRow(*key, name, _summary(per_rep[name], replicates)))
            if with_traces:
                trace_rows.extend(
                    TraceRow(*key, name, r, v) for r, v in enumerate(per_rep[name])
                )
    if with_traces:
        return rows, trace_rows
    return rows


# ---------------------------------------------------------------------------
# rate experiment


@dataclass(frozen=True)
class RateResult:
    n_values: tuple[int, ...]
    med_ise: tuple[float, ...]
    bandwidths: tuple[float, ...]
    slope: float
    slope_band: tuple[float, float]
    n_failed: tuple[int, ...]


def rate_experiment(
    model: PrevalenceModel,
    nu: int,
    n_values: list[int],
    replicates: int = 100,
    seed: int = 0,
    smoother: SmootherSpec | None = None,
) -> RateResult:
    """Log-log slope of the median ISE against N.

    A fixed bandwidth rule uses its h at every N.  A cv or plugin rule
    chooses h0 on a deterministic pilot replicate at the smallest N0, and
    h(N) = h0 (N/N0)^(-1/5), the first-order optimal scaling.  The slope's
    bootstrap band resamples replicate ISE values within each N.  A slope
    needs at least 3 distinct values of N.
    """
    n_values = sorted(int(n) for n in n_values)
    if len(set(n_values)) < 3:
        raise ValueError("rate experiment needs at least 3 distinct values of N "
                         f"(got {n_values})")
    base = smoother if smoother is not None else default_table_smoother()
    specs = [SimulationSpec(model, n, nu, ("DH",), base, replicates, seed)
             for n in n_values]

    if base.bandwidth.mode == "fixed":
        bandwidths = [float(base.bandwidth.h)] * len(n_values)
    else:
        from .smoothing import select_bandwidth

        pilot_raw = sample_replicate(model, n_values[0], seed_stream(seed, 10_000))
        pooled = pool_homogeneous(pilot_raw, nu)
        design = np.column_stack([pooled.centers(), pooled.z_star()])
        h0 = select_bandwidth(design, base, nu=nu, n_raw=n_values[0])
        bandwidths = [float(h0) * (n / n_values[0]) ** (-0.2) for n in n_values]

    meds, fails, all_scores = [], [], []
    for i, (n, h) in enumerate(zip(n_values, bandwidths)):
        fixed = SmootherSpec(base.kernel, base.degree, BandwidthRule.fixed(h))
        per_rep = _run_cell(replace(specs[i], smoother=fixed), i)[0]["DH"]
        scores = [v for v in per_rep if v is not None]
        n_failed = len(per_rep) - len(scores)
        if not scores or n_failed > 0.25 * replicates:
            raise ExperimentError(
                f"rate experiment cell N={n} failed "
                f"({n_failed} of {replicates} replicates unusable)"
            )
        meds.append(float(np.median(scores)))
        fails.append(n_failed)
        all_scores.append(np.asarray(scores))

    log_n = np.log(np.asarray(n_values, dtype=float))
    slope = float(np.polyfit(log_n, np.log(np.asarray(meds)), 1)[0])

    rng = seed_stream(seed, 20_000)
    boot = np.empty(200)
    for bso in range(boot.size):
        bmeds = [
            float(np.median(rng.choice(s, size=s.size, replace=True)))
            for s in all_scores
        ]
        boot[bso] = np.polyfit(log_n, np.log(np.asarray(bmeds)), 1)[0]
    band = (float(np.quantile(boot, 0.025)), float(np.quantile(boot, 0.975)))

    return RateResult(
        tuple(n_values), tuple(meds), tuple(bandwidths), slope, band, tuple(fails)
    )


# ---------------------------------------------------------------------------
# over-pooling experiment


@dataclass(frozen=True)
class OverpoolRow:
    nu: int
    med_ise_e4: float
    iqr_ise_e4: float
    n_failed: int
    n_all_positive: int
    lambda_mid: float


def overpooling_experiment(
    model: PrevalenceModel,
    n: int,
    nu_values: list[int],
    replicates: int = 100,
    seed: int = 0,
    smoother: SmootherSpec | None = None,
) -> list[OverpoolRow]:
    """Median ISE of the pooled estimator as the group size grows.

    Meant for a flat low-prevalence model; the information-loss factor
    lambda_n(x)^5 = (1 - p(x))^(-nu) is reported at the band midpoint.
    Replicates where every pool tests positive are counted separately (the
    pooled negatives then carry no signal at all).
    """
    base = smoother if smoother is not None else default_table_smoother()
    specs = [SimulationSpec(model, n, int(nu), ("DH",), base, replicates, seed)
             for nu in nu_values]
    mid = 0.5 * sum(model.quantile_band())

    rows = []
    for i, spec in enumerate(specs):
        per_rep, all_positive = _run_cell(spec, i)
        cell = _summary(per_rep["DH"], replicates)
        lam = float((1.0 - float(model.p(mid))) ** (-spec.nu / 5.0))
        rows.append(OverpoolRow(spec.nu, cell.med_ise_e4, cell.iqr_ise_e4,
                                cell.n_failed_reps, all_positive["DH"], lam))
    return rows
