"""Prevalence-curve estimators from pooled and unpooled samples.

Three routes to the curve p(x) = P(positive | covariate x):

* ``estimate_dh``: smooth the pooled negatives of *homogeneous* (sorted,
  equal-count) groups against the group means, then invert the power
  transform: p = 1 - mu^(1/nu) with mu = (1-p)^nu.
* ``estimate_dm``: the random-pooling baseline; regress the pooled
  negatives on the individual covariates and undo the mixing with the
  moment estimate q = E{1 - p(X)}.
* ``estimate_ll``: the oracle local polynomial fit of the negatives 1 - y
  on unpooled data.

Every route smooths a pooled-negative response, so at nu = 1, where a pool
is one individual, DH and LL give the same curve.

``estimate_dh_binned`` generalizes the first route to d covariates and
unequal group sizes via equal-width bins, with a per-point exponent given
by the occupancy of the bin containing x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel
from .models import PrevalenceModel
from .pooling import PooledDataset, RawDataset
# grid_fit_local_linear_multi and local_poly_derivatives are not called here
# (grid_fit_with_widening runs the first where the lattice does not serve the
# fit, _pilot_derivatives the second); they stay importable from this module
# because perfbench's tracer hooks them by name in both modules.
from .smoothing import (  # noqa: F401
    SmootherSpec,
    _dh_first_order,
    _grid_fit_1d,
    _normal_reference_density,
    _pilot_derivatives,
    _pilot_prevalence,
    grid_fit_local_linear_multi,
    grid_fit_with_widening,
    local_poly_derivatives,
    resolve_bandwidth,
    select_bandwidth_multi,
)

CLAMP_NONE = 0
CLAMP_LOW = 1
CLAMP_HIGH = 2
CLAMP_NAMES = ("none", "clamped_low", "clamped_high")

FAIL_NONE = 0
FAIL_FIT = 1
FAIL_EMPTY_BIN = 2
FAIL_NAMES = ("none", "fit_failed", "empty_bin")


class EstimationError(ValueError):
    """An estimator's preconditions are not met."""


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Estimated curve on a grid, with clamping and failure bookkeeping.

    ``mu_hat`` holds the raw smoothed curve before clamping: the
    pooled-negative curve for DH, the pooled-positive curve g = 1 - mu for
    DM and the prevalence 1 - mu for LL.  ``p_hat`` is NaN wherever
    ``failures`` is nonzero.
    """

    grid: np.ndarray
    p_hat: np.ndarray
    mu_hat: np.ndarray
    clamp_flags: np.ndarray
    failures: np.ndarray
    bandwidth_used: float
    estimator_tag: str
    nu: float = 1.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, EstimateResult):
            return NotImplemented
        return (
            self.estimator_tag == other.estimator_tag
            and self.bandwidth_used == other.bandwidth_used
            and self.nu == other.nu
            and np.array_equal(self.grid, other.grid, equal_nan=True)
            and np.array_equal(self.p_hat, other.p_hat, equal_nan=True)
            and np.array_equal(self.mu_hat, other.mu_hat, equal_nan=True)
            and np.array_equal(self.clamp_flags, other.clamp_flags)
            and np.array_equal(self.failures, other.failures)
        )


def _clamp_unit(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp into [0, 1]; returns (clamped, flags).  NaN passes through."""
    flags = np.zeros(raw.shape, dtype=np.int8)
    with np.errstate(invalid="ignore"):
        flags[raw < 0.0] = CLAMP_LOW
        flags[raw > 1.0] = CLAMP_HIGH
    return np.clip(raw, 0.0, 1.0), flags


def _check_grid_range(grid: np.ndarray, lo=-np.inf, hi=np.inf) -> None:
    if not np.isfinite(grid).all():
        raise EstimationError("grid points must be finite")
    if grid.size and (grid.min() < lo or grid.max() > hi):
        raise EstimationError(
            f"grid must lie inside the covariate range [{lo:.6g}, {hi:.6g}]"
        )


def _equal_group_size(pooled: PooledDataset) -> int:
    """The group size nu shared by every pool; unequal pools raise."""
    sizes = pooled.sizes()
    if not (sizes == sizes[0]).all():
        raise EstimationError(
            f"group size varies across pools ({sizes.min()} to {sizes.max()}); "
            "dh, dm and data-mode diagnostics need equal pools; dh_binned bins "
            "individual-level input instead"
        )
    return int(sizes[0])


def _check_local_linear(name: str, spec: SmootherSpec) -> None:
    if spec.degree != 1:
        raise EstimationError(
            f"{name} is local linear: it needs degree 1, got {spec.degree}"
        )


def _smooth(u, z, spec: SmootherSpec, grid, widen_on_failure, *, nu=1, n_raw):
    """Choose h, fit z on the grid and flag the points whose fit failed.

    z is a pooled-negative response (1 for a negative test) for every
    estimator, so at nu = 1 each one fits the same numbers.  A (J, d) design
    takes the d-variate cross-validated bandwidth.  Returns (fit, failures, h).
    """
    if np.ndim(u) == 1:
        h = resolve_bandwidth(np.column_stack([u, z]), spec, nu=nu, n_raw=n_raw)
    else:
        h = select_bandwidth_multi(u, z, spec.kernel, spec.bandwidth)
    res = grid_fit_with_widening(
        u, z, spec.degree, spec.kernel, h, grid, widen_on_failure
    )
    failures = np.where(np.isnan(res["value"]), FAIL_FIT, FAIL_NONE).astype(np.int8)
    return res["value"], failures, h


def estimate_dh(
    pooled: PooledDataset, spec: SmootherSpec, grid, widen_on_failure: bool = False
) -> EstimateResult:
    """Homogeneous-pooling estimator: smooth (mean, Z*) pairs, invert the root.

    Requires sorted contiguous pooling with a constant group size.  Fit
    failures at single grid points are flagged, not fatal; opting into
    ``widen_on_failure`` retries them with doubled bandwidths (3 attempts).

    When every pool tests positive (Z* == 0 throughout), the smoothed
    mu is 0 and the result is p_hat == 1 with every failure and clamp flag
    0.  This is deliberate: the estimate is the data's honest answer, the
    CLI warns about it, and the simulations score such a replicate (the
    over-pooling experiment also counts it in ``n_all_positive``), so
    raising instead would move their ``n_failed`` counts.
    """
    if pooled.strategy != "homogeneous_sorted":
        raise EstimationError(
            "estimate_dh needs homogeneously sorted pools "
            f"(got strategy {pooled.strategy!r})"
        )
    nu = _equal_group_size(pooled)
    grid = np.asarray(grid, dtype=float)
    _check_grid_range(grid, *pooled.covariate_range())

    mu_raw, failures, h = _smooth(
        pooled.centers(), pooled.z_star(), spec, grid, widen_on_failure,
        nu=nu, n_raw=int(pooled.sizes().sum()),
    )
    mu_clamped, clamp_flags = _clamp_unit(mu_raw)
    p_hat = 1.0 - mu_clamped ** (1.0 / nu)
    return EstimateResult(grid, p_hat, mu_raw, clamp_flags, failures, h, "DH", nu)


def estimate_ll(
    raw: RawDataset, spec: SmootherSpec, grid, widen_on_failure: bool = False
) -> EstimateResult:
    """Oracle local polynomial regression of the individual responses on x.

    It fits the negatives 1 - y, as DH fits its pools' Z*, and reports
    p = 1 - mu: at nu = 1 the two curves are the same numbers.
    """
    if raw.responses is None:
        raise EstimationError("estimate_ll needs individual responses")
    if raw.dimension != 1:
        raise EstimationError("estimate_ll is univariate")
    grid = np.asarray(grid, dtype=float)
    _check_grid_range(grid, float(raw.covariates.min()), float(raw.covariates.max()))

    order = np.argsort(raw.covariates, kind="stable")
    mu, failures, h = _smooth(
        raw.covariates[order], 1.0 - raw.responses[order], spec, grid,
        widen_on_failure, n_raw=raw.n,
    )
    p_raw = 1.0 - mu
    p_hat, clamp_flags = _clamp_unit(p_raw)
    return EstimateResult(grid, p_hat, p_raw, clamp_flags, failures, h, "LL", 1)


def estimate_dm(
    pooled: PooledDataset, spec: SmootherSpec, grid, widen_on_failure: bool = False
) -> EstimateResult:
    """Random-pooling baseline: regress Y* on individual covariates, unmix by q.

    Valid only when groups were formed without regard to the covariates.
    g(x) = E(Y* | X=x) satisfies 1 - g = (1 - p) q^{nu-1} with
    q = E{1 - p(X)}, estimated by (mean Z*)^{1/nu}.  The smoother fits the
    members' Z* = 1 - Y*, whose curve is 1 - g; ``mu_hat`` reports g.
    """
    if pooled.dimension != 1:
        raise EstimationError("estimate_dm is univariate")
    if pooled.strategy not in ("random", "generic"):
        raise EstimationError(
            "estimate_dm needs randomly formed pools "
            f"(got strategy {pooled.strategy!r})"
        )
    nu = _equal_group_size(pooled)

    z_star = pooled.z_star()
    grid = np.asarray(grid, dtype=float)
    _check_grid_range(grid, *pooled.covariate_range())

    q_hat = float(np.mean(z_star)) ** (1.0 / nu)
    if q_hat == 0.0:
        raise EstimationError(
            "every pool tested positive (q_hat = 0); the baseline estimator "
            "is undefined; use a smaller group size nu"
        )

    order = np.argsort(pooled.member_covariates, kind="stable")
    mu, failures, h = _smooth(
        pooled.member_covariates[order], np.repeat(z_star, pooled.sizes())[order],
        spec, grid, widen_on_failure, n_raw=order.shape[0],
    )
    p_raw = 1.0 - mu / q_hat ** (nu - 1)
    p_hat, clamp_flags = _clamp_unit(p_raw)
    return EstimateResult(grid, p_hat, 1.0 - mu, clamp_flags, failures, h, "DM", nu)


def estimate_dh_binned(
    pooled: PooledDataset, spec: SmootherSpec, grid, widen_on_failure: bool = False
) -> EstimateResult:
    """Binned variant: d-variate local linear smoothing of the bin negatives.

    The inversion exponent at x is 1/m(x), the occupancy of the bin holding
    x; grid points in empty bins are reported missing rather than fitted.
    The fit is local linear only, so ``spec.degree`` must be 1.
    """
    if pooled.strategy != "binned" or pooled.bin_geometry is None:
        raise EstimationError("estimate_dh_binned needs binned pooling")
    _check_local_linear("estimate_dh_binned", spec)
    geom = pooled.bin_geometry
    d = pooled.dimension
    n_bins = pooled.n_groups
    if n_bins < 2 * (d + 1):
        raise EstimationError(
            f"need at least {2 * (d + 1)} nonempty bins, got {n_bins}"
        )

    grid = np.asarray(grid, dtype=float)
    grid_pts = grid[:, None] if (d == 1 and grid.ndim == 1) else grid
    if grid_pts.ndim != 2 or grid_pts.shape[1] != d:
        raise EstimationError(f"grid must be (M,) for d=1 or (M, {d})")
    _check_grid_range(grid_pts)  # finite points outside the region are empty bins

    m_at = geom.count_at(grid_pts)
    mu_raw, failures, h = _smooth(
        pooled.centers(), pooled.z_star(), spec,
        grid_pts[:, 0] if d == 1 else grid_pts, widen_on_failure,
        nu=max(int(round(pooled.nu)), 1), n_raw=int(geom.counts.sum()),
    )
    if (failures == FAIL_FIT).all() and failures.size:
        raise EstimationError(
            "degenerate bin design: no grid point admits a local linear fit "
            "(widen the bandwidth or coarsen the bins)"
        )
    failures[m_at == 0] = FAIL_EMPTY_BIN
    mu_raw = np.where(m_at == 0, np.nan, mu_raw)
    mu_clamped, clamp_flags = _clamp_unit(mu_raw)
    with np.errstate(invalid="ignore"):
        p_hat = 1.0 - mu_clamped ** (1.0 / np.maximum(m_at, 1))
    p_hat[failures != FAIL_NONE] = np.nan
    return EstimateResult(
        grid, p_hat, mu_raw, clamp_flags, failures, h, "DH_binned", float(pooled.nu)
    )


# ---------------------------------------------------------------------------
# asymptotic diagnostics


@dataclass(frozen=True)
class AsymptoticDiagnostics:
    """First-order error components of the pooled and baseline estimators.

    A is the standard-deviation scale and B the bias of the homogeneous
    estimator; A1/B1 are the random-pooling analogues with q = E{1-p(X)}.
    lambda_n**5 = (1 - p(x))**(-nu) measures the over-pooling information
    loss.  b_const and v are the kernel constants of a local linear fit.
    """

    x: np.ndarray
    A: np.ndarray
    B: np.ndarray
    A1: np.ndarray
    B1: np.ndarray
    q: float
    lambda_n: np.ndarray
    b_const: float
    v: np.ndarray


def _diagnostic_formulas(
    x, p, p1, p2, f, kern: Kernel, nu: int, n: int, h: float, q: float
) -> AsymptoticDiagnostics:
    if (f <= 0.0).any():
        raise EstimationError("design density is zero at a requested point")
    # a bandwidth far off the covariate's scale overflows h*h or 1/(n h):
    # refused below, by name, rather than written as inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_sq, big_b = _dh_first_order(p, p1, p2, f, kern, nu, n, h)
        big_a = np.sqrt(a_sq)
        one_m_p = 1.0 - p
        b = kern.second_moment
        v = kern.l2_norm / f
        a1_sq = one_m_p * q ** (1 - nu) * (1.0 - one_m_p * q ** (nu - 1)) * v / (n * h)
        big_a1 = np.sqrt(a1_sq)
        big_b1 = 0.5 * h * h * p2 * b
    bad = np.flatnonzero(~np.isfinite(np.stack([big_a, big_b, big_a1, big_b1])).all(0))
    if bad.size:
        raise EstimationError(
            f"the error formulas are not finite at h = {h:.6g} (first at x = "
            f"{x[bad[0]]:.6g}): take a bandwidth on the covariate's scale"
        )
    lam = one_m_p ** (-nu / 5.0)
    return AsymptoticDiagnostics(x, big_a, big_b, big_a1, big_b1, q, lam, b, v)


def asymptotic_diagnostics(
    model: PrevalenceModel,
    spec: SmootherSpec,
    nu: int,
    n: int,
    h: float,
    x,
) -> AsymptoticDiagnostics:
    """Evaluate the error formulas at x for a model with known p, p', p'', f.

    The formulas are those of a local linear fit, so ``spec.degree`` must be 1.
    """
    if nu < 1 or n < 1:
        raise EstimationError(f"diagnostics need nu >= 1 and N >= 1 (got {nu}, {n})")
    _check_local_linear("asymptotic_diagnostics", spec)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = np.asarray(model.p(x), dtype=float)
    p1 = np.asarray(model.p_prime(x), dtype=float)
    p2 = np.asarray(model.p_double_prime(x), dtype=float)
    f = np.asarray(model.f(x), dtype=float)
    q = model.mean_survival()
    return _diagnostic_formulas(x, p, p1, p2, f, spec.kernel, nu, n, h, q)


def data_mode_diagnostics(
    pooled: PooledDataset,
    spec: SmootherSpec,
    h: float,
    x,
) -> AsymptoticDiagnostics:
    """Diagnostics when the truth is unknown: pilot fits stand in for p and f.

    The prevalence curve and its derivatives come from a local quadratic on
    a pilot pooled fit; the covariate density from a normal-reference kernel
    density of the raw covariates.  As in ``asymptotic_diagnostics``,
    ``spec.degree`` must be 1.  Pools that all test positive leave q̂ = 0,
    where A1 is undefined, and are refused as ``estimate_dm`` refuses them.
    A point of x where the density estimate is below 1e-300 is refused, as
    ``asymptotic_diagnostics`` refuses a design density of zero, and so is a
    point where the pilot fit or its derivative fit fails.  The derivatives
    are fitted from the pilot's 128-point grid, at the points where the
    pilot fit did not fail.
    """
    if pooled.strategy != "homogeneous_sorted":
        raise EstimationError("data-mode diagnostics need homogeneous pools")
    nu = _equal_group_size(pooled)
    _check_local_linear("data_mode_diagnostics", spec)
    n = pooled.member_covariates.shape[0]
    x = np.atleast_1d(np.asarray(x, dtype=float))

    u = pooled.centers()
    z = pooled.z_star()
    q_hat = float(np.mean(z)) ** (1.0 / nu)
    if q_hat == 0.0:
        raise EstimationError(
            "every pool tested positive (q_hat = 0); the data-mode diagnostics "
            "are undefined; use a smaller group size nu"
        )
    res = _grid_fit_1d(u, z, 1, spec.kernel, 1.5 * h, x)

    lo, hi = float(u.min()), float(u.max())
    xg = np.linspace(lo, hi, 128)
    res_g = _grid_fit_1d(u, z, 1, spec.kernel, 1.5 * h, xg)
    h_der = max(1.5 * h, 4.0 * (hi - lo) / (xg.size - 1))
    der = _pilot_derivatives(xg, res_g["value"], nu, spec.kernel, h_der, x)[1]

    f_hat = _normal_reference_density(pooled.member_covariates, x, spec.kernel)
    under = np.flatnonzero(f_hat < 1e-300)
    if under.size:
        raise EstimationError(
            f"the design density estimate underflows (below 1e-300) at x = "
            f"{x[under[0]]:.6g}: keep the grid points near the data"
        )
    failed = np.flatnonzero(np.isnan(res["value"]) | np.isnan(der).any(axis=1))
    if failed.size:
        raise EstimationError(
            f"the pilot fit fails at x = {x[failed[0]]:.6g}: keep the grid points "
            "near the data or widen the bandwidth"
        )
    p_pilot = _pilot_prevalence(res["value"], nu)
    return _diagnostic_formulas(x, p_pilot, der[:, 1], der[:, 2], f_hat, spec.kernel,
                                nu, n, h, q_hat)
