"""Local polynomial smoothing with effective weights and bandwidth selection.

The engine fits, at each evaluation point x, a weighted least-squares
polynomial of degree ``l >= 1`` centered at x, with kernel weights
``K((u_j - x)/h)``.  The fitted curve value is the intercept, and it is a
linear combination of the responses: the normalized coefficients of that
combination are the *effective weights* of the fit.  Everything downstream
(prevalence estimators, cross-validation, plug-in bandwidths) is built on
this one routine.

All grid fits (univariate values and derivatives, and the d-variate local
linear fit) share one exact moment engine, ``_local_moments``.  It groups
the evaluation points into blocks of up to 64 nearby points and the design
into slabs of 2048 points, so that a block's kernel weights (1 MiB) stay in
a 2 MiB per-core L2 cache.  Per block it expands the basis about the block
midpoint and forms every weighted moment with one matrix product, then
shifts the moments exactly back to each evaluation point.  The dense
per-point implementation it replaced is kept in the tests as the oracle it
is checked against (``tests/dense_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import GAUSSIAN, Kernel

FLAG_OK = "ok"
FLAG_NEAR_SINGULAR = "near_singular"
FLAG_FAILED = "failed"

# Relative-pivot threshold below which a moment matrix counts as singular.
PIVOT_REL_TOL = 1e-12
# Above the hard threshold but below this, fits are flagged near_singular.
PIVOT_WARN_TOL = 1e-6

# Grid fits work on blocks of _EVAL_BLOCK evaluation points against slabs of
# _DESIGN_SLAB design points: a block's kernel weights, 64 x 2048 doubles
# (1 MiB), stay in a 2 MiB per-core L2 cache across the passes made over them.
_EVAL_BLOCK = 64
_DESIGN_SLAB = 2048

# Kernel density estimates hold about this many kernel values (8 MiB) at once.
_DENSITY_BLOCK = 1 << 20


class BandwidthError(ValueError):
    """Bandwidth selection failed or a rule is invalid."""


@dataclass(frozen=True)
class BandwidthRule:
    """How the bandwidth is chosen: fixed value, leave-one-out CV, or plug-in.

    ``candidates`` is the search grid for the data-driven modes; ``None``
    means a default geometric grid spanning the design is built at selection
    time.
    """

    mode: str
    h: float | None = None
    candidates: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "cross_validation", "plugin"):
            raise BandwidthError(f"unknown bandwidth mode {self.mode!r}")
        if self.mode == "fixed":
            if self.h is None or not self.h > 0:
                raise BandwidthError("fixed bandwidth must be a positive number")
        if self.candidates is not None:
            if len(self.candidates) == 0:
                raise BandwidthError("candidate grid must be nonempty")
            if any(not c > 0 for c in self.candidates):
                raise BandwidthError("candidate bandwidths must be positive")

    @classmethod
    def fixed(cls, h: float) -> "BandwidthRule":
        return cls("fixed", h=float(h))

    @classmethod
    def cv(cls, candidates=None) -> "BandwidthRule":
        cand = None if candidates is None else tuple(float(c) for c in candidates)
        return cls("cross_validation", candidates=cand)

    @classmethod
    def plugin(cls, candidates=None) -> "BandwidthRule":
        cand = None if candidates is None else tuple(float(c) for c in candidates)
        return cls("plugin", candidates=cand)


@dataclass(frozen=True)
class SmootherSpec:
    """Kernel, polynomial degree and bandwidth rule of a linear smoother."""

    kernel: Kernel = GAUSSIAN
    degree: int = 1
    bandwidth: BandwidthRule = field(default_factory=lambda: BandwidthRule.cv())

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(
                "degree must be >= 1 (the local constant fit is not supported)"
            )


@dataclass(frozen=True)
class LocalFit:
    """Result of one local polynomial fit.

    ``effective_weights`` are normalized (they sum to one when the fit is
    ok) and reproduce ``value`` as their dot product with the responses.
    ``local_count`` counts design points with nonzero kernel weight.
    """

    value: float | None
    effective_weights: np.ndarray | None
    local_count: int
    condition_flag: str


def _split_design(design) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(design, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("design must be a nonempty sequence of (u, z) pairs")
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def _solve_batched(S: np.ndarray, rhs: np.ndarray):
    """Solve S a = rhs for a batch of small symmetric systems.

    Gaussian elimination with partial pivoting, vectorized over the batch
    axis.  Returns (solutions, min_relative_pivot) where the relative pivot
    is measured against the largest entry of each initial matrix.
    """
    A = S.copy()
    B = rhs.copy()
    C, n, _ = A.shape
    scale = np.abs(S).max(axis=(1, 2))
    safe_scale = np.where(scale > 0.0, scale, 1.0)
    min_rel_pivot = np.where(scale > 0.0, np.inf, 0.0)

    rows = np.arange(C)
    for k in range(n):
        sub = np.abs(A[:, k:, k])
        piv_row = k + np.argmax(sub, axis=1)
        swap = piv_row != k
        if swap.any():
            idx = rows[swap]
            pr = piv_row[swap]
            A[idx, k, :], A[idx, pr, :] = A[idx, pr, :].copy(), A[idx, k, :].copy()
            B[idx, k, :], B[idx, pr, :] = B[idx, pr, :].copy(), B[idx, k, :].copy()
        piv = A[:, k, k]
        min_rel_pivot = np.minimum(min_rel_pivot, np.abs(piv) / safe_scale)
        piv_safe = np.where(piv != 0.0, piv, 1.0)
        if k + 1 < n:
            factor = A[:, k + 1 :, k] / piv_safe[:, None]
            A[:, k + 1 :, k:] -= factor[:, :, None] * A[:, None, k, k:]
            B[:, k + 1 :, :] -= factor[:, :, None] * B[:, None, k, :]

    X = np.zeros_like(B)
    for k in range(n - 1, -1, -1):
        piv = A[:, k, k]
        piv_safe = np.where(piv != 0.0, piv, 1.0)
        acc = B[:, k, :].copy()
        if k + 1 < n:
            acc -= np.einsum("cj,cjm->cm", A[:, k, k + 1 :], X[:, k + 1 :, :])
        # a tiny pivot overflows; min_rel_pivot already marks that fit failed
        with np.errstate(over="ignore"):
            X[:, k, :] = acc / piv_safe[:, None]
    return X, min_rel_pivot


def _eval_blocks(x_eval: np.ndarray, width: float) -> list[np.ndarray]:
    """Split the evaluation points into blocks of nearby points.

    A block holds at most ``_EVAL_BLOCK`` points, all inside one cell of side
    ``width`` per coordinate, so each lies within ``width / 2`` of the
    midpoint of the block's bounding box.
    """
    cell = np.floor((x_eval - x_eval.min(axis=0)) / width)
    order = np.lexsort(cell.T[::-1])
    cell = cell[order]
    starts = np.flatnonzero(np.r_[True, (cell[1:] != cell[:-1]).any(axis=1)])
    rank = np.arange(order.size) - np.repeat(starts, np.diff(np.r_[starts, order.size]))
    return np.split(order, np.flatnonzero(rank % _EVAL_BLOCK == 0)[1:])


def _basis(s: np.ndarray, n: int) -> np.ndarray:
    """phi(s): the powers 1, s, .., s^(n-1) of a univariate s, else (1, s_1, .., s_d)."""
    if s.shape[1] == 1:
        return np.vander(s[:, 0], n, increasing=True)
    return np.column_stack([np.ones(s.shape[0]), s])


def _shift_matrix(delta: np.ndarray, n: int) -> np.ndarray:
    """A(delta) with phi(s - delta) = A(delta) phi(s), one matrix per row of delta.

    Binomial for the univariate powers; ``[[1, 0], [-delta, I]]`` for the
    d-variate linear basis (the two agree for d = 1, degree 1).
    """
    C, d = delta.shape
    A = np.zeros((C, n, n))
    if d == 1:
        pw = np.vander(-delta[:, 0], n, increasing=True)
        for k in range(n):
            for j in range(k + 1):
                A[:, k, j] = math.comb(k, j) * pw[:, k - j]
    else:
        A[:, 0, 0] = 1.0
        A[:, 1:, 0] = -delta
        A[:, np.arange(1, n), np.arange(1, n)] = 1.0
    return A


def _local_moments(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
):
    """Weighted moments of the local fit at every evaluation point.

    ``u`` is (J, d) and ``x_eval`` (M, d).  With ``t = (u - x)/h``, weights
    ``w = kern.pdf(t)`` for d = 1 and ``kern.radial_profile(|t|^2)`` for
    d >= 2, and the basis phi(t) = (1, t, .., t^degree) for d = 1 or
    (1, t_1, .., t_d) (local linear) for d >= 2, returns
    ``S = sum_j w_j phi(t_j) phi(t_j)^T`` (M, n, n),
    ``r = sum_j w_j z_j phi(t_j)`` (M, n) and the number of design points
    with nonzero weight (M,).

    Work runs block by block (see ``_eval_blocks``) over slabs of
    ``_DESIGN_SLAB`` design points.  Within a block the basis is expanded about
    the block midpoint x0, ``s = (u - x0)/h``, so one matrix product ``W @ P``,
    with P the basis products of s and z, sums every moment of the block.  The
    exact shift ``phi(s - delta) = A(delta) phi(s)``, ``delta = (x - x0)/h``,
    then gives ``S = A S_s A^T`` and ``r = A r_s``.  Kernel arguments are
    formed as ``(u - x)/h``, as a dense fit forms them, so counts and compact
    supports do not depend on the blocking.
    """
    J, d = u.shape
    M = x_eval.shape[0]
    n = degree + 1 if d == 1 else d + 1
    iu, ju = np.triu_indices(n)
    n_pairs = iu.size
    S = np.zeros((M, n, n))
    r = np.zeros((M, n))
    count = np.zeros(M, dtype=np.int64)
    if M == 0:
        return S, r, count

    # one set of buffers per call: a fresh 1 MiB temporary per block and slab
    # costs more in page faults than the arithmetic done on it
    shape = (min(M, _EVAL_BLOCK), min(J, _DESIGN_SLAB))
    w_buf = np.empty(shape)
    t_buf = np.empty(shape) if d > 1 else None
    pos_buf = np.empty(shape, dtype=bool)
    # Re-centring cancels terms as large as (|t| + 2|delta|)^(2 degree) down
    # to moments of size |t|^(2 degree).  Blocks 2h/degree wide keep
    # |delta| <= 1/degree, so that loss stays below (1 + 2/degree)^(2 degree),
    # under e^4 ~ 55 units in the last place whatever the degree.
    for idx in _eval_blocks(x_eval, 2.0 * h / degree):
        x = x_eval[idx]
        x0 = 0.5 * (x.min(axis=0) + x.max(axis=0))
        G = np.zeros((idx.size, n_pairs + n))
        cnt = np.zeros(idx.size, dtype=np.int64)
        for lo in range(0, J, _DESIGN_SLAB):
            us = u[lo : lo + _DESIGN_SLAB]
            w = w_buf[: idx.size, : us.shape[0]]
            np.subtract(us[None, :, 0], x[:, None, 0], out=w)
            w /= h
            if d == 1:
                kern.pdf(w, out=w)
            else:
                np.multiply(w, w, out=w)
                t = t_buf[: idx.size, : us.shape[0]]
                for k in range(1, d):
                    np.subtract(us[None, :, k], x[:, None, k], out=t)
                    t /= h
                    w += np.multiply(t, t, out=t)
                kern.radial_profile(w, out=w)
            cnt += np.greater(w, 0.0, out=pos_buf[: idx.size, : us.shape[0]]).sum(axis=1)
            phi = _basis((us - x0) / h, n)
            zs = z[lo : lo + _DESIGN_SLAB, None]
            G += w @ np.hstack([phi[:, iu] * phi[:, ju], zs * phi])
        S_s = np.empty((idx.size, n, n))
        S_s[:, iu, ju] = G[:, :n_pairs]
        S_s[:, ju, iu] = G[:, :n_pairs]
        A = _shift_matrix((x - x0) / h, n)
        S[idx] = A @ S_s @ A.transpose(0, 2, 1)
        r[idx] = (A @ G[:, n_pairs:, None])[:, :, 0]
        count[idx] = cnt
    return S, r, count


def _intercept_fit(S: np.ndarray, r: np.ndarray, count: np.ndarray):
    """Solve S a = e1 at every point: (a, value, flag).

    ``value = a . r`` is NaN where the fit fails; flag codes are 0=ok,
    1=near_singular, 2=failed (fewer than n weighted points, or a relative
    pivot below ``PIVOT_REL_TOL``).
    """
    M, n, _ = S.shape
    e1 = np.zeros((M, n, 1))
    e1[:, 0, 0] = 1.0
    a, rel_piv = _solve_batched(S, e1)
    a = a[:, :, 0]
    ok = (count >= n) & (rel_piv >= PIVOT_REL_TOL)
    near = ok & (rel_piv < PIVOT_WARN_TOL)
    value = np.where(ok, np.einsum("ck,ck->c", a, r), np.nan)
    flag = np.where(ok, np.where(near, 1, 0), 2).astype(np.int8)
    return a, value, flag


def _grid_fit_1d(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
    *,
    want_self_weight: bool = False,
):
    """Vectorized local polynomial fit of (u, z) at every point of x_eval.

    Returns a dict with ``value`` (NaN where failed), ``flag`` (int codes
    0=ok, 1=near_singular, 2=failed), ``count``, ``alpha`` (solution of
    S a = e1 in the scaled basis, for effective-weight reconstruction) and,
    on request, the leave-one-out self weight ``self_w`` (valid when the
    evaluation points are design points).
    """
    u = np.asarray(u, dtype=float)
    x_eval = np.asarray(x_eval, dtype=float)
    S, r, count = _local_moments(
        u[:, None], np.asarray(z, dtype=float), degree, kern, h, x_eval[:, None]
    )
    a, value, flag = _intercept_fit(S, r, count)
    out = {"value": value, "flag": flag, "count": count, "alpha": a}
    if want_self_weight:
        out["self_w"] = kern.at_zero * a[:, 0]
    return out


WIDEN_FACTOR = 2.0
WIDEN_ATTEMPTS = 3


def local_poly_fit(
    design,
    spec: SmootherSpec,
    x: float,
    h: float | None = None,
    widen_on_failure: bool = False,
) -> LocalFit:
    """Fit a degree-``spec.degree`` local polynomial to the design at x.

    The bandwidth must already be a number: either pass ``h`` or use a spec
    whose rule is fixed.  On failure (fewer than degree+1 usable points, or
    a moment matrix with relative pivot below ``PIVOT_REL_TOL``) the
    returned fit carries ``condition_flag="failed"`` and no value; with
    ``widen_on_failure`` the bandwidth is doubled up to three times first.
    """
    u, z = _split_design(design)
    if h is None:
        if spec.bandwidth.mode != "fixed":
            raise BandwidthError(
                "bandwidth not resolved: pass h or use a fixed bandwidth rule"
            )
        h = spec.bandwidth.h
    if not h > 0:
        raise BandwidthError("bandwidth must be positive")

    res = grid_fit_with_widening(
        u, z, spec.degree, spec.kernel, float(h), np.atleast_1d(float(x)),
        widen_on_failure,
    )
    flag = (FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_FAILED)[int(res["flag"][0])]
    count = int(res["count"][0])
    if flag == FLAG_FAILED:
        return LocalFit(None, None, count, flag)

    t = (u - float(x)) / res["h"][0]
    eff = spec.kernel.pdf(t) * np.polyval(res["alpha"][0][::-1], t)
    eff = eff / eff.sum()
    return LocalFit(float(res["value"][0]), eff, count, flag)


def grid_fit_with_widening(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
    widen_on_failure: bool = False,
):
    """Grid fit that optionally rescues failed points with doubled bandwidths.

    A (J,) design runs the univariate fit of the given degree; a (J, d)
    design with (M, d) evaluation points runs the d-variate local linear fit.
    A rescued point takes every entry of its retry; ``h`` holds the
    bandwidth each point was last fitted at.
    """
    def fit(h_fit, x):
        if np.ndim(u) == 1:
            return _grid_fit_1d(u, z, degree, kern, h_fit, x)
        return grid_fit_local_linear_multi(u, z, kern, h_fit, x)

    res = fit(h, x_eval)
    res["h"] = np.full(res["flag"].shape[0], float(h))
    if not widen_on_failure:
        return res
    h_wide = float(h)
    for _ in range(WIDEN_ATTEMPTS):
        bad = np.flatnonzero(res["flag"] == 2)
        if bad.size == 0:
            break
        h_wide *= WIDEN_FACTOR
        for key, val in fit(h_wide, x_eval[bad]).items():
            res[key][bad] = val
        res["h"][bad] = h_wide
    return res


def effective_weight_moments(fit: LocalFit, design, x: float, k: int) -> float:
    """Return sum_j w~_j(x) (u_j - x)^k for the fit's normalized weights."""
    if fit.condition_flag == FLAG_FAILED or fit.effective_weights is None:
        raise ValueError("effective weights unavailable: fit failed")
    u, _ = _split_design(design)
    return float(np.sum(fit.effective_weights * (u - float(x)) ** k))


def local_poly_derivatives(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
) -> np.ndarray:
    """Estimated derivatives f^(k)(x), k = 0..degree, at each x (NaN if failed).

    The fit solves in the scaled basis t = (u-x)/h, so the coefficient for
    t^k is beta_k = f^(k) h^k / k!.
    """
    u = np.asarray(u, dtype=float)
    x_eval = np.asarray(x_eval, dtype=float)
    S, r, count = _local_moments(
        u[:, None], np.asarray(z, dtype=float), degree, kern, h, x_eval[:, None]
    )
    beta, rel_piv = _solve_batched(S, r[:, :, None])
    ok = (count >= degree + 1) & (rel_piv >= PIVOT_REL_TOL)
    fact = np.array([math.factorial(k) / h**k for k in range(degree + 1)])
    return np.where(ok[:, None], beta[:, :, 0] * fact[None, :], np.nan)


# ---------------------------------------------------------------------------
# bandwidth selection


def default_candidates(u: np.ndarray, degree: int, n: int = 16) -> np.ndarray:
    """Geometric bandwidth grid spanning the design: [span/50 .. span/3]."""
    span = float(np.ptp(u))
    if span <= 0.0:
        raise BandwidthError("design points are all identical")
    J = u.shape[0]
    lo = span * max((degree + 2) / max(J, 1), 0.02)
    hi = span / 3.0
    if lo >= hi:
        lo = hi / 10.0
    return np.geomspace(lo, hi, n)


def _min_usable_h(u: np.ndarray, degree: int, kern: Kernel) -> float:
    """Smallest h whose window around every design point holds degree+1 points."""
    su = np.sort(u)
    k = degree  # need degree+1 points including the center
    if su.shape[0] <= k:
        return math.inf
    gaps = su[k:] - su[:-k] if k > 0 else np.zeros(1)
    radius = kern.support_radius if math.isfinite(kern.support_radius) else 2.0
    return float(gaps.max() / radius) if gaps.size else 0.0


def _cv_eval_indices(u: np.ndarray, z: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic quantile-strided subset of design indices for LOO scoring.

    Scoring is restricted to the central 90% of the design (the region the
    curve is estimated on); boundary points have high-leverage residuals
    that only add noise to the score.  Points are ordered by (u, z), so the
    subset holds the same (u, z) pairs whatever the order of tied rows.
    """
    J = u.shape[0]
    order = np.lexsort((z, u))
    lo = int(np.floor(0.05 * J))
    hi = max(lo + 2, int(np.ceil(0.95 * J)))
    inner = order[lo:hi]
    if inner.shape[0] <= cap:
        return inner
    picks = np.unique(
        np.round(np.linspace(0, inner.shape[0] - 1, cap)).astype(int)
    )
    return inner[picks]


def _loo_score(res: dict, z_at: np.ndarray) -> float:
    """Mean squared leave-one-out error of a self-weighted fit at design points.

    Uses the weighted-least-squares deletion identity
    ``z_hat_{-j} = (z_hat_j - l_j z_j) / (1 - l_j)`` with the leverage
    ``l_j = res["self_w"]``, exact because the weights do not depend on z.
    Returns inf when any fit fails or has leverage near one (candidate
    unusable).
    """
    if (res["flag"] == 2).any():
        return math.inf
    lev = res["self_w"]
    denom = 1.0 - lev
    if (denom <= 1e-10).any():
        return math.inf
    loo = (res["value"] - lev * z_at) / denom
    return float(np.mean((z_at - loo) ** 2))


def _cv_choice(cands: np.ndarray, scores: np.ndarray, z: np.ndarray) -> float:
    """The candidate with the least CV score; near-ties go to the smallest h.

    Scores within ``1e-12 * max(best, mean z^2, 1e-300)`` of the best are
    floating-point noise, so they count as ties.  ``cands`` is ascending.
    """
    finite = np.isfinite(scores)
    if not finite.any():
        raise BandwidthError("every candidate bandwidth failed to fit")
    best = scores[finite].min()
    tol = 1e-12 * max(best, float(np.mean(z * z)), 1e-300)
    return float(cands[int(np.argmax(scores <= best + tol))])


def loo_cv_score(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    eval_idx: np.ndarray,
) -> float:
    """Exact leave-one-out squared prediction error at the given design points.

    The leverage of design point j is ``l_j = K(0) a_0(u_j)``; see
    ``_loo_score``.  Returns inf when any evaluation fit fails (candidate
    unusable).
    """
    res = _grid_fit_1d(u, z, degree, kern, h, u[eval_idx], want_self_weight=True)
    return _loo_score(res, z[eval_idx])


def select_bandwidth(
    design,
    spec: SmootherSpec,
    *,
    nu: int = 1,
    n_raw: int | None = None,
) -> float:
    """Choose a bandwidth for the design following the smoother's rule.

    cross_validation minimizes the exact leave-one-out squared prediction
    error over the candidate grid (ties go to the smallest h).  plugin runs
    CV first, smooths a pilot curve at 1.5x that value, estimates the
    prevalence curve's first two derivatives and the design density, and
    minimizes the integrated asymptotic (variance + bias^2) risk of the
    pooled estimator over the same grid; ``nu`` and ``n_raw`` supply the
    pooling context (group size and raw sample size).
    """
    rule = spec.bandwidth
    if rule.mode == "fixed":
        raise BandwidthError("select_bandwidth requires a data-driven rule")
    u, z = _split_design(design)
    J = u.shape[0]
    if J < 2 * (spec.degree + 1):
        raise BandwidthError(
            f"need at least {2 * (spec.degree + 1)} design points, got {J}"
        )

    if rule.candidates is not None:
        cands = np.sort(np.asarray(rule.candidates, dtype=float))
    else:
        cands = default_candidates(u, spec.degree)

    # the plug-in only needs the CV value as a pilot scale, so it can afford
    # a cheaper scoring subset than the pure-CV mode
    eval_idx = _cv_eval_indices(u, z, 800 if rule.mode == "cross_validation" else 300)
    scores = np.array(
        [loo_cv_score(u, z, spec.degree, spec.kernel, h, eval_idx) for h in cands]
    )
    try:
        h_cv = _cv_choice(cands, scores, z)
    except BandwidthError as exc:
        raise BandwidthError(
            f"{exc}; smallest usable h is about "
            f"{_min_usable_h(u, spec.degree, spec.kernel):.6g}"
        ) from None

    if rule.mode == "cross_validation":
        return h_cv

    # a CV value at the bottom of the grid signals a collapsed (noise-driven)
    # selection; the pilot derived from it cannot be trusted for derivatives
    collapsed = cands.shape[0] > 1 and h_cv <= cands[1]
    return _plugin_bandwidth(u, z, spec, cands, h_cv, nu, n_raw, collapsed)


def _plugin_bandwidth(u, z, spec, cands, h_cv, nu, n_raw, collapsed=False):
    """Minimize the first-order risk, integrated over the design's central 90%."""
    kern = spec.kernel
    n_raw = int(n_raw) if n_raw is not None else u.shape[0] * nu
    a, b = float(np.quantile(u, 0.05)), float(np.quantile(u, 0.95))
    xg = np.linspace(a, b, 128)

    h_pilot = 1.5 * h_cv
    pilot = _grid_fit_1d(u, z, spec.degree, kern, h_pilot, xg)
    p_pilot = _pilot_prevalence(pilot["value"], nu)

    # Derivatives of the pilot curve by a local quadratic on the pilot grid.
    # When the CV pilot collapsed, widen the quadratic's window to a fifth of
    # the interval so the rough pilot cannot inject spurious curvature.
    h_der = max(h_pilot, 4.0 * (b - a) / (xg.size - 1))
    if collapsed:
        h_der = max(h_der, 0.2 * (b - a))
    der = local_poly_derivatives(xg, p_pilot, 2, kern, h_der, xg)
    p1 = np.nan_to_num(der[:, 1])
    p2 = np.nan_to_num(der[:, 2])

    f_hat = np.maximum(_normal_reference_density(u, xg, kern), 1e-12)

    risks = np.empty(cands.shape[0])
    for i, h in enumerate(cands):
        a_sq, bias = _dh_first_order(p_pilot, p1, p2, f_hat, kern, nu, n_raw, h)
        risks[i] = np.trapezoid(a_sq + bias**2, xg)
    return float(cands[int(np.argmin(risks))])


def _dh_first_order(p, p1, p2, f, kern: Kernel, nu, n, h):
    """First-order variance A**2 and bias B of the DH estimate at each point.

    p, p1 and p2 are the prevalence curve and its first two derivatives, f
    the design density, n the number of individuals and nu the group size.
    """
    one_m_p = 1.0 - p
    v = kern.l2_norm / f
    a_sq = (one_m_p ** (2 - nu)) * (1.0 - one_m_p**nu) * v / (nu * n * h)
    bias = 0.5 * h * h * (p2 - (nu - 1) * p1**2 / one_m_p) * kern.second_moment
    return a_sq, bias


def _pilot_prevalence(mu_raw: np.ndarray, nu) -> np.ndarray:
    """Invert a pilot fit of mu = (1-p)^nu; failed points give p = 0, and p < 1."""
    mu = np.clip(np.nan_to_num(mu_raw, nan=1.0), 0.0, 1.0)
    return np.clip(1.0 - mu ** (1.0 / nu), 0.0, 1.0 - 1e-6)


def _normal_reference_density(sample: np.ndarray, x: np.ndarray, kern: Kernel):
    """Normal-reference kernel density estimate of a 1-d sample at x.

    The kernel matrix is formed ``_DENSITY_BLOCK`` values (whole rows) at a
    time; row means are as in the dense matrix.
    """
    sd = float(np.std(sample))
    iqr = float(np.quantile(sample, 0.75) - np.quantile(sample, 0.25))
    width = min(sd, iqr / 1.34) if iqr > 0 else sd
    bw = max(0.9 * width * sample.shape[0] ** (-0.2), 1e-12)
    step = max(1, _DENSITY_BLOCK // sample.shape[0])
    f = np.empty(x.shape[0])
    for i in range(0, x.shape[0], step):
        t = x[i : i + step, None] - sample[None, :]
        t /= bw
        f[i : i + step] = kern.pdf(t, out=t).mean(axis=1) / bw
    return f


def resolve_bandwidth(design, spec: SmootherSpec, **ctx) -> float:
    """Turn the smoother's bandwidth rule into a number for this design."""
    if spec.bandwidth.mode == "fixed":
        return float(spec.bandwidth.h)
    return select_bandwidth(design, spec, **ctx)


# ---------------------------------------------------------------------------
# d-variate local linear smoother (for the binned estimator)


def grid_fit_local_linear_multi(
    centers: np.ndarray,
    z: np.ndarray,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
    *,
    want_self_weight: bool = False,
):
    """Local linear fit with d covariates, vectorized over evaluation points.

    ``centers`` is (J, d), ``x_eval`` is (M, d).  Weights use the kernel's
    spherically symmetric radial profile.  Returns the same dict layout as
    the univariate grid fit.
    """
    S, r, count = _local_moments(
        np.asarray(centers, dtype=float), np.asarray(z, dtype=float), 1, kern, h,
        np.asarray(x_eval, dtype=float),
    )
    a, value, flag = _intercept_fit(S, r, count)
    out = {"value": value, "flag": flag, "count": count}
    if want_self_weight:
        # radial_profile(0) == 1 for every family
        out["self_w"] = a[:, 0]
    return out


def select_bandwidth_multi(
    centers: np.ndarray,
    z: np.ndarray,
    kern: Kernel,
    rule: BandwidthRule,
) -> float:
    """Leave-one-out CV bandwidth for the d-variate local linear smoother."""
    if rule.mode == "fixed":
        return float(rule.h)
    if rule.mode == "plugin":
        raise BandwidthError("plugin bandwidths are univariate; use cv or fixed")
    centers = np.asarray(centers, dtype=float)
    J, d = centers.shape
    if rule.candidates is not None:
        cands = np.sort(np.asarray(rule.candidates, dtype=float))
    else:
        span = float(np.ptp(centers, axis=0).max())
        if span <= 0.0:
            raise BandwidthError("design points are all identical")
        lo = span * max((d + 2) / max(J, 1), 0.01)
        cands = np.geomspace(min(lo, span / 4.0), span / 2.0, 16)

    if J > 400:  # score at most 400 centers per candidate
        picks = np.unique(np.round(np.linspace(0, J - 1, 400)).astype(int))
    else:
        picks = np.arange(J)

    scores = np.array([
        _loo_score(
            grid_fit_local_linear_multi(
                centers, z, kern, float(h), centers[picks], want_self_weight=True
            ),
            z[picks],
        )
        for h in cands
    ])
    return _cv_choice(cands, scores, z)
