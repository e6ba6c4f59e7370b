"""Local polynomial smoothing with effective weights and bandwidth selection.

The engine fits, at each evaluation point x, a weighted least-squares
polynomial of degree ``l >= 1`` centered at x, with kernel weights
``K((u_j - x)/h)``.  The fitted curve value is the intercept, and it is a
linear combination of the responses: the normalized coefficients of that
combination are the *effective weights* of the fit.  Everything downstream
(prevalence estimators, cross-validation, plug-in bandwidths) is built on
this one routine.

Grid fits (univariate values and derivatives, and the d-variate local
linear fit) share one exact moment engine, ``_local_moments``.  It groups
the evaluation points into blocks of up to 64 nearby points and the design
into slabs of 2048 points, so that a block's kernel weights (1 MiB) stay in
a 2 MiB per-core L2 cache.  Per block it expands the basis about the block
midpoint and forms every weighted moment with one matrix product; one exact
shift per call then moves the moments back to each evaluation point.  It
makes as few passes over the weights as that arithmetic allows: the basis
products go into one reused buffer, and where the gaussian weights of a
block and a slab are provably all positive, no pass counts them.  The dense
per-point implementation it replaced is kept in the tests as the oracle it
is checked against (``tests/dense_oracle.py``), and the engine as it formed
its weights before those savings as the oracle its moments must equal bit
for bit (``tests/blocked_oracle.py``).  A d-variate fit at nodes
of the lattice of the design's distinct values per axis, such as the bin
centres of the binned estimator, forms its moments on that lattice instead
where that is cheaper (``_grid_fit_multi``), failing where the engine fails.
Every grid fit reports a failed point one way: its value is NaN.

Leave-one-out CV scores every bandwidth candidate on a linear-binned copy of
the design first (Fan & Marron 1994): FFT convolutions give all candidates'
binned scores for about the cost of one exact score.  A bound on the binning
error (Hall & Wand 1996) then rules candidates out, and every candidate it
cannot rule out is scored exactly by ``loo_cv_score``, so the choice is the
exhaustive search's (see ``select_bandwidth``); ``_screen_scores`` turns the
binned moments into each candidate's score and error bound.  The d-variate
search needs no screen: it scores every candidate with the d-variate fit,
whose moments on the lattice are exact to rounding, as the gaussian weights
factor over the axes there (Wand 1994; see ``select_bandwidth_multi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import GAUSSIAN, Kernel

FLAG_OK = "ok"
FLAG_FAILED = "failed"

# Relative-pivot threshold below which a moment matrix counts as singular.
PIVOT_REL_TOL = 1e-12

# Grid fits work on blocks of _EVAL_BLOCK evaluation points against slabs of
# _DESIGN_SLAB design points: a block's kernel weights, 64 x 2048 doubles
# (1 MiB), stay in a 2 MiB per-core L2 cache across the passes made over them.
_EVAL_BLOCK = 64
_DESIGN_SLAB = 2048
# A computed gaussian weight is positive wherever |t|^2 <= 36^2, for the
# density and for the radial profile: exp(-648) ~ 1e-282 is a normal double.
# The last positive weights lie at |t| = 38.58 (density) and |t|^2 = 1490
# (profile), beyond anything rounding can carry a bound of 36 to.
_GAUSS_POSITIVE_R2 = 36.0**2

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
            if self.h is None or not 0 < self.h < math.inf:
                raise BandwidthError("fixed bandwidth must be a finite positive number")
        if self.candidates is not None:
            if len(self.candidates) == 0:
                raise BandwidthError("candidate grid must be nonempty")
            if any(not 0 < c < math.inf for c in self.candidates):
                raise BandwidthError("candidate bandwidths must be finite and positive")

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

    ``condition_flag`` is "ok" or "failed"; a failed fit has no ``value``
    and no ``effective_weights``.  ``effective_weights`` are normalized (they
    sum to one) and reproduce ``value`` as their dot product with the
    responses.  ``local_count`` counts design points with nonzero kernel
    weight.
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
    with P the basis products of s and z, sums every moment of the block.  P
    is written column by column into one buffer per call, C-ordered: BLAS
    rounds the product differently for another layout.  The exact shift ``phi(s - delta) = A(delta) phi(s)``,
    ``delta = (x - x0)/h``, then gives ``S = A S_s A^T`` and ``r = A r_s``,
    applied once per call to every point.  Kernel arguments are formed as
    ``(u - x)/h``, as a dense fit forms them, so counts and compact supports
    do not depend on the blocking; each is the slab's row of u with the
    block's column of x subtracted in place.  The count takes a pass over the
    weights only where it is in doubt: a gaussian weight is positive
    wherever ``|t|^2 <= _GAUSS_POSITIVE_R2``, and the coordinate extremes of
    a block and a slab bound every ``|t|`` between them.
    """
    J, d = u.shape
    M = x_eval.shape[0]
    n = degree + 1 if d == 1 else d + 1
    iu, ju = np.triu_indices(n)
    n_pairs = iu.size
    count = np.zeros(M, dtype=np.int64)
    if M == 0:
        return np.zeros((M, n, n)), np.zeros((M, n)), count
    G = np.empty((M, n_pairs + n))
    mid = np.empty((M, d))

    slabs = range(0, J, _DESIGN_SLAB)
    # per slab, the coordinate extremes: with a block's, they bound its |t|
    u_lo = np.array([u[lo : lo + _DESIGN_SLAB].min(axis=0) for lo in slabs]).reshape(-1, d)
    u_hi = np.array([u[lo : lo + _DESIGN_SLAB].max(axis=0) for lo in slabs]).reshape(-1, d)
    u_rows = np.ascontiguousarray(u.T)
    # one set of buffers per call: a fresh 1 MiB temporary per block and slab
    # costs more in page faults than the arithmetic done on it
    shape = (min(M, _EVAL_BLOCK), min(J, _DESIGN_SLAB))
    w_buf = np.empty(shape)
    t_buf = np.empty(shape) if d > 1 else None
    pos_buf = np.empty(shape, dtype=bool)
    # [phi_i phi_j for i <= j, z phi]: the pairs (0, j) come first, and
    # phi_0 = 1, so the first n columns are phi itself
    P_buf = np.empty((shape[1], n_pairs + n))
    P_buf[:, 0] = 1.0
    # Re-centring cancels terms as large as (|t| + 2|delta|)^(2 degree) down
    # to moments of size |t|^(2 degree).  Blocks 2h/degree wide keep
    # |delta| <= 1/degree, so that loss stays below (1 + 2/degree)^(2 degree),
    # under e^4 ~ 55 units in the last place whatever the degree.
    # A (u - x)/h that overflows gives a weight of 0 and moments of inf or NaN,
    # so its fit fails on the pivot: numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in _eval_blocks(x_eval, 2.0 * h / degree):
            x = x_eval[idx]
            x_lo, x_hi = x.min(axis=0), x.max(axis=0)
            x0 = 0.5 * (x_lo + x_hi)
            mid[idx] = x0
            # a NaN or infinite bound settles nothing
            settled = (kern.family == "gaussian") & (
                np.square(np.maximum(u_hi - x_lo, x_hi - u_lo) / h).sum(axis=1)
                <= _GAUSS_POSITIVE_R2)
            Gb = np.zeros((idx.size, n_pairs + n))
            cnt = np.zeros(idx.size, dtype=np.int64)
            for s, lo in enumerate(slabs):
                hi = min(lo + _DESIGN_SLAB, J)
                w = w_buf[: idx.size, : hi - lo]
                np.copyto(w, u_rows[0, lo:hi])
                w -= x[:, :1]
                w /= h
                if d == 1:
                    kern.pdf(w, out=w)
                else:
                    np.square(w, out=w)
                    t = t_buf[: idx.size, : hi - lo]
                    for k in range(1, d):
                        np.copyto(t, u_rows[k, lo:hi])
                        t -= x[:, k : k + 1]
                        t /= h
                        w += np.square(t, out=t)
                    kern.radial_profile(w, out=w)
                if settled[s]:
                    cnt += hi - lo
                else:
                    cnt += np.greater(w, 0.0, out=pos_buf[: idx.size, : hi - lo]).sum(axis=1)
                # column by column: numpy loops a broadcast over the short
                # axis of P innermost, several times slower
                P = P_buf[: hi - lo]
                for k in range(d):
                    np.subtract(u_rows[k, lo:hi], x0[k], out=P[:, k + 1])
                    P[:, k + 1] /= h
                for k in range(d + 1, n):  # the powers s^k, d = 1
                    np.multiply(P[:, k - 1], P[:, 1], out=P[:, k])
                for p in range(n, n_pairs):
                    np.multiply(P[:, iu[p]], P[:, ju[p]], out=P[:, p])
                for k in range(n):
                    np.multiply(z[lo:hi], P[:, k], out=P[:, n_pairs + k])
                Gb += w @ P
            G[idx] = Gb
            count[idx] = cnt
        S_s = np.empty((M, n, n))
        S_s[:, iu, ju] = G[:, :n_pairs]
        S_s[:, ju, iu] = G[:, :n_pairs]
        A = _shift_matrix((x_eval - mid) / h, n)
        S = A @ S_s @ A.transpose(0, 2, 1)
        r = (A @ G[:, n_pairs:, None])[:, :, 0]
    return S, r, count


def _intercept_fit(S: np.ndarray, r: np.ndarray, count: np.ndarray):
    """Solve S a = e1 at every point: (a, value, relative pivot).

    ``value = a . r`` is NaN exactly where the fit fails: fewer than n
    weighted points, a relative pivot below ``PIVOT_REL_TOL``, or a value
    that is not finite (weights near the smallest normal double can pass the
    pivot test and still overflow the solve).
    """
    M, n, _ = S.shape
    e1 = np.zeros((M, n, 1))
    e1[:, 0, 0] = 1.0
    a, rel_piv = _solve_batched(S, e1)
    a = a[:, :, 0]
    value = np.einsum("ck,ck->c", a, r)
    ok = (count >= n) & (rel_piv >= PIVOT_REL_TOL) & np.isfinite(value)
    return a, np.where(ok, value, np.nan), rel_piv


def _grid_fit_1d(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
):
    """Vectorized local polynomial fit of (u, z) at every point of x_eval.

    Returns a dict with ``value`` (NaN exactly where the fit failed),
    ``count``, ``alpha`` (solution of S a = e1 in the scaled basis, for
    effective-weight reconstruction) and the leave-one-out self weight
    ``self_w = K(0) a_0`` (the leverage, when the evaluation points are
    design points).
    """
    u = np.asarray(u, dtype=float)
    x_eval = np.asarray(x_eval, dtype=float)
    S, r, count = _local_moments(
        u[:, None], np.asarray(z, dtype=float), degree, kern, h, x_eval[:, None]
    )
    a, value, _ = _intercept_fit(S, r, count)
    return {"value": value, "count": count, "alpha": a,
            "self_w": kern.at_zero * a[:, 0]}


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
    whose rule is fixed.  The returned fit's ``condition_flag`` is "ok", or
    "failed" where the grid fit's value is NaN (fewer than degree+1 usable
    points, a moment matrix with relative pivot below ``PIVOT_REL_TOL``, or
    a value that is not finite); a failed fit carries no value.  With
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
    count = int(res["count"][0])
    if np.isnan(res["value"][0]):
        return LocalFit(None, None, count, FLAG_FAILED)

    t = (u - float(x)) / res["h"][0]
    eff = spec.kernel.pdf(t) * np.polyval(res["alpha"][0][::-1], t)
    eff = eff / eff.sum()
    return LocalFit(float(res["value"][0]), eff, count, FLAG_OK)


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
    design with (M, d) evaluation points runs the d-variate local linear fit,
    on the design's lattice where ``_design_lattice`` serves the points of
    that fit or retry, else on the exact engine (``_grid_fit_multi``); the
    failed points, and so the points retried, are the engine's either way.
    A point has failed where its value is NaN.  A rescued point takes every
    entry of its retry; ``h`` holds the bandwidth each point was last fitted
    at.
    """
    def fit(h_fit, x):
        if np.ndim(u) == 1:
            return _grid_fit_1d(u, z, degree, kern, h_fit, x)
        return _grid_fit_multi(u, z, kern, h_fit, x)

    res = fit(h, x_eval)
    res["h"] = np.full(res["value"].shape[0], float(h))
    if not widen_on_failure:
        return res
    h_wide = float(h)
    for _ in range(WIDEN_ATTEMPTS):
        bad = np.flatnonzero(np.isnan(res["value"]))
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
    try:
        fact = np.array([math.factorial(k) / h**k for k in range(degree + 1)])
    except (OverflowError, ZeroDivisionError):
        raise BandwidthError(f"h={h:.6g} is out of floating-point range for derivatives "
                             f"of order {degree}: the covariate's span is out of range; "
                             "rescale x") from None
    return np.where(ok[:, None], beta[:, :, 0] * fact[None, :], np.nan)


# ---------------------------------------------------------------------------
# bandwidth selection

# The CV screen (``_screen_bounds``) bins the design onto this many points.
_SCREEN_GRID = 4096
# Designs with fewer points are scored exactly.  On uniform designs with
# binary z the screen and the exhaustive search cost the same at about 80
# points for degree 1, 100 for degree 2 and 150 for degree 3.
_SCREEN_MIN_POINTS = 150
# Constant of the screen's error bound: 10.5 times the largest error seen,
# |sqrt(binned) - sqrt(exact)| = 0.119 bounds, over about 50,000 candidate scores
# on uniform, skewed, clustered and tied designs of 150 to 6,000 points with
# binary, smooth and noiseless z at degrees 1-3; the largest were on 3 or 4
# distinct x values, where every point of a tie falls at one place between
# grid points and their binning errors add up.
_SCREEN_ERROR = 1.25


def _design_span(u: np.ndarray) -> float:
    """Largest coordinate range of a (J,) or (J, d) design; no h fits a single point."""
    span = float(np.ptp(u, axis=0).max())
    if span <= 0.0:
        raise BandwidthError("design points are all identical")
    return span


def default_candidates(u: np.ndarray, degree: int, n: int = 16) -> np.ndarray:
    """Geometric bandwidth grid spanning the design: [span/50 .. span/3]."""
    span = _design_span(u)
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


def _loo_residuals(z: np.ndarray, value: np.ndarray, lev: np.ndarray) -> np.ndarray:
    """Leave-one-out residuals ``z_j - z_hat_{-j}`` of a fit at design points.

    Uses the weighted-least-squares deletion identity
    ``z_hat_{-j} = (z_hat_j - l_j z_j) / (1 - l_j)`` with the fit's value
    ``z_hat_j`` and leverage ``l_j``, exact because the weights do not depend
    on z.  The residual is inf where ``1 - l_j <= 1e-10``: a leverage near one
    leaves no usable score.
    """
    denom = 1.0 - lev
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.where(denom > 1e-10, z - (value - lev * z) / denom, np.inf)


def _loo_score(res: dict, z_at: np.ndarray) -> float:
    """Mean squared leave-one-out error of a grid fit at design points.

    The leverage is ``res["self_w"]`` (see ``_loo_residuals``).  Returns inf
    when any fit fails or has leverage near one (candidate unusable).
    """
    if np.isnan(res["value"]).any():
        return math.inf
    return float(np.mean(_loo_residuals(z_at, res["value"], res["self_w"]) ** 2))


def _cv_tie(best: float, z: np.ndarray) -> float:
    """CV scores within this of the best one are floating-point noise: ties."""
    return 1e-12 * max(best, float(np.mean(z * z)), 1e-300)


def _cv_choice(cands: np.ndarray, scores: np.ndarray, z: np.ndarray) -> float:
    """The candidate with the least CV score; near-ties go to the smallest h.

    Scores within ``_cv_tie`` of the best count as ties.  ``cands`` is
    ascending.
    """
    finite = np.isfinite(scores)
    if not finite.any():
        raise BandwidthError("every candidate bandwidth failed to fit")
    best = scores[finite].min()
    return float(cands[int(np.argmax(scores <= best + _cv_tie(best, z)))])


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
    res = _grid_fit_1d(u, z, degree, kern, h, u[eval_idx])
    return _loo_score(res, z[eval_idx])


def _screen_scores(S, r, k0, z_at, lo, hi, w, scale):
    """Screened root CV score of each candidate, and a lower bound on the exact one.

    ``S`` (C, N, n, n) and ``r`` (C, N, n) are candidate c's local moments at
    N nodes.  Each node's fit gives a value and a leverage ``k0 a_0``, as in
    ``_intercept_fit``; scoring point i takes ``1 - w_i`` of node ``lo_i``'s
    and ``w_i`` of node ``hi_i``'s, and the root is the RMS of its
    ``_loo_residuals``.

    The screen (``_screen_bounds``) bounds the error of its moments, in the
    units of z, by ``scale`` per candidate.  A residual's error is that
    amplified by the moment matrix's Frobenius condition number kappa and by
    the division by 1 - l, and by the triangle inequality the root moves by at
    most the RMS of those errors, so ``|sqrt(screened) - sqrt(exact)| <= E``
    with

        E = scale * RMS_i(kappa_i / (1 - l_i)^2),

    kappa_i the larger of point i's two nodes'.  Returns (root, lower): inf
    and -inf for a candidate with a node whose relative pivot is below
    ``PIVOT_REL_TOL``, a leverage near one, or a root or bound not finite.
    """
    C, N, n = r.shape
    S = S.reshape(-1, n, n)
    S_inv, rel_piv = _solve_batched(S, np.broadcast_to(np.eye(n), S.shape))
    ok = (rel_piv >= PIVOT_REL_TOL).reshape(C, N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kappa = np.sqrt((S * S).sum(axis=(1, 2)) * (S_inv * S_inv).sum(axis=(1, 2)))
        value = np.einsum("ck,ck->c", S_inv[:, :, 0], r.reshape(-1, n))
        value, a0, kappa = (q.reshape(C, N) for q in (value, S_inv[:, 0, 0], kappa))
        v = (1.0 - w) * value[:, lo] + w * value[:, hi]
        lev = k0 * ((1.0 - w) * a0[:, lo] + w * a0[:, hi])
        root = np.sqrt(np.mean(_loo_residuals(z_at, v, lev) ** 2, axis=1))
        amp = np.maximum(kappa[:, lo], kappa[:, hi]) / (1.0 - lev) ** 2
        err = scale * np.sqrt(np.mean(amp * amp, axis=1))
        lower = root - err
    usable = (ok[:, lo].all(axis=1) & ok[:, hi].all(axis=1)
              & np.isfinite(root) & np.isfinite(err))
    return np.where(usable, root, np.inf), np.where(usable, lower, -np.inf)


def _screen_bounds(u, z, degree, kern: Kernel, cands, eval_idx):
    """Binned root CV score of each candidate, and a lower bound on the exact one.

    The design is linear-binned once onto ``_SCREEN_GRID`` equally spaced
    points, spacing delta.  Per candidate, one FFT convolution per moment order
    forms the local moments at the grid points either side of each scoring
    point, for ``_screen_scores``.  Linear binning moves each kernel weight by
    O((delta/h)^2) (Hall & Wand 1996) and the LOO weights sum to one, so the
    bound's scale is ``_SCREEN_ERROR * (delta/h)^2 * ptp(z)/2``, with the
    constant measured.  root is inf and lower -inf for every candidate where
    the bound is not derived: a kernel that is not twice differentiable
    (``uniform`` jumps, so its binning error is O(delta/h), and
    ``epanechnikov``'s kinks give O(delta/h) for a cluster of points at a
    kink), fewer than ``_SCREEN_MIN_POINTS`` design points, or a design
    without a finite span or a finite range of z.
    """
    C = cands.shape[0]
    lo, span = float(u.min()), float(np.ptp(u))
    half_range = 0.5 * float(np.ptp(z))
    if (kern.family != "gaussian" or u.shape[0] < _SCREEN_MIN_POINTS
            or not (0.0 < span < math.inf and math.isfinite(half_range))):
        return np.full(C, np.inf), np.full(C, -np.inf)

    G = _SCREEN_GRID
    delta = span / (G - 1)
    pos = (u - lo) / delta
    k = np.minimum(pos.astype(np.int64), G - 2)
    frac = pos - k
    data = [np.bincount(k, (1.0 - frac) * c, G) + np.bincount(k + 1, frac * c, G)
            for c in (np.ones_like(z), z)]
    # lag d sits at index d mod nfft; the moments at grid points only read
    # lags |d| < G, so a transform of 2G - 1 or more points has no wrap-around
    nfft = 1 << (2 * G - 2).bit_length()
    count_hat, sum_hat = np.fft.rfft(data, nfft)
    lag = np.arange(nfft)
    lag[G:] -= nfft
    n_eval = eval_idx.shape[0]
    nodes, at = np.unique(np.r_[k[eval_idx], k[eval_idx] + 1], return_inverse=True)

    # per candidate: sum_k c_k t^p K(t) for p <= 2 degree and sum_k y_k t^p K(t)
    # for p <= degree at the grid points read, t = (g_k - g_m)/h
    n = degree + 1
    mom = np.empty((C, 3 * degree + 2, nodes.size))
    powers = np.empty((2 * degree + 1, nfft))
    for i, h in enumerate(cands):
        t = lag * (-delta / h)
        kern.pdf(t, out=powers[0])
        for p in range(1, 2 * degree + 1):
            np.multiply(powers[p - 1], t, out=powers[p])
        f = np.fft.rfft(powers)
        f = np.concatenate([f * count_hat, f[:n] * sum_hat])
        mom[i] = np.fft.irfft(f, nfft)[:, nodes]

    S = mom[:, np.add.outer(np.arange(n), np.arange(n))].transpose(0, 3, 1, 2)
    r = mom[:, 2 * degree + 1 :].transpose(0, 2, 1)
    return _screen_scores(S, r, kern.at_zero, z[eval_idx], at[:n_eval],
                          at[n_eval:], frac[eval_idx],
                          _SCREEN_ERROR * (delta / cands) ** 2 * half_range)


def _cv_scores(root, lower, score, z) -> np.ndarray:
    """Exact LOO CV score of every candidate that could be chosen; inf for the rest.

    This is the univariate search's.  ``root`` is each candidate's binned root
    score, ``lower`` a lower bound on the root of its exact score, and
    ``score(i)`` scores candidate i exactly.
    Candidates are scored exactly, the screened best first and then in order of
    their lower bounds.  The search stops at the first candidate whose bound
    proves its score above the best exact score so far plus ``_cv_tie``: it and
    every later candidate could not be chosen, or tie the choice, and keep an
    infinite score.  Without bounds (root inf, lower -inf) every candidate is
    scored, in grid order: the exhaustive search.
    """
    first = int(np.argmin(root))
    order = np.argsort(lower, kind="stable")
    scores = np.full(root.shape[0], np.inf)
    best = math.inf
    for i in np.r_[first, order[order != first]]:
        if lower[i] > 0.0 and lower[i] ** 2 > best + _cv_tie(best, z):
            break
        scores[i] = score(i)
        best = min(best, scores[i])
    return scores


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

    The CV search is screened (``_cv_scores``).  Every candidate first gets
    a binned score, from the design linear-binned onto ``_SCREEN_GRID``
    points, and a bound on that score's error (``_screen_bounds``).
    Candidates are then scored exactly, the binned best first, until the
    bounds prove every remaining one worse than the best exact score by more
    than ``_cv_choice``'s tie tolerance; those keep an infinite score.  The
    choice, and the BandwidthError where every candidate fails, are the
    exhaustive search's.  Every candidate is scored exactly, in grid order,
    with a kernel that has no derived bound (uniform, epanechnikov) and with
    fewer than ``_SCREEN_MIN_POINTS`` design points.
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

    _design_span(u)
    if rule.candidates is not None:
        cands = np.sort(np.asarray(rule.candidates, dtype=float))
    else:
        cands = default_candidates(u, spec.degree)

    # the plug-in only needs the CV value as a pilot scale, so it can afford
    # a cheaper scoring subset than the pure-CV mode
    eval_idx = _cv_eval_indices(u, z, 800 if rule.mode == "cross_validation" else 300)
    scores = _cv_scores(
        *_screen_bounds(u, z, spec.degree, spec.kernel, cands, eval_idx),
        lambda i: loo_cv_score(u, z, spec.degree, spec.kernel, cands[i], eval_idx), z,
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
    """Minimize the first-order risk, integrated over the design's central 90%.

    The risk needs the pilot prevalence and its derivatives at every point
    of the integration grid; where the pilot fit or the derivative fit fails
    at one, this raises ``BandwidthError`` naming the first such point.
    """
    kern = spec.kernel
    n_raw = int(n_raw) if n_raw is not None else u.shape[0] * nu
    a, b = float(np.quantile(u, 0.05)), float(np.quantile(u, 0.95))
    if not b > a:
        raise BandwidthError(f"the plug-in has no interval to integrate its risk over: "
                             f"the design's central 90% is {a:.6g} alone; use cv or fixed")
    xg = np.linspace(a, b, 128)

    h_pilot = 1.5 * h_cv
    pilot = _grid_fit_1d(u, z, spec.degree, kern, h_pilot, xg)

    # Derivatives of the pilot curve by a local quadratic on the pilot grid.
    # When the CV pilot collapsed, widen the quadratic's window to a fifth of
    # the interval so the rough pilot cannot inject spurious curvature.
    h_der = max(h_pilot, 4.0 * (b - a) / (xg.size - 1))
    if collapsed:
        h_der = max(h_der, 0.2 * (b - a))
    p_pilot, der = _pilot_derivatives(xg, pilot["value"], nu, kern, h_der, xg)
    failed = np.flatnonzero(np.isnan(p_pilot) | np.isnan(der).any(axis=1))
    if failed.size:
        raise BandwidthError(
            f"the pilot fit fails at x = {xg[failed[0]]:.6g}: the plug-in cannot "
            "integrate its risk there; use cv or fixed"
        )
    p1, p2 = der[:, 1], der[:, 2]

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
    """Invert a pilot fit of mu = (1-p)^nu; a failed point stays NaN, and p < 1."""
    mu = np.clip(mu_raw, 0.0, 1.0)
    return np.clip(1.0 - mu ** (1.0 / nu), 0.0, 1.0 - 1e-6)


def _pilot_derivatives(xg, mu_raw, nu, kern: Kernel, h, x_eval):
    """The pilot prevalence on the grid xg, and its derivatives at x_eval.

    ``mu_raw`` is a pilot fit on xg.  The prevalence is NaN where that fit
    failed; the derivatives (``local_poly_derivatives``, degree 2) are fitted
    from the grid points where it did not.
    """
    p = _pilot_prevalence(mu_raw, nu)
    ok = ~np.isnan(p)
    return p, local_poly_derivatives(xg[ok], p[ok], 2, kern, h, x_eval)


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
):
    """Local linear fit with d covariates, vectorized over evaluation points.

    ``centers`` is (J, d), ``x_eval`` is (M, d).  Weights use the kernel's
    spherically symmetric radial profile.  Returns the univariate grid fit's
    ``value`` (NaN exactly where the fit failed), ``count`` and ``self_w``.
    This is the exact engine: ``_grid_fit_multi`` runs the same fit on the
    design's lattice where that is cheaper.
    """
    S, r, count = _local_moments(
        np.asarray(centers, dtype=float), np.asarray(z, dtype=float), 1, kern, h,
        np.asarray(x_eval, dtype=float),
    )
    a, value, _ = _intercept_fit(S, r, count)
    # radial_profile(0) == 1 for every family, so the self weight is a_0
    return {"value": value, "count": count, "self_w": a[:, 0]}


def _grid_fit_multi(centers, z, kern: Kernel, h, x_eval):
    """``grid_fit_local_linear_multi``'s fit, on the design's lattice where that applies.

    It is the d-variate fit: the CV search scores every candidate with it,
    and ``grid_fit_with_widening`` runs the final fit and its retries on it.
    Where ``_design_lattice`` serves x_eval, ``_lattice_moments`` forms the
    moments, exact to rounding, and ``_intercept_fit`` solves them, so values
    move from the engine's by about eps times the moment matrix's condition
    number.  A point fails, its value NaN, where the engine's fails.  A fit
    needs d + 1 weighted points: the lattice's lower count, at most the
    engine's, settles that where it is at least d + 1.  The relative pivot
    settles the rest unless it lies within rounding of ``PIVOT_REL_TOL``.
    Rounding is taken as n^2 sqrt(N) eps, N the J + prod(n_k) terms the two
    fits sum: the typical error of a sum of N terms is sqrt(N) eps of the
    largest (Higham 2002, sec. 4.2), and the elimination's multipliers, at
    most 1, carry a moment's error to a pivot at most n^2 times over.  The
    points these leave undecided, and those whose lattice value is not finite
    (the engine's may be finite there), are refitted by the engine, which
    also runs the whole fit where the lattice does not apply.  ``count`` is
    the lower count at the other points.
    """
    lattice = _design_lattice(centers, z, kern, x_eval)
    if lattice is None:
        return grid_fit_local_linear_multi(centers, z, kern, h, x_eval)
    values, sources, at = lattice
    S, r, lower = _lattice_moments(values, sources, at, kern, h)
    a, value, rel_piv = _intercept_fit(S, r, lower)
    J, d = centers.shape
    n = d + 1
    slack = n * n * math.sqrt(J + sources[0].size) * np.finfo(float).eps
    # a lattice fit fails on a lower count under n, a pivot under
    # PIVOT_REL_TOL or a value that is not finite: NaN covers all three
    undecided = np.flatnonzero((rel_piv >= PIVOT_REL_TOL - slack)
                               & (np.isnan(value) | (rel_piv <= PIVOT_REL_TOL + slack)))
    res = {"value": value, "count": lower, "self_w": a[:, 0]}
    if undecided.size:
        exact = grid_fit_local_linear_multi(centers, z, kern, h, x_eval[undecided])
        for key, val in exact.items():
            res[key][undecided] = val
    return res


def _design_lattice(centers, z, kern: Kernel, x):
    """The lattice of the design's distinct values per axis, where it serves x.

    Every design lies on the tensor-product lattice of its distinct values
    per axis.  ``_grid_fit_multi`` asks for it on every fit, each of the CV
    search's candidates included.  Returns ``(values, sources, at)`` for
    ``_lattice_moments``: each axis's distinct values, the count of design
    points and the sum of their z at each node, and the node indices per
    axis of each point of x.
    Returns None where the lattice does not apply or does not pay: a kernel
    other than the gaussian, a non-finite design or z, a point of x off the
    lattice, or matrix work ``prod(n_k) * sum(n_k)`` over the n_k distinct
    values per axis not less than the exact engine's ``J * len(x)`` kernel
    weights.
    """
    J, d = centers.shape
    if (kern.family != "gaussian"
            or not (np.isfinite(centers).all() and np.isfinite(z).all())):
        return None
    values, inverse = zip(*(np.unique(centers[:, k], return_inverse=True)
                            for k in range(d)))
    shape = tuple(v.size for v in values)
    size = math.prod(shape)
    if size * sum(shape) >= J * x.shape[0]:
        return None
    at = tuple(np.minimum(np.searchsorted(v, x[:, k]), v.size - 1)
               for k, v in enumerate(values))
    if not all((v[i] == x[:, k]).all() for k, (v, i) in enumerate(zip(values, at))):
        return None
    node = np.ravel_multi_index(tuple(inv.ravel() for inv in inverse), shape)
    sources = (np.bincount(node, minlength=size).astype(float).reshape(shape),
               np.bincount(node, z, size).reshape(shape))
    return values, sources, at


def _lattice_moments(values, sources, at, kern: Kernel, h):
    """Exact local linear moments at lattice nodes: (S, r, lower).

    ``values``, ``sources`` and ``at`` are ``_design_lattice``'s: each
    axis's distinct values, the count of design points and the sum of their
    z at each node of the lattice they span, and the nodes' indices per axis.
    S and r are ``_local_moments``'; lower is at most its count of weighted
    points.  The gaussian profile factors over the axes: exp(-|t|^2/2) is the
    product of exp(-t_k^2/2).  With F a source and ``K_k[p][a, i] = t^p
    exp(-t^2/2)``, ``t = (v_i - v_a)/h`` over axis k's values v, formed as the
    engine forms (u - x)/h, every moment ``sum_j w_j t_1^p1 .. t_d^pd`` (and
    its z-weighted twin) at every node is F contracted one axis at a time,
    the last first, with ``K_k[p_k]``: ``K_1[p] @ F @ K_2[q]^T`` for d = 2.
    The lower count is the count source contracted with the indicators of
    ``t^2 <= T/d``, ``exp(-T/2)`` the smallest normal double: they put |t|^2
    at most T, where the engine's weight is positive.
    """
    d = len(values)
    n = d + 1
    t2_lower = -2.0 * math.log(np.finfo(float).tiny) / d
    mats, inside = [], []
    for v in values:
        # far nodes can overflow t or t^2 to inf; their weight is 0 and so are
        # their moments
        with np.errstate(over="ignore", invalid="ignore"):
            t = (v[None, :] - v[:, None]) / h
            k0 = kern.radial_profile(t * t)
            live = k0 > 0.0
            mats.append((k0, np.where(live, t * k0, 0.0),
                         np.where(live, t * t * k0, 0.0)))
            inside.append((t * t <= t2_lower).astype(float))

    def contract(F, factors):
        for k in reversed(range(d)):
            F = np.moveaxis(np.tensordot(factors[k], F, axes=(1, k)), 0, k)
        return F[at]

    # basis entry i is 1 for i = 0 and t_k for i = k + 1: its power of t_k is
    # (i == k + 1), and mats[k][p] carries t^p
    count, z_sum = sources
    S = np.empty((at[0].size, n, n))
    for i in range(n):
        for j in range(i, n):
            S[:, i, j] = S[:, j, i] = contract(
                count, [m[(i == k + 1) + (j == k + 1)] for k, m in enumerate(mats)])
    r = np.column_stack([contract(z_sum, [m[i == k + 1] for k, m in enumerate(mats)])
                         for i in range(n)])
    return S, r, contract(count, inside).astype(np.int64)


def select_bandwidth_multi(
    centers: np.ndarray,
    z: np.ndarray,
    kern: Kernel,
    rule: BandwidthRule,
) -> float:
    """Leave-one-out CV bandwidth for the d-variate local linear smoother.

    The LOO score is taken at up to 400 design points.  Every candidate is
    scored, in grid order, with the fit that also runs the final grid,
    ``_grid_fit_multi``.  With the gaussian kernel its moments come from the
    tensor-product lattice of the design's distinct values per axis, exact to
    rounding, and it fails where the exact engine fails, so a candidate fails
    where the exhaustive exact search's fails.  Other kernels, and designs
    whose lattice costs more than the engine, are scored on the engine.
    ``_cv_choice`` chooses, and raises BandwidthError where every candidate
    fails.
    """
    if rule.mode == "fixed":
        return float(rule.h)
    if rule.mode == "plugin":
        raise BandwidthError("plugin bandwidths are univariate; use cv or fixed")
    centers = np.asarray(centers, dtype=float)
    z = np.asarray(z, dtype=float)
    J, d = centers.shape
    span = _design_span(centers)
    if rule.candidates is not None:
        cands = np.sort(np.asarray(rule.candidates, dtype=float))
    else:
        lo = span * max((d + 2) / max(J, 1), 0.01)
        cands = np.geomspace(min(lo, span / 4.0), span / 2.0, 16)

    if J > 400:  # score at most 400 centers per candidate
        picks = np.unique(np.round(np.linspace(0, J - 1, 400)).astype(int))
    else:
        picks = np.arange(J)

    scores = np.array([
        _loo_score(_grid_fit_multi(centers, z, kern, float(h), centers[picks]), z[picks])
        for h in cands
    ])
    return _cv_choice(cands, scores, z)
