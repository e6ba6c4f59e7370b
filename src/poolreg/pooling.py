"""Pooling raw samples into tested groups.

Three strategies: contiguous blocks of the sorted sample (homogeneous
pooling), seeded random partition (the baseline method's setting), and
equal-width multivariate bins.  A group's test outcome is positive exactly
when some member is positive; the pooled negative indicator Z* = 1 - Y* is
what the downstream smoothers consume.

Pools are stored as columns, not one object per pool.  Each strategy orders
the sample (a stable sort, a permutation, a stable sort by bin) and cuts it
into runs of consecutive members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class PoolingError(ValueError):
    """Invalid pooling request (group size, dimension or bin count)."""


@dataclass(frozen=True)
class RawDataset:
    """Individual-level sample: covariates and optional binary responses.

    ``covariates`` has shape (N,) for one covariate or (N, d) for d >= 2.
    """

    covariates: np.ndarray
    responses: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=float)
        if x.ndim == 2 and x.shape[1] == 1:
            x = x[:, 0]
        if x.ndim not in (1, 2) or x.shape[0] == 0:
            raise ValueError("covariates must be a nonempty (N,) or (N, d) array")
        if not np.isfinite(x).all():
            raise ValueError("covariates must be finite")
        x.flags.writeable = False
        object.__setattr__(self, "covariates", x)
        if self.responses is not None:
            y = np.asarray(self.responses)
            if y.shape != (x.shape[0],):
                raise ValueError("responses must align 1:1 with covariates")
            if not np.isin(y, (0, 1)).all():
                raise ValueError("responses must be 0 or 1")
            y = y.astype(np.int8)
            y.flags.writeable = False
            object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def dimension(self) -> int:
        return 1 if self.covariates.ndim == 1 else self.covariates.shape[1]


@dataclass(frozen=True)
class BinGeometry:
    """Equal-width bin layout over an axis-aligned box (default unit cube)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    bins_per_axis: int
    widths: tuple[float, ...]
    counts: np.ndarray  # shape (J,) * d, points per bin

    def __post_init__(self):
        c = np.asarray(self.counts)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map points (M, d) to bin indices (M, d); mask marks in-region points.

        Bins are half-open on the left, (k*w, (k+1)*w], except that the
        global lower boundary belongs to the first bin.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        w = np.asarray(self.widths)
        inside = ((pts >= lo) & (pts <= hi)).all(axis=1)
        rel = (pts - lo) / w
        # clipped before the cast: a point far outside overflows int64
        idx = np.clip(np.ceil(rel), 1, self.bins_per_axis).astype(np.int64) - 1
        return idx, inside

    def count_at(self, points: np.ndarray) -> np.ndarray:
        """Number of pooled data points in the bin containing each point.

        Points outside the region get count 0.
        """
        idx, inside = self.locate(points)
        m = np.zeros(idx.shape[0], dtype=np.int64)
        if inside.any():
            m[inside] = self.counts[tuple(idx[inside].T)]
        return m


@dataclass(frozen=True)
class PooledDataset:
    """Tested pools as read-only columns, plus the strategy that formed them.

    Pool j is the next ``group_sizes[j]`` rows of ``member_covariates``, (n,)
    or (n, d), centered at ``group_centers[j]``, with outcome ``y_star[j]``.
    """

    member_covariates: np.ndarray
    group_sizes: np.ndarray
    group_centers: np.ndarray
    y_star: np.ndarray | None
    strategy: str  # homogeneous_sorted | random | binned | generic
    nu: float
    dimension: int
    bin_geometry: BinGeometry | None = None
    n_outside: int = 0

    def __post_init__(self):
        tail = () if self.dimension == 1 else (self.dimension,)
        m = np.asarray(self.member_covariates, dtype=float)
        sizes = np.asarray(self.group_sizes, dtype=np.int64)
        centers = np.asarray(self.group_centers, dtype=float)
        if m.shape[1:] != tail or m.ndim == 0 or centers.shape != sizes.shape + tail:
            raise PoolingError(
                f"pool columns have shapes {m.shape} and {centers.shape}, "
                f"need (n,) + {tail} and (n_groups,) + {tail}"
            )
        if (sizes < 1).any() or sizes.sum() != m.shape[0]:
            raise PoolingError(f"group sizes must be >= 1 and sum to n = {m.shape[0]}")
        arrays = {"member_covariates": m, "group_sizes": sizes, "group_centers": centers}
        if self.y_star is not None:
            y = np.asarray(self.y_star)
            if y.shape != sizes.shape or not np.isin(y, (0, 1)).all():
                raise PoolingError("need one pooled outcome Y* per group, each 0 or 1")
            arrays["y_star"] = y.astype(np.int8)
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_groups(self) -> int:
        return self.group_sizes.shape[0]

    def centers(self) -> np.ndarray:
        return self.group_centers

    def z_star(self) -> np.ndarray:
        if self.y_star is None:
            raise PoolingError("pooled outcomes unknown: responses were absent")
        return 1.0 - self.y_star

    def sizes(self) -> np.ndarray:
        return self.group_sizes

    def covariate_range(self) -> tuple[float, float]:
        """Smallest and largest member covariate over all pools."""
        return float(self.member_covariates.min()), float(self.member_covariates.max())


def _pool_means(members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each pool's consecutive members.

    Averaging the pools of each size s as one (k, s[, d]) block gives each
    pool's own ``.mean()`` bit for bit; ``np.add.reduceat`` does not (s >= 3).
    """
    starts = np.cumsum(sizes) - sizes
    means = np.empty(sizes.shape + members.shape[1:])
    for s in np.unique(sizes):
        which = np.flatnonzero(sizes == s)
        means[which] = members[starts[which, None] + np.arange(s)].mean(axis=1)
    return means


def _equal_pools(raw: RawDataset, order: np.ndarray, nu: int, strategy: str):
    """Pools of nu consecutive members of the sample taken in ``order``."""
    x = raw.covariates[order]
    sizes = np.full(raw.n // nu, nu, dtype=np.int64)
    y_star = None
    if raw.responses is not None:
        y_star = raw.responses[order].reshape(-1, nu).max(axis=1)
    return PooledDataset(x, sizes, _pool_means(x, sizes), y_star, strategy, nu, 1)


def _group_size(nu) -> int:
    """nu as the whole number of members in every equal pool."""
    if not float(nu).is_integer():
        raise PoolingError(f"group size nu must be a whole number (got {nu})")
    if nu < 1:
        raise PoolingError("group size nu must be >= 1")
    return int(nu)


def pool_homogeneous(raw: RawDataset, nu: int) -> PooledDataset:
    """Partition the sorted sample into contiguous groups of nu each.

    Ties in the covariate are broken by original index (stable sort), so the
    grouping is deterministic and invariant to permutations of distinct
    inputs.  nu must divide N; unequal group sizes and d > 1 are the binned
    generalization's job.
    """
    if raw.dimension != 1:
        raise PoolingError(
            "homogeneous pooling is univariate; of the estimators, only dh_binned "
            "takes d-variate input"
        )
    nu = _group_size(nu)
    if raw.n % nu != 0:
        raise PoolingError(
            f"nu={nu} does not divide N={raw.n}; of the estimators, only dh_binned "
            "takes any N"
        )
    order = np.argsort(raw.covariates, kind="stable")
    return _equal_pools(raw, order, nu, "homogeneous_sorted")


def pool_random(
    raw: RawDataset, nu: int, seed: int | np.random.Generator
) -> PooledDataset:
    """Uniformly random partition into N/nu groups of nu, via seeded shuffle."""
    if raw.dimension != 1:
        raise PoolingError(
            "random pooling is univariate; of the estimators, only dh_binned "
            "takes d-variate input"
        )
    nu = _group_size(nu)
    if raw.n % nu != 0:
        raise PoolingError(f"nu={nu} does not divide N={raw.n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _equal_pools(raw, rng.permutation(raw.n), nu, "random")


def pool_binned(
    raw: RawDataset,
    nu: float,
    region: tuple[tuple[float, float], ...] | None = None,
) -> PooledDataset:
    """Group points into equal-width bins of width (nu/N)^(1/d) per axis.

    The number of bins per axis J = (N/nu)^(1/d) must be an integer; points
    outside the region (the unit cube by default) are excluded from every
    bin but counted.  Each nonempty bin becomes a group centered at the bin
    midpoint, in the order of the bins' flat (C-order) index; empty bins
    stay visible through the geometry's count array.
    """
    d = raw.dimension
    if not nu > 0:
        raise PoolingError("nu must be positive")
    if region is None:
        region = tuple((0.0, 1.0) for _ in range(d))
    if len(region) != d:
        raise PoolingError(f"region must give bounds for all {d} axes")
    lo = np.array([r[0] for r in region], dtype=float)
    hi = np.array([r[1] for r in region], dtype=float)
    if not (hi > lo).all():
        raise PoolingError("region bounds must satisfy lo < hi on every axis")

    j_float = (raw.n / nu) ** (1.0 / d)
    J = int(round(j_float))
    if J < 1 or abs(j_float - J) > 1e-9 * max(1.0, J):
        lo_j = max(1, math.floor(j_float))
        suggestions = sorted(
            {raw.n / lo_j**d, raw.n / (lo_j + 1) ** d}, reverse=True
        )
        raise PoolingError(
            f"(N/nu)^(1/d) = {j_float:.6g} is not an integer; nearest valid "
            f"nu values are {', '.join(f'{s:g}' for s in suggestions)}"
        )
    frac = (nu / raw.n) ** (1.0 / d)
    widths = (hi - lo) * frac

    # zero counts hold the place of the real ones until the points are located
    geom = BinGeometry(tuple(lo), tuple(hi), J, tuple(widths), np.zeros((J,) * d))
    idx, inside = geom.locate(raw.covariates)
    flat = np.ravel_multi_index(tuple(idx[inside].T), (J,) * d)
    counts = np.bincount(flat, minlength=J**d)
    geom = replace(geom, counts=counts.reshape((J,) * d))

    members = np.flatnonzero(inside)[np.argsort(flat, kind="stable")]
    occupied = np.flatnonzero(counts)
    sizes = counts[occupied]
    centers = lo + (np.column_stack(np.unravel_index(occupied, (J,) * d)) + 0.5) * widths
    y_star = None
    if raw.responses is not None:
        y_star = np.maximum.reduceat(raw.responses[members], np.cumsum(sizes) - sizes)
    return PooledDataset(
        raw.covariates[members], sizes, centers[:, 0] if d == 1 else centers,
        y_star, "binned", float(nu), d, geom, int((~inside).sum()),
    )


def pooled_negative_probability(p_values) -> float:
    """Probability that a pool of independent members tests negative.

    Exactly prod(1 - p_i).  The simulator does not sample from it: it draws
    every member's response, and a pool tests positive when any member does,
    so it tests negative with this probability.  The tests use it as that
    oracle.
    """
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        return 1.0
    if (p < 0.0).any() or (p >= 1.0).any():
        raise ValueError("individual probabilities must lie in [0, 1)")
    return float(np.prod(1.0 - p))
