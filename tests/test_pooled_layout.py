"""Properties of the columnar pooled layout: pooling, pool means, CSV codec.

A pooled sample is four arrays: members in pool order, sizes, centers and
Y*.  Centers must equal each pool's own ``.mean()`` bit for bit, because the
pooled estimators smooth against them and results are compared byte for byte.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from poolreg import PooledDataset, PoolingError, RawDataset, pool_homogeneous, pool_random
from poolreg.io import ingest_pooled_csv, write_pooled_csv
from poolreg.pooling import _pool_means

_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# subnormals, -0.0 and magnitudes from 1e-300 to 1e300 included
FLOATS = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


def pools(pooled):
    """Each pool's member covariates, in pool order."""
    return np.split(pooled.member_covariates, np.cumsum(pooled.sizes())[:-1])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def samples(draw):
    """Distinct covariates with responses, a group size dividing N and a seed."""
    nu = draw(st.integers(1, 12))
    n = nu * draw(st.integers(1, 10))
    x = draw(st.lists(FLOATS, min_size=n, max_size=n, unique=True))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(x), np.array(y), nu, draw(st.integers(0, 2**32 - 1))


@_SETTINGS
@given(samples())
def test_homogeneous_pools_ignore_sample_order(sample):
    x, y, nu, seed = sample
    perm = np.random.default_rng(seed).permutation(x.size)
    a = pool_homogeneous(RawDataset(x, y), nu)
    b = pool_homogeneous(RawDataset(x[perm], y[perm]), nu)
    for name in ("member_covariates", "group_sizes", "group_centers", "y_star"):
        assert same_bits(getattr(a, name), getattr(b, name)), name


@_SETTINGS
@given(samples())
def test_equal_pool_centers_are_each_pools_mean(sample):
    x, y, nu, seed = sample
    for pooled in (pool_homogeneous(RawDataset(x, y), nu),
                   pool_random(RawDataset(x, y), nu, seed)):
        expected = [m.mean() for m in pools(pooled)]
        assert same_bits(pooled.centers(), np.array(expected))
        assert pooled.y_star.tolist() == [
            int(y[np.isin(x, m)].max()) for m in pools(pooled)
        ]


@_SETTINGS
@given(
    sizes=st.lists(st.sampled_from([1, 2, 3, 5, 8, 9, 17, 128, 129, 300]),
                   min_size=1, max_size=8),
    d=st.integers(1, 3),
    scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e5, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_unequal_pool_means_are_each_pools_mean(sizes, d, scale, seed):
    sizes = np.array(sizes)
    shape = (sizes.sum(),) if d == 1 else (sizes.sum(), d)
    members = np.random.default_rng(seed).normal(size=shape) * scale
    ends = np.cumsum(sizes)
    expected = [members[e - s : e].mean(axis=0) for s, e in zip(sizes, ends)]
    assert same_bits(_pool_means(members, sizes), np.array(expected))


@st.composite
def bivariate_pools(draw):
    """A generic bivariate pooled sample with unequal group sizes."""
    sizes = np.array(draw(st.lists(st.integers(1, 9), min_size=1, max_size=8)))
    n = int(sizes.sum())
    members = np.array(draw(st.lists(FLOATS, min_size=2 * n, max_size=2 * n)))
    members = members.reshape(n, 2)
    y = draw(st.lists(st.integers(0, 1), min_size=sizes.size, max_size=sizes.size))
    ends = np.cumsum(sizes)
    centers = np.array([members[e - s : e].mean(axis=0) for s, e in zip(sizes, ends)])
    nu = float(sizes[0]) if (sizes == sizes[0]).all() else float(sizes.mean())
    return PooledDataset(members, sizes, centers, np.array(y), "generic", nu, 2)


@_SETTINGS
@given(bivariate_pools())
def test_pooled_csv_round_trip_is_exact(tmp_path, pooled):
    back = ingest_pooled_csv(write_pooled_csv(pooled, tmp_path / "pools.csv"))
    assert (back.strategy, back.nu, back.dimension) == ("generic", pooled.nu, 2)
    for name in ("member_covariates", "group_sizes", "group_centers", "y_star"):
        assert same_bits(getattr(back, name), getattr(pooled, name)), name


@_SETTINGS
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    extra=st.integers(-3, 3).filter(bool),
)
def test_rejects_sizes_that_do_not_sum_to_n(sizes, extra):
    n = sum(sizes) + extra
    assume(n >= 0)
    with pytest.raises(PoolingError, match="sum"):
        PooledDataset(np.zeros(n), np.array(sizes), np.zeros(len(sizes)), None,
                      "generic", 1.0, 1)


@_SETTINGS
@given(
    y=st.lists(st.integers(-3, 3), min_size=1, max_size=6).filter(
        lambda v: not set(v) <= {0, 1}
    )
)
def test_rejects_outcomes_outside_zero_one(y):
    k = len(y)
    with pytest.raises(PoolingError, match="0 or 1"):
        PooledDataset(np.zeros(k), np.ones(k, dtype=int), np.zeros(k), np.array(y),
                      "generic", 1.0, 1)


def test_rejects_empty_pools_and_misshapen_columns():
    m = np.arange(4.0)
    with pytest.raises(PoolingError, match=">= 1"):
        PooledDataset(m, np.array([0, 4]), np.zeros(2), None, "generic", 2.0, 1)
    with pytest.raises(PoolingError, match="shapes"):
        PooledDataset(m, np.array([2, 2]), np.zeros(3), None, "generic", 2.0, 1)
    with pytest.raises(PoolingError, match="shapes"):
        PooledDataset(m, np.array([2, 2]), np.zeros((2, 2)), None, "generic", 2.0, 2)


def test_columns_are_read_only():
    pooled = pool_homogeneous(RawDataset([3.0, 1.0, 2.0, 4.0], [0, 1, 0, 0]), 2)
    for arr in (pooled.member_covariates, pooled.group_sizes,
                pooled.group_centers, pooled.y_star):
        with pytest.raises(ValueError):
            arr[0] = 0
