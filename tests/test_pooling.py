"""Pooling construction, aggregation and bin geometry tests."""

import itertools

import numpy as np
import pytest

from poolreg import (
    PoolingError,
    RawDataset,
    pool_binned,
    pool_homogeneous,
    pool_random,
    pooled_negative_probability,
)


def pools(pooled):
    """Each pool's member covariates, in pool order."""
    return np.split(pooled.member_covariates, np.cumsum(pooled.sizes())[:-1])


class TestRawDataset:
    def test_basic_construction(self):
        raw = RawDataset([1.0, 2.0, 3.0], [0, 1, 0])
        assert raw.n == 3 and raw.dimension == 1
        assert raw.responses.tolist() == [0, 1, 0]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            RawDataset([1.0, np.nan])

    def test_rejects_nonbinary_responses(self):
        with pytest.raises(ValueError):
            RawDataset([1.0, 2.0], [0, 2])

    def test_rejects_misaligned_responses(self):
        with pytest.raises(ValueError):
            RawDataset([1.0, 2.0], [0])

    def test_two_dimensional(self):
        raw = RawDataset(np.zeros((5, 2)))
        assert raw.dimension == 2 and raw.n == 5

    def test_arrays_are_frozen(self):
        raw = RawDataset([1.0, 2.0])
        with pytest.raises(ValueError):
            raw.covariates[0] = 9.0


class TestPoolHomogeneous:
    def test_sorted_contiguous_groups(self):
        raw = RawDataset([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])
        pooled = pool_homogeneous(raw, 3)
        members = [sorted(m.tolist()) for m in pools(pooled)]
        assert members == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert pooled.centers().tolist() == [2.0, 5.0]
        assert pooled.strategy == "homogeneous_sorted"

    def test_nu_one_gives_singletons(self):
        x = [0.4, 0.1, 0.9]
        pooled = pool_homogeneous(RawDataset(x), 1)
        assert pooled.n_groups == 3
        assert pooled.centers().tolist() == sorted(x)
        assert all(s == 1 for s in pooled.sizes())

    def test_max_aggregation(self):
        raw = RawDataset([1.0, 2.0, 3.0], [0, 1, 0])
        pooled = pool_homogeneous(raw, 3)
        assert pooled.y_star[0] == 1
        assert pooled.z_star()[0] == 0

    def test_aggregation_exhaustive_nu_up_to_ten(self):
        # Y* = 1 iff some member is positive, for every response vector
        for nu in range(1, 11):
            x = np.arange(float(nu))
            for bits in itertools.product((0, 1), repeat=nu):
                pooled = pool_homogeneous(RawDataset(x, list(bits)), nu)
                assert pooled.y_star[0] == max(bits)
                assert pooled.z_star()[0] == 1 - max(bits)

    def test_divisibility_error_mentions_binned(self):
        with pytest.raises(PoolingError, match="dh_binned"):
            pool_homogeneous(RawDataset([1.0, 2.0, 3.0]), 2)

    def test_multivariate_error_mentions_binned(self):
        with pytest.raises(PoolingError, match="dh_binned"):
            pool_homogeneous(RawDataset(np.zeros((4, 2))), 2)

    def test_contiguity_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=60)
        pooled = pool_homogeneous(RawDataset(x), 5)
        members = pools(pooled)
        for a, b in zip(members[:-1], members[1:]):
            assert a.max() <= b.min()

    def test_partition_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=40)
        pooled = pool_homogeneous(RawDataset(x), 4)
        recovered = np.sort(np.concatenate(pools(pooled)))
        np.testing.assert_array_equal(recovered, np.sort(x))

    def test_permutation_invariance_on_distinct_covariates(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 30)
        y = (rng.random(30) < 0.3).astype(int)
        base = pool_homogeneous(RawDataset(x, y), 5)
        perm = rng.permutation(30)
        other = pool_homogeneous(RawDataset(x[perm], y[perm]), 5)
        assert base.centers().tolist() == other.centers().tolist()
        assert base.z_star().tolist() == other.z_star().tolist()

    def test_stable_tie_break_by_original_index(self):
        x = [1.0, 1.0, 1.0, 1.0]
        y = [0, 1, 0, 1]
        pooled = pool_homogeneous(RawDataset(x, y), 2)
        assert pooled.y_star.tolist() == [1, 1]


class TestPoolRandom:
    def test_single_group_when_nu_equals_n(self):
        raw = RawDataset([5.0, 1.0, 3.0])
        pooled = pool_random(raw, 3, 0)
        assert pooled.n_groups == 1
        assert pooled.sizes()[0] == 3
        assert pooled.strategy == "random"

    def test_same_seed_same_partition(self):
        rng_x = np.random.default_rng(8)
        raw = RawDataset(rng_x.normal(size=20), (rng_x.random(20) < 0.5).astype(int))
        a = pool_random(raw, 4, 123)
        b = pool_random(raw, 4, 123)
        for ga, gb in zip(pools(a), pools(b)):
            np.testing.assert_array_equal(ga, gb)
        assert a.z_star().tolist() == b.z_star().tolist()

    def test_partition_pin_seed_42(self):
        # reproducibility fixture frozen after the first run
        pooled = pool_random(RawDataset(np.arange(10.0)), 5, 42)
        members = [sorted(m.tolist()) for m in pools(pooled)]
        assert members == [[0.0, 3.0, 5.0, 6.0, 7.0], [1.0, 2.0, 4.0, 8.0, 9.0]]
        assert pooled.centers().tolist() == [4.2, 4.8]

    def test_partition_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=24)
        pooled = pool_random(RawDataset(x), 6, 11)
        recovered = np.sort(np.concatenate(pools(pooled)))
        np.testing.assert_array_equal(recovered, np.sort(x))

    def test_divisibility_required(self):
        with pytest.raises(PoolingError):
            pool_random(RawDataset([1.0, 2.0, 3.0]), 2, 0)


@pytest.mark.parametrize("nu", [2.5, float("nan"), float("inf")])
def test_equal_pools_need_a_whole_nu(nu):
    # truncating 2.5 to 2 would pool in twos and report nu = 2
    raw = RawDataset(np.arange(10.0))
    with pytest.raises(PoolingError, match="whole number"):
        pool_homogeneous(raw, nu)
    with pytest.raises(PoolingError, match="whole number"):
        pool_random(raw, nu, 0)


class TestPoolBinned:
    def test_univariate_bin_layout(self):
        rng = np.random.default_rng(10)
        raw = RawDataset(rng.uniform(0, 1, 100), (rng.random(100) < 0.2).astype(int))
        pooled = pool_binned(raw, 10)
        geom = pooled.bin_geometry
        assert geom.bins_per_axis == 10
        np.testing.assert_allclose(geom.widths, [0.1])
        centers = sorted(pooled.centers().tolist())
        expected = [0.05 + 0.1 * k for k in range(10)]
        present = [c for c in expected if any(abs(c - g) < 1e-12 for g in centers)]
        assert present == centers or len(centers) <= 10
        assert int(geom.counts.sum()) == 100

    def test_bivariate_bin_layout(self):
        rng = np.random.default_rng(11)
        raw = RawDataset(rng.uniform(0, 1, (100, 2)), (rng.random(100) < 0.2).astype(int))
        pooled = pool_binned(raw, 4)
        geom = pooled.bin_geometry
        assert geom.bins_per_axis == 5  # (100/4)^(1/2)
        np.testing.assert_allclose(geom.widths, [0.2, 0.2])
        assert geom.counts.shape == (5, 5)

    def test_boundary_convention_half_open_with_closed_origin(self):
        # bins (k w, (k+1) w], global lower boundary joins the first bin
        raw = RawDataset(np.linspace(0.01, 0.99, 100))
        pooled = pool_binned(raw, 10)
        geom = pooled.bin_geometry
        idx, inside = geom.locate(np.array([0.1, 0.0, 0.10000001, 1.0]))
        assert inside.all()
        assert idx[:, 0].tolist() == [0, 0, 1, 9]

    def test_points_outside_region_counted(self):
        x = np.concatenate([np.linspace(0.01, 0.99, 98), [-0.5, 1.5]])
        pooled = pool_binned(RawDataset(x, np.zeros(100, dtype=int)), 10)
        assert pooled.n_outside == 2
        assert int(pooled.bin_geometry.counts.sum()) == 98

    def test_non_integer_bin_count_suggests_nu(self):
        raw = RawDataset(np.linspace(0.01, 0.99, 100))
        with pytest.raises(PoolingError, match="nearest valid"):
            pool_binned(raw, 7)

    def test_empty_bins_carry_no_group(self):
        x = np.array([0.05, 0.06, 0.95, 0.96])
        pooled = pool_binned(RawDataset(x, [0, 0, 1, 0]), 1.0)
        geom = pooled.bin_geometry
        assert geom.bins_per_axis == 4
        assert geom.counts.tolist() == [2, 0, 0, 2]
        assert pooled.n_groups == 2  # the two empty middle bins carry no Z*
        assert pooled.z_star().tolist() == [1, 0]

    def test_partition_of_in_region_points(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, 400)
        pooled = pool_binned(RawDataset(x), 4)
        total = sum(pooled.sizes())
        assert total == 400
        m = pooled.bin_geometry.count_at(x)
        assert (m >= 1).all()

    def test_count_at_matches_membership(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, 100)
        pooled = pool_binned(RawDataset(x), 10)
        geom = pooled.bin_geometry
        for center, size in zip(pooled.centers(), pooled.sizes()):
            m = geom.count_at(np.atleast_1d(center))
            assert int(m[0]) == size

    def test_custom_region(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-3, 3, 100)
        pooled = pool_binned(RawDataset(x), 10, region=((-3.0, 3.0),))
        np.testing.assert_allclose(pooled.bin_geometry.widths, [0.6])
        assert int(pooled.bin_geometry.counts.sum()) == 100


class TestPooledNegativeProbability:
    def test_no_infection(self):
        assert pooled_negative_probability([0.0, 0.0, 0.0]) == 1.0

    def test_product_form(self):
        assert pooled_negative_probability([0.5, 0.5]) == 0.25

    def test_brute_force_enumeration_oracle(self):
        # exhaustive sum over all 2^4 outcome vectors of P(vector) * 1{all negative}
        p = [0.1, 0.2, 0.3, 0.4]
        total = 0.0
        for bits in itertools.product((0, 1), repeat=4):
            prob = 1.0
            for b, pi in zip(bits, p):
                prob *= pi if b else (1.0 - pi)
            if max(bits) == 0:
                total += prob
        assert abs(total - 0.3024) < 1e-15
        assert abs(pooled_negative_probability(p) - total) < 1e-15

    def test_rejects_p_of_one(self):
        with pytest.raises(ValueError):
            pooled_negative_probability([0.5, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pooled_negative_probability([-0.1])
