"""Estimator identities, clamping, diagnostics and cross-estimator checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from poolreg import (
    BandwidthRule,
    EPANECHNIKOV,
    GAUSSIAN,
    EstimationError,
    PooledDataset,
    RawDataset,
    SmootherSpec,
    UNIFORM,
    asymptotic_diagnostics,
    constant_model,
    data_mode_diagnostics,
    estimate_dh,
    estimate_dh_binned,
    estimate_dm,
    estimate_ll,
    ise,
    make_model,
    pool_binned,
    pool_homogeneous,
    pool_random,
    sample_replicate,
    seed_stream,
)
from poolreg.estimators import CLAMP_HIGH, CLAMP_LOW, CLAMP_NONE, FAIL_EMPTY_BIN
from poolreg.io import ingest_pooled_csv
from poolreg.smoothing import _grid_fit_1d


def synthetic_raw(seed=0, n=300, slope=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = (rng.random(n) < 0.1 + slope * x).astype(int)
    return RawDataset(x, y)


SPECS = [
    SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.15)),
    SmootherSpec(EPANECHNIKOV, 2, BandwidthRule.fixed(0.3)),
    SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv()),
]


class TestCoincidenceAtNuOne:
    @pytest.mark.parametrize("spec", SPECS)
    def test_dh_equals_ll(self, spec):
        raw = synthetic_raw()
        grid = np.linspace(raw.covariates.min(), raw.covariates.max(), 101)
        dh = estimate_dh(pool_homogeneous(raw, 1), spec, grid)
        ll = estimate_ll(raw, spec, grid)
        np.testing.assert_allclose(dh.p_hat, ll.p_hat, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("spec", SPECS)
    def test_dm_equals_ll(self, spec):
        raw = synthetic_raw(1)
        grid = np.linspace(raw.covariates.min(), raw.covariates.max(), 101)
        dm = estimate_dm(pool_random(raw, 1, 7), spec, grid)
        ll = estimate_ll(raw, spec, grid)
        np.testing.assert_allclose(dm.p_hat, ll.p_hat, atol=1e-12, rtol=0)


class TestEstimateDH:
    def test_root_transform_value(self):
        # a design whose local linear fit at the balance point is exactly 0.9
        u = np.linspace(0.0, 1.0, 10)
        y = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
        pooled = pool_homogeneous(RawDataset(u, y), 1)
        # nu=5 transform applied to the same smoother output
        mu = _grid_fit_1d(u, 1.0 - y.astype(float), 1, UNIFORM, 2.0,
                          np.array([u.mean()]))["value"][0]
        assert mu == 0.9
        assert abs((1.0 - mu ** (1.0 / 5.0)) - (1.0 - 0.9 ** 0.2)) == 0.0

    def test_transform_identity_on_result(self):
        raw = synthetic_raw(2, n=500)
        pooled = pool_homogeneous(raw, 5)
        grid = np.linspace(raw.covariates.min(), raw.covariates.max(), 101)
        est = estimate_dh(pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)), grid)
        ok = est.failures == 0
        expected = 1.0 - np.clip(est.mu_hat[ok], 0.0, 1.0) ** (1.0 / 5.0)
        np.testing.assert_allclose(est.p_hat[ok], expected, atol=0, rtol=0)
        assert est.nu == 5 and est.estimator_tag == "DH"

    def test_monotone_transform_consistency_unclamped(self):
        raw = synthetic_raw(3, n=500)
        est = estimate_dh(
            pool_homogeneous(raw, 5),
            SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.25)),
            np.linspace(0.2, 0.8, 51),
        )
        un = (est.clamp_flags == CLAMP_NONE) & (est.failures == 0)
        assert un.any()
        np.testing.assert_allclose(
            est.mu_hat[un], (1.0 - est.p_hat[un]) ** 5, atol=1e-12, rtol=0
        )

    def test_overshoot_clamps_high_to_zero(self):
        u = np.linspace(0, 1, 10)
        y = np.array([0] * 9 + [1])  # Z* falls from 1; extrapolates above 1 at x=0
        pooled = pool_homogeneous(RawDataset(u, y), 1)
        est = estimate_dh(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.5)), np.array([0.0])
        )
        assert est.mu_hat[0] > 1.0
        assert est.clamp_flags[0] == CLAMP_HIGH
        assert est.p_hat[0] == 0.0

    def test_undershoot_clamps_low_to_one(self):
        u = np.linspace(0, 1, 10)
        y = np.array([1] * 9 + [0])
        pooled = pool_homogeneous(RawDataset(u, y), 1)
        est = estimate_dh(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.5)), np.array([0.0])
        )
        assert est.mu_hat[0] < 0.0
        assert est.clamp_flags[0] == CLAMP_LOW
        assert est.p_hat[0] == 1.0

    def test_output_range(self):
        raw = synthetic_raw(4, n=600)
        for nu in (1, 5, 10):
            est = estimate_dh(
                pool_homogeneous(raw, nu),
                SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.1)),
                np.linspace(0.05, 0.95, 101),
            )
            ok = est.failures == 0
            assert ((est.p_hat[ok] >= 0.0) & (est.p_hat[ok] <= 1.0)).all()

    def test_fit_failure_flagged_not_fatal(self):
        # compact kernel with a tiny bandwidth fails at interior gap points
        x = np.concatenate([np.linspace(0, 0.3, 10), np.linspace(0.7, 1.0, 10)])
        y = np.zeros(20, dtype=int)
        pooled = pool_homogeneous(RawDataset(x, y), 1)
        est = estimate_dh(
            pooled,
            SmootherSpec(EPANECHNIKOV, 1, BandwidthRule.fixed(0.05)),
            np.array([0.1, 0.5, 0.9]),
        )
        assert est.failures[1] != 0 and np.isnan(est.p_hat[1])
        assert est.failures[0] == 0 and est.failures[2] == 0

    def test_opt_in_widening_rescues_failed_points(self):
        # same sparse middle, but the caller opts into bandwidth doubling:
        # 0.05 -> 0.1 -> 0.2 -> 0.4 eventually reaches the flanking data
        x = np.concatenate([np.linspace(0, 0.3, 10), np.linspace(0.7, 1.0, 10)])
        y = np.zeros(20, dtype=int)
        pooled = pool_homogeneous(RawDataset(x, y), 1)
        est = estimate_dh(
            pooled,
            SmootherSpec(EPANECHNIKOV, 1, BandwidthRule.fixed(0.05)),
            np.array([0.1, 0.5, 0.9]),
            widen_on_failure=True,
        )
        assert (est.failures == 0).all()
        assert est.p_hat[1] == 0.0  # all responses negative

    def test_requires_homogeneous_strategy(self):
        raw = synthetic_raw(5)
        pooled = pool_random(raw, 5, 0)
        with pytest.raises(EstimationError, match="homogeneous"):
            estimate_dh(pooled, SPECS[0], np.array([0.5]))

    def test_inconsistent_group_sizes_rejected(self):
        pooled = PooledDataset(
            member_covariates=np.array([0.1, 0.2, 0.5, 0.6, 0.7]),
            group_sizes=np.array([2, 3]),
            group_centers=np.array([0.15, 0.6]),
            y_star=np.array([0, 0]),
            strategy="homogeneous_sorted",
            nu=2,
            dimension=1,
        )
        with pytest.raises(EstimationError, match="binned"):
            estimate_dh(pooled, SPECS[0], np.array([0.4]))

    def test_grid_outside_covariate_range_rejected(self):
        raw = synthetic_raw(6)
        pooled = pool_homogeneous(raw, 5)
        with pytest.raises(EstimationError, match="range"):
            estimate_dh(pooled, SPECS[0], np.array([-1.0, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        # NaN compares false with both range ends, so the range test alone lets it by
        pooled = pool_homogeneous(synthetic_raw(6), 5)
        with pytest.raises(EstimationError, match="finite"):
            estimate_dh(pooled, SPECS[0], np.array([0.5, bad]))

    def test_scale_equivariance_of_smoother_stage(self):
        # mu-level linearity: scaling all Z* by c scales the raw smoother by c
        rng = np.random.default_rng(7)
        u = np.sort(rng.uniform(0, 1, 100))
        z = (rng.random(100) < 0.7).astype(float)
        grid = np.linspace(0.1, 0.9, 41)
        base = _grid_fit_1d(u, z, 1, GAUSSIAN, 0.2, grid)["value"]
        doubled = _grid_fit_1d(u, 2.0 * z, 1, GAUSSIAN, 0.2, grid)["value"]
        np.testing.assert_array_equal(doubled, 2.0 * base)  # exact for c = 2
        generic = _grid_fit_1d(u, 1.7 * z, 1, GAUSSIAN, 0.2, grid)["value"]
        np.testing.assert_allclose(generic, 1.7 * base, rtol=1e-12)


class TestEstimateLL:
    def test_all_negative_gives_zero(self):
        x = np.linspace(0, 1, 50)
        est = estimate_ll(
            RawDataset(x, np.zeros(50, dtype=int)),
            SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            np.linspace(0, 1, 21),
        )
        np.testing.assert_allclose(est.p_hat, 0.0, atol=1e-14)

    def test_all_positive_gives_one(self):
        x = np.linspace(0, 1, 50)
        est = estimate_ll(
            RawDataset(x, np.ones(50, dtype=int)),
            SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            np.linspace(0, 1, 21),
        )
        np.testing.assert_allclose(est.p_hat, 1.0, atol=1e-14)

    def test_responses_required(self):
        with pytest.raises(EstimationError):
            estimate_ll(RawDataset(np.linspace(0, 1, 10)), SPECS[0], np.array([0.5]))

    def test_monte_carlo_band_linear_truth(self):
        # local linear is unbiased for a linear p, so the mean estimate over
        # replicates stays well inside 3 empirical standard deviations
        p = lambda x: 0.1 + 0.2 * x
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.15))
        points = np.array([0.3, 0.5, 0.7])
        reps = np.empty((100, points.size))
        for r in range(100):
            rng = seed_stream(202, r)
            x = rng.uniform(0, 1, 2000)
            y = (rng.random(2000) < p(x)).astype(int)
            reps[r] = estimate_ll(RawDataset(x, y), spec, points).p_hat
        mean = reps.mean(axis=0)
        sd = reps.std(axis=0, ddof=1)
        assert (np.abs(mean - p(points)) <= 3.0 * sd).all()


class TestEstimateDM:
    def test_all_pools_negative(self):
        x = np.linspace(0, 1, 40)
        pooled = pool_random(RawDataset(x, np.zeros(40, dtype=int)), 5, 3)
        est = estimate_dm(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)),
            np.linspace(0.1, 0.9, 11),
        )
        # q_hat = 1, g_hat == 0 exactly, so p_hat == 0
        np.testing.assert_allclose(est.p_hat, 0.0, atol=1e-14)

    def test_every_pool_positive_is_an_error(self):
        x = np.linspace(0, 1, 40)
        pooled = pool_random(RawDataset(x, np.ones(40, dtype=int)), 5, 3)
        with pytest.raises(EstimationError, match="smaller group size"):
            estimate_dm(pooled, SPECS[0], np.array([0.5]))

    def test_random_strategy_required(self):
        raw = synthetic_raw(8)
        pooled = pool_homogeneous(raw, 5)
        with pytest.raises(EstimationError, match="random"):
            estimate_dm(pooled, SPECS[0], np.array([0.5]))

    def test_bivariate_pools_are_rejected(self):
        members = np.array([[0.1, 0.2], [0.3, 0.1], [0.5, 0.6], [0.4, 0.7],
                            [0.9, 0.8], [0.8, 0.9]])
        sizes = np.array([2, 2, 2])
        pooled = PooledDataset(members, sizes, members.reshape(3, 2, 2).mean(axis=1),
                               np.array([1, 0, 1], dtype=np.int8), "generic", 2.0, 2)
        with pytest.raises(EstimationError, match="estimate_dm is univariate"):
            estimate_dm(pooled, SPECS[0], np.array([[0.5, 0.5]]))

    def test_output_range_and_tag(self):
        raw = synthetic_raw(9, n=500, slope=0.5)
        pooled = pool_random(raw, 5, 11)
        est = estimate_dm(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            np.linspace(0.05, 0.95, 101),
        )
        ok = est.failures == 0
        assert ((est.p_hat[ok] >= 0.0) & (est.p_hat[ok] <= 1.0)).all()
        assert est.estimator_tag == "DM"


class TestEstimateDHBinned:
    def test_all_negative_bins_give_zero(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, 200)
        pooled = pool_binned(RawDataset(x, np.zeros(200, dtype=int)), 8.0)
        est = estimate_dh_binned(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)),
            np.linspace(0.1, 0.9, 21),
        )
        ok = est.failures == 0
        np.testing.assert_allclose(est.mu_hat[ok], 1.0, atol=1e-12)
        np.testing.assert_allclose(est.p_hat[ok], 0.0, atol=1e-12)

    def test_empty_bin_reported_missing(self):
        x = np.concatenate([np.linspace(0.01, 0.39, 50), np.linspace(0.61, 0.99, 50)])
        pooled = pool_binned(RawDataset(x, np.zeros(100, dtype=int)), 4.0)
        est = estimate_dh_binned(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)),
            np.array([0.2, 0.5, 0.8]),
        )
        assert est.failures[1] == FAIL_EMPTY_BIN
        assert np.isnan(est.p_hat[1])
        assert est.failures[0] == 0 and est.failures[2] == 0

    def test_exponent_uses_bin_occupancy(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 400)
        y = (rng.random(400) < 0.2).astype(int)
        pooled = pool_binned(RawDataset(x, y), 4.0)
        grid = np.linspace(0.05, 0.95, 31)
        est = estimate_dh_binned(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)), grid
        )
        m = pooled.bin_geometry.count_at(grid)
        ok = est.failures == 0
        expected = 1.0 - np.clip(est.mu_hat[ok], 0.0, 1.0) ** (1.0 / m[ok])
        np.testing.assert_allclose(est.p_hat[ok], expected, atol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_grid_rejected(self):
        pooled = pool_binned(synthetic_raw(6, n=400), 4.0)
        with pytest.raises(EstimationError, match="grid points must be finite"):
            estimate_dh_binned(pooled, SPECS[0], np.array([0.5, np.nan, np.inf, 5.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_grid_point_outside_the_region_is_an_empty_bin(self):
        pooled = pool_binned(synthetic_raw(6, n=400), 4.0)
        est = estimate_dh_binned(pooled, SPECS[0], np.array([0.5, 5.0]))
        assert est.failures.tolist() == [0, FAIL_EMPTY_BIN]
        assert np.isnan(est.p_hat[1])

    @pytest.mark.parametrize("d", [1, 2])
    def test_degree_other_than_one_rejected(self, d):
        # the fit is local linear whatever the spec says, so a higher degree
        # would silently give the degree-1 result
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (400, d))
        x = x[:, 0] if d == 1 else x
        pooled = pool_binned(RawDataset(x, np.zeros(400, dtype=int)), 4.0)
        grid = pooled.centers()
        spec = SmootherSpec(GAUSSIAN, 3, BandwidthRule.fixed(0.3))
        with pytest.raises(EstimationError, match="local linear: it needs degree 1, got 3"):
            estimate_dh_binned(pooled, spec, grid)

    def test_needs_enough_nonempty_bins(self):
        x = np.array([0.1, 0.2, 0.3, 0.6])
        pooled = pool_binned(RawDataset(x, np.zeros(4, dtype=int)), 1.0)
        with pytest.raises(EstimationError, match="nonempty bins"):
            estimate_dh_binned(pooled, SPECS[0], np.array([0.5]))

    def test_collinear_bins_are_a_degenerate_design(self):
        # all nonempty bins on the diagonal: the bivariate local linear system
        # is singular everywhere, which must surface as an error, not NaNs
        t = np.linspace(0.01, 0.99, 400)
        x = np.column_stack([t, t])
        pooled = pool_binned(RawDataset(x, np.zeros(400, dtype=int)), 4.0)
        grid = np.column_stack([np.linspace(0.2, 0.8, 5), np.linspace(0.2, 0.8, 5)])
        with pytest.raises(EstimationError, match="degenerate"):
            estimate_dh_binned(
                pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)), grid
            )

    def test_bivariate_smoke(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, (500, 2))
        p = 0.1 + 0.2 * x[:, 0]
        y = (rng.random(500) < p).astype(int)
        pooled = pool_binned(RawDataset(x, y), 20.0)
        grid = np.column_stack([np.linspace(0.2, 0.8, 9), np.full(9, 0.5)])
        est = estimate_dh_binned(
            pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)), grid
        )
        ok = est.failures == 0
        assert ok.sum() >= 7
        assert ((est.p_hat[ok] >= 0) & (est.p_hat[ok] <= 1)).all()

    def test_agrees_with_sorted_pooling_on_model_iii(self):
        # cross-estimator consistency: when the equal-width bins hold exactly
        # the pool_homogeneous group count (stratified covariates), the binned
        # route and the sorted route give ISE medians within factor 1.3.
        # With iid covariates the occupancy exponent 1/m(x) fluctuates
        # (Poisson counts), which dominates the error at nu=5 by design.
        model = make_model("iii")
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv())
        grid = np.linspace(model.law.quantile(0.05), model.law.quantile(0.95), 401)
        n, nu = 5000, 5
        ise_dh, ise_binned = [], []
        for r in range(20):
            rng = seed_stream(303, r)
            x = (np.arange(n) + rng.random(n)) / n
            y = (rng.random(n) < model.p(x)).astype(int)
            raw = RawDataset(x, y)
            pooled_b = pool_binned(raw, float(nu))
            assert (pooled_b.bin_geometry.counts == nu).all()
            est_dh = estimate_dh(pool_homogeneous(raw, nu), spec, grid)
            est_b = estimate_dh_binned(pooled_b, spec, grid)
            ise_dh.append(ise(est_dh, model))
            ise_binned.append(ise(est_b, model))
        med_dh = float(np.median(ise_dh))
        med_b = float(np.median(ise_binned))
        assert med_b <= 1.3 * med_dh and med_dh <= 1.3 * med_b


class TestAsymptoticDiagnostics:
    def test_bias_vanishes_for_constant_p(self):
        model = constant_model(0.1)
        diag = asymptotic_diagnostics(model, SmootherSpec(), 5, 10_000, 0.2, 0.5)
        assert abs(diag.B[0]) < 1e-15
        assert abs(diag.B1[0]) < 1e-15

    def test_nu_one_collapses_to_classical_variance(self):
        model = make_model("iii")
        x = 0.5
        n, h = 10_000, 0.2
        diag = asymptotic_diagnostics(model, SmootherSpec(), 1, n, h, x)
        p = float(model.p(x))
        v = GAUSSIAN.l2_norm / float(model.f(x))
        classical = p * (1.0 - p) * v / (n * h)
        np.testing.assert_allclose(diag.A[0] ** 2, classical, rtol=1e-12)

    def test_formula_value_model_iii(self):
        # A^2 at the acceptance-criterion operating point, by explicit arithmetic
        model = make_model("iii")
        diag = asymptotic_diagnostics(model, SmootherSpec(), 5, 10_000, 0.2, 0.5)
        p = 0.25 / 8.0
        a_sq = (
            (1 - p) ** (2 - 5) * (1 - (1 - p) ** 5)
            * (1.0 / (2.0 * np.sqrt(np.pi)))
            / (5 * 10_000 * 0.2)
        )
        np.testing.assert_allclose(diag.A[0] ** 2, a_sq, rtol=1e-12)
        assert diag.b_const == 1.0
        np.testing.assert_allclose(diag.v[0], 1.0 / (2.0 * np.sqrt(np.pi)), rtol=1e-12)

    def test_a_bandwidth_whose_square_overflows_is_refused(self):
        # h*h overflows: B and B1 would be inf, or NaN where p'' = 0
        for model in (make_model("iii"), constant_model(0.1)):
            with pytest.raises(EstimationError, match=r"not finite at h = 1e\+300"):
                asymptotic_diagnostics(model, SmootherSpec(), 3, 10, 1e300, [0.2, 0.5])

    def test_variance_halves_with_delta_small_pooling(self):
        # A^2 = O(delta/Nh): halving delta halves A^2 within 10% when nu*delta small
        base = constant_model(0.02)
        half = constant_model(0.01)
        d0 = asymptotic_diagnostics(base, SmootherSpec(), 5, 10_000, 0.2, 0.5)
        d1 = asymptotic_diagnostics(half, SmootherSpec(), 5, 10_000, 0.2, 0.5)
        ratio = d1.A[0] ** 2 / d0.A[0] ** 2
        assert abs(ratio - 0.5) < 0.05

    def test_lambda_and_q_invariants(self):
        model = make_model("iii")
        diag = asymptotic_diagnostics(model, SmootherSpec(), 10, 5000, 0.1,
                                      np.array([0.2, 0.5, 0.8]))
        assert (diag.lambda_n >= 1.0).all()
        assert 0.0 < diag.q <= 1.0
        np.testing.assert_allclose(diag.q, 1.0 - 1.0 / 24.0, rtol=1e-9)
        assert (diag.A >= 0).all() and (diag.A1 >= 0).all()

    @pytest.mark.parametrize("nu, n", [(0, 1000), (-2, 1000), (5, 0)])
    def test_bad_nu_or_n_rejected(self, nu, n):
        with pytest.raises(EstimationError, match="nu >= 1 and N >= 1"):
            asymptotic_diagnostics(make_model("iii"), SmootherSpec(), nu, n, 0.2, 0.5)

    def test_zero_density_rejected(self):
        model = make_model("iii")  # uniform on [0, 1]
        with pytest.raises(EstimationError, match="density"):
            asymptotic_diagnostics(model, SmootherSpec(), 5, 1000, 0.1, 1.5)

    def test_data_mode_pilot_diagnostics(self):
        model = make_model("iii")
        raw = sample_replicate(model, 5000, seed_stream(404))
        pooled = pool_homogeneous(raw, 5)
        diag = data_mode_diagnostics(pooled, SmootherSpec(), 0.2, np.array([0.3, 0.5, 0.7]))
        truth = asymptotic_diagnostics(model, SmootherSpec(), 5, 5000, 0.2,
                                       np.array([0.3, 0.5, 0.7]))
        assert 0.0 < diag.q <= 1.0
        # pilot-based A should land within a factor 2 of the analytic value
        np.testing.assert_allclose(diag.A, truth.A, rtol=1.0)

    def test_data_mode_refuses_a_point_where_the_pilot_fit_fails(self):
        # at h = 0.02 the derivative fit fails at x = 1.45, 1.925 and 2.4 and
        # the pilot fit at the last two; their A, B and B1 were once read as 0
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 400)
        pooled = pool_homogeneous(RawDataset(x, rng.random(400) < 0.05 + 0.1 * x), 5)
        with pytest.raises(EstimationError, match=r"the pilot fit fails at x = 1\.45:"):
            data_mode_diagnostics(pooled, SmootherSpec(), 0.02, np.linspace(0.5, 2.4, 5))

    def test_data_mode_memory_stays_bounded(self):
        # the density once built one dense (grid x N) kernel matrix: 123 MB
        # at N = 4e4 and a 201-point grid, growing linearly in N
        raw = sample_replicate(make_model("iii"), 40_000, seed_stream(405))
        pooled = pool_homogeneous(raw, 5)
        x = np.linspace(0.05, 0.95, 201)
        tracemalloc.start()
        try:
            data_mode_diagnostics(pooled, SmootherSpec(), 0.1, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def unequal_contiguous_pools(tmp_path) -> PooledDataset:
    """Contiguous pools of 2, then 5 (48 times), then 3, read from a pooled CSV."""
    rng = np.random.default_rng(406)
    sizes = [2] + [5] * 48 + [3]
    x = np.sort(rng.uniform(0, 1, sum(sizes)))
    y = rng.random(len(sizes)) < 0.3
    gid = np.repeat(np.arange(len(sizes)), sizes)
    path = tmp_path / "pools.csv"
    path.write_text("group_id,x1,group_result\n" + "".join(
        f"g{g},{v!r},{int(y[g])}\n" for g, v in zip(gid, x.tolist())))
    pooled = ingest_pooled_csv(path)
    assert pooled.strategy == "homogeneous_sorted"
    assert pooled.sizes().tolist() == sizes
    return pooled


@pytest.mark.parametrize("estimate", [
    lambda pooled: estimate_dh(pooled, SPECS[0], np.array([0.5])),
    lambda pooled: data_mode_diagnostics(pooled, SmootherSpec(), 0.2, np.array([0.5])),
    lambda pooled: estimate_dm(replace(pooled, strategy="generic"), SPECS[0],
                               np.array([0.5])),
], ids=["dh", "diagnostics", "dm"])
def test_unequal_pools_rejected_by_every_equal_size_estimator(estimate, tmp_path):
    pooled = unequal_contiguous_pools(tmp_path)
    with pytest.raises(EstimationError, match=r"group size varies across pools \(2 to 5\)"):
        estimate(pooled)
