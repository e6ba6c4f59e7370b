"""Kernel and local-polynomial engine tests, oracle values first."""

import warnings

import numpy as np
import pytest
from scipy import integrate

from poolreg import (
    BandwidthError,
    BandwidthRule,
    EPANECHNIKOV,
    GAUSSIAN,
    SmootherSpec,
    UNIFORM,
    effective_weight_moments,
    kernel,
    local_poly_fit,
    make_model,
    pool_homogeneous,
    sample_replicate,
    seed_stream,
    select_bandwidth,
)
from poolreg import smoothing
from poolreg.smoothing import _grid_fit_1d, grid_fit_with_widening, loo_cv_score

ALL_KERNELS = [GAUSSIAN, EPANECHNIKOV, UNIFORM]


def design_of(u, z):
    return np.column_stack([np.asarray(u, float), np.asarray(z, float)])


class TestKernels:
    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_density_normalized(self, kern):
        lim = 10.0 if not np.isfinite(kern.support_radius) else kern.support_radius
        total, _ = integrate.quad(lambda t: float(kern.pdf(t)), -lim, lim)
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_symmetric_nonnegative(self, kern):
        u = np.linspace(-5, 5, 401)
        np.testing.assert_allclose(kern.pdf(u), kern.pdf(-u))
        assert (kern.pdf(u) >= 0).all()

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_moment_constants_match_quadrature(self, kern):
        lim = 10.0 if not np.isfinite(kern.support_radius) else kern.support_radius
        b, _ = integrate.quad(lambda t: t * t * float(kern.pdf(t)), -lim, lim)
        r, _ = integrate.quad(lambda t: float(kern.pdf(t)) ** 2, -lim, lim)
        assert abs(b - kern.second_moment) < 1e-9
        assert abs(r - kern.l2_norm) < 1e-9

    def test_lookup_by_name(self):
        assert kernel("gaussian") is GAUSSIAN
        with pytest.raises(ValueError):
            kernel("triangular")


class TestLocalPolyFit:
    def test_linear_reproduction_exact(self):
        u = np.array([0.0, 0.4, 1.1, 2.0])
        z = 2.0 * u + 1.0
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.7))
        for x in (-0.5, 0.3, 1.0, 2.5):
            fit = local_poly_fit(design_of(u, z), spec, x)
            assert fit.condition_flag == "ok"
            assert abs(fit.value - (2.0 * x + 1.0)) < 1e-10

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_polynomial_reproduction_property(self, kern, degree):
        # any polynomial of degree <= l is reproduced exactly (relative 1e-10)
        rng = np.random.default_rng(101 + degree)
        for _ in range(5):
            u = np.sort(rng.uniform(-1.0, 1.0, 60))
            coef = rng.uniform(-2.0, 2.0, degree + 1)
            z = np.polyval(coef, u)
            spec = SmootherSpec(kern, degree, BandwidthRule.fixed(0.5))
            x = float(rng.uniform(-0.8, 0.8))
            fit = local_poly_fit(design_of(u, z), spec, x)
            assert fit.condition_flag == "ok"
            truth = np.polyval(coef, x)
            assert abs(fit.value - truth) <= 1e-10 * max(1.0, abs(truth))

    def test_constant_reproduction(self):
        u = np.linspace(0, 1, 17)
        for degree in (1, 2):
            spec = SmootherSpec(GAUSSIAN, degree, BandwidthRule.fixed(0.3))
            fit = local_poly_fit(design_of(u, np.full(17, 3.25)), spec, 0.4)
            assert abs(fit.value - 3.25) < 1e-12

    def test_two_by_two_normal_equations_oracle(self):
        # independent closed-form solve of the weighted normal equations for
        # the local linear fit at x=1 on {(0,0),(1,1),(2,0)}, gaussian, h=1
        u = np.array([0.0, 1.0, 2.0])
        z = np.array([0.0, 1.0, 0.0])
        x, h = 1.0, 1.0
        w = np.exp(-0.5 * ((u - x) / h) ** 2) / np.sqrt(2 * np.pi)
        s0, s1, s2 = w.sum(), (w * (u - x)).sum(), (w * (u - x) ** 2).sum()
        t0, t1 = (w * z).sum(), (w * z * (u - x)).sum()
        det = s0 * s2 - s1 * s1
        oracle = (s2 * t0 - s1 * t1) / det

        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(h))
        fit = local_poly_fit(design_of(u, z), spec, x)
        assert abs(fit.value - oracle) < 1e-10
        # frozen value of the oracle itself
        assert abs(oracle - 0.45186276187760605) < 1e-12

    def test_linearity_of_fit(self):
        rng = np.random.default_rng(7)
        u = np.sort(rng.uniform(0, 1, 50))
        z = rng.normal(size=50)
        spec = SmootherSpec(GAUSSIAN, 2, BandwidthRule.fixed(0.25))
        fit = local_poly_fit(design_of(u, z), spec, 0.5)
        assert abs(np.dot(fit.effective_weights, z) - fit.value) < 1e-12

    def test_weights_sum_to_one_and_count(self):
        rng = np.random.default_rng(8)
        u = np.sort(rng.uniform(0, 1, 30))
        z = rng.normal(size=30)
        spec = SmootherSpec(EPANECHNIKOV, 1, BandwidthRule.fixed(0.2))
        fit = local_poly_fit(design_of(u, z), spec, 0.5)
        assert fit.condition_flag == "ok"
        assert abs(fit.effective_weights.sum() - 1.0) < 1e-10
        assert fit.local_count >= spec.degree + 1

    def test_locality_compact_kernels(self):
        # weights vanish beyond support_radius * h for compact kernels
        rng = np.random.default_rng(9)
        u = np.sort(rng.uniform(0, 2, 80))
        z = rng.normal(size=80)
        h = 0.15
        for kern in (EPANECHNIKOV, UNIFORM):
            spec = SmootherSpec(kern, 1, BandwidthRule.fixed(h))
            fit = local_poly_fit(design_of(u, z), spec, 1.0)
            far = np.abs(u - 1.0) > kern.support_radius * h
            assert np.all(fit.effective_weights[far] == 0.0)

    def test_failure_when_window_underpopulated(self):
        u = np.array([0.0, 1.0, 2.0])
        z = np.array([0.0, 1.0, 0.0])
        spec = SmootherSpec(EPANECHNIKOV, 1, BandwidthRule.fixed(0.01))
        fit = local_poly_fit(design_of(u, z), spec, 0.5)
        assert fit.condition_flag == "failed"
        assert fit.value is None and fit.effective_weights is None

    def test_failure_on_duplicate_design_points(self):
        # two distinct points cannot support a local quadratic: singular moments
        u = np.array([0.5, 0.5, 0.5, 1.5, 1.5])
        z = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        spec = SmootherSpec(GAUSSIAN, 2, BandwidthRule.fixed(0.5))
        fit = local_poly_fit(design_of(u, z), spec, 1.0)
        assert fit.condition_flag == "failed"

    def test_widening_rescues_a_failed_point(self):
        # no design point lies within 0.04 of x = 0.55; at 0.08 two do
        u = np.linspace(0.0, 1.0, 11)
        z = np.random.default_rng(14).normal(size=11)
        spec = SmootherSpec(EPANECHNIKOV, 1, BandwidthRule.fixed(0.04))
        assert local_poly_fit(design_of(u, z), spec, 0.55).condition_flag == "failed"

        fit = local_poly_fit(design_of(u, z), spec, 0.55, widen_on_failure=True)
        at_wide = local_poly_fit(design_of(u, z), spec, 0.55, h=0.08)
        assert fit.condition_flag == at_wide.condition_flag == "ok"
        assert fit.value == at_wide.value
        assert abs(fit.value - 0.5 * (z[5] + z[6])) < 1e-12
        assert abs(fit.effective_weights.sum() - 1.0) < 1e-12
        assert abs(np.dot(fit.effective_weights, z) - fit.value) < 1e-12
        np.testing.assert_array_equal(fit.effective_weights, at_wide.effective_weights)

    def test_bandwidth_must_be_resolved(self):
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv())
        with pytest.raises(BandwidthError):
            local_poly_fit(design_of([0, 1, 2], [0, 1, 0]), spec, 1.0)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            SmootherSpec(GAUSSIAN, 0, BandwidthRule.fixed(1.0))


class TestEffectiveWeightMoments:
    def test_k0_is_one(self):
        u = np.linspace(0, 1, 25)
        rng = np.random.default_rng(11)
        z = rng.normal(size=25)
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3))
        fit = local_poly_fit(design_of(u, z), spec, 0.4)
        assert abs(effective_weight_moments(fit, design_of(u, z), 0.4, 0) - 1.0) < 1e-12

    def test_first_moment_annihilated_degree_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = np.sort(rng.uniform(-2, 2, 40))
            z = rng.normal(size=40)
            x = float(rng.uniform(-1.5, 1.5))
            spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.5))
            fit = local_poly_fit(design_of(u, z), spec, x)
            assert abs(effective_weight_moments(fit, design_of(u, z), x, 1)) < 1e-10

    def test_second_moment_annihilated_degree_two(self):
        # verified against a direct solve on a random design
        rng = np.random.default_rng(13)
        u = np.sort(rng.uniform(0, 1, 60))
        z = rng.normal(size=60)
        spec = SmootherSpec(GAUSSIAN, 2, BandwidthRule.fixed(0.25))
        x = 0.45
        fit = local_poly_fit(design_of(u, z), spec, x)
        assert abs(effective_weight_moments(fit, design_of(u, z), x, 2)) < 1e-10

        # direct verification: weights orthogonal to the quadratic basis imply
        # the fit of z_j = (u_j - x)^2 at x is zero
        fit_sq = local_poly_fit(design_of(u, (u - x) ** 2), spec, x)
        assert abs(fit_sq.value) < 1e-10

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_delta_k0_up_to_degree(self, degree):
        rng = np.random.default_rng(20 + degree)
        u = np.sort(rng.uniform(0, 1, 80))
        z = rng.normal(size=80)
        spec = SmootherSpec(GAUSSIAN, degree, BandwidthRule.fixed(0.3))
        fit = local_poly_fit(design_of(u, z), spec, 0.55)
        for k in range(degree + 1):
            want = 1.0 if k == 0 else 0.0
            got = effective_weight_moments(fit, design_of(u, z), 0.55, k)
            assert abs(got - want) < 1e-10

    def test_requires_ok_fit(self):
        u = np.array([0.0, 1.0, 2.0])
        spec = SmootherSpec(EPANECHNIKOV, 1, BandwidthRule.fixed(0.01))
        fit = local_poly_fit(design_of(u, u), spec, 0.5)
        with pytest.raises(ValueError):
            effective_weight_moments(fit, design_of(u, u), 0.5, 1)


class TestGridFitConsistency:
    def test_grid_path_matches_pointwise_path(self):
        rng = np.random.default_rng(17)
        u = np.sort(rng.uniform(0, 1, 120))
        z = rng.normal(size=120)
        xs = np.linspace(0.05, 0.95, 31)
        res = _grid_fit_1d(u, z, 1, GAUSSIAN, 0.1, xs)
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.1))
        for i, x in enumerate(xs):
            fit = local_poly_fit(design_of(u, z), spec, float(x))
            assert abs(res["value"][i] - fit.value) < 1e-13

    def test_widening_copies_every_key_of_the_retry(self):
        u = np.linspace(0.0, 1.0, 11)
        z = np.random.default_rng(15).normal(size=11)
        # at h = 0.06 only x = 0.55 has two design points in its window
        xs = np.array([0.55, 0.5, 0.0])
        res = grid_fit_with_widening(u, z, 1, EPANECHNIKOV, 0.06, xs, True)
        at_h = _grid_fit_1d(u, z, 1, EPANECHNIKOV, 0.06, xs)
        at_wide = _grid_fit_1d(u, z, 1, EPANECHNIKOV, 0.12, xs[1:])
        np.testing.assert_array_equal(at_h["flag"], [0, 2, 2])
        np.testing.assert_array_equal(res["h"], [0.06, 0.12, 0.12])
        assert set(res) == set(at_h) | {"h"}
        for key in at_h:
            np.testing.assert_array_equal(res[key][0], at_h[key][0])
            np.testing.assert_array_equal(res[key][1:], at_wide[key])


    def test_tiny_bandwidth_fails_without_overflow_warning(self):
        # near-singular local quadratics overflow in back-substitution; the
        # points are already flagged failed, so no RuntimeWarning may escape
        rng = np.random.default_rng(0)
        u = np.sort(rng.uniform(0, 1, 200))
        z = (rng.random(200) < 0.5).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = _grid_fit_1d(u, z, 2, GAUSSIAN, 3e-5, np.linspace(0, 1, 101))
        assert (res["flag"] == 2).all()


class TestNormalReferenceDensity:
    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_row_blocks_match_dense_formula_exactly(self, kern, monkeypatch):
        rng = np.random.default_rng(23)
        sample = rng.normal(size=300)
        x = np.linspace(-3.0, 3.0, 41)
        sd = float(np.std(sample))
        iqr = float(np.quantile(sample, 0.75) - np.quantile(sample, 0.25))
        bw = max(0.9 * min(sd, iqr / 1.34) * sample.shape[0] ** (-0.2), 1e-12)
        dense = kern.pdf((x[:, None] - sample[None, :]) / bw).mean(axis=1) / bw
        # one row per block, 7 rows per block (41 = 5 * 7 + 6), one block
        for block in (1, 7 * 300, smoothing._DENSITY_BLOCK):
            monkeypatch.setattr(smoothing, "_DENSITY_BLOCK", block)
            got = smoothing._normal_reference_density(sample, x, kern)
            np.testing.assert_array_equal(got, dense)


class TestSelectBandwidth:
    def test_singleton_candidate(self):
        rng = np.random.default_rng(31)
        u = np.sort(rng.uniform(0, 1, 40))
        z = rng.normal(size=40)
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv(candidates=[0.3]))
        assert select_bandwidth(design_of(u, z), spec) == 0.3

    def test_noiseless_linear_ties_break_to_smallest(self):
        u = np.linspace(0, 1, 30)
        z = 3.0 * u - 0.5
        cands = [0.1, 0.2, 0.4]
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv(candidates=cands))
        # exact reproduction makes every candidate's CV score vanish
        for h in cands:
            assert loo_cv_score(u, z, 1, GAUSSIAN, h, np.arange(30)) < 1e-25
        assert select_bandwidth(design_of(u, z), spec) == 0.1

    def test_cv_pin_model_iii_pooled_design(self):
        # self-oracle regression pin, computed once and frozen
        model = make_model("iii")
        raw = sample_replicate(model, 5000, seed_stream(1))
        pooled = pool_homogeneous(raw, 5)
        design = np.column_stack([pooled.centers(), pooled.z_star()])
        h = select_bandwidth(design, SmootherSpec(), nu=5, n_raw=5000)
        assert abs(h - 0.1303666921296067) < 1e-12

    def test_plugin_pin_model_iii_pooled_design(self):
        model = make_model("iii")
        raw = sample_replicate(model, 5000, seed_stream(1))
        pooled = pool_homogeneous(raw, 5)
        design = np.column_stack([pooled.centers(), pooled.z_star()])
        spec = SmootherSpec(bandwidth=BandwidthRule.plugin())
        h = select_bandwidth(design, spec, nu=5, n_raw=5000)
        assert abs(h - 0.18970545212683687) < 1e-12

    def test_all_candidates_failing_names_usable_h(self):
        u = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        z = np.zeros(6)
        spec = SmootherSpec(
            EPANECHNIKOV, 1, BandwidthRule.cv(candidates=[0.01, 0.02])
        )
        with pytest.raises(BandwidthError, match="smallest usable h"):
            select_bandwidth(design_of(u, z), spec)

    def test_requires_enough_points(self):
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv(candidates=[0.3]))
        with pytest.raises(BandwidthError):
            select_bandwidth(design_of([0, 1, 2], [0, 1, 0]), spec)

    def test_fixed_rule_rejected(self):
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3))
        with pytest.raises(BandwidthError):
            select_bandwidth(design_of(np.arange(8.0), np.arange(8.0)), spec)


class TestBandwidthRuleValidation:
    def test_fixed_needs_positive(self):
        with pytest.raises(BandwidthError):
            BandwidthRule.fixed(0.0)

    def test_grid_nonempty_positive(self):
        with pytest.raises(BandwidthError):
            BandwidthRule.cv(candidates=[])
        with pytest.raises(BandwidthError):
            BandwidthRule.cv(candidates=[0.1, -0.2])
