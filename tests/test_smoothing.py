"""Kernel and local-polynomial engine tests, oracle values first."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from poolreg import (
    BandwidthError,
    BandwidthRule,
    EPANECHNIKOV,
    GAUSSIAN,
    RawDataset,
    SmootherSpec,
    UNIFORM,
    effective_weight_moments,
    kernel,
    local_poly_fit,
    make_model,
    pool_binned,
    pool_homogeneous,
    sample_replicate,
    seed_stream,
    select_bandwidth,
)
from poolreg import smoothing
from poolreg.estimators import estimate_ll
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

    def test_a_fit_with_a_small_pivot_is_ok_and_keeps_its_value(self):
        # far outside the design the moment matrix's relative pivot is small
        # but above PIVOT_REL_TOL: the fit is "ok", the only other state "failed"
        u = np.linspace(0.0, 1.0, 21)
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.05))
        fit = local_poly_fit(design_of(u, np.sin(3.0 * u)), spec, 1.5)
        assert fit.condition_flag == "ok"
        assert fit.value == -1.3224587265285663

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
        np.testing.assert_array_equal(np.isnan(at_h["value"]), [False, True, True])
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
        assert np.isnan(res["value"]).all()


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

    def test_plugin_refuses_a_design_whose_central_90_percent_is_one_value(self):
        # every risk integrated over [q05, q95] = [0.5, 0.5] is 0, so argmin
        # would take the smallest candidate whatever the data
        rng = np.random.default_rng(3)
        u = np.where(rng.random(2000) < 0.96, 0.5, rng.uniform(size=2000))
        design = design_of(u, rng.random(2000) < 0.7)
        plugin = SmootherSpec(bandwidth=BandwidthRule.plugin())
        with pytest.raises(BandwidthError, match="no interval to integrate"):
            select_bandwidth(design, plugin)
        assert select_bandwidth(design, SmootherSpec()) > 0.0

    def test_plugin_refuses_a_pilot_fit_that_fails(self):
        # the design has a gap over [0.1, 0.9], wider than the uniform
        # kernel's window at the pilot's 1.5 h_cv: the pilot fit fails there.
        # Its failed points were once read as p = 0, and failed derivatives
        # as 0, and their risk integrated
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.uniform(0, 0.1, 300), rng.uniform(0.9, 1, 300)])
        z = (rng.random(600) < 0.8).astype(float)
        spec = SmootherSpec(UNIFORM, 1, BandwidthRule.plugin())
        h_cv = 0.05
        xg = np.linspace(*np.quantile(u, [0.05, 0.95]), 128)
        failed = np.isnan(_grid_fit_1d(u, z, 1, UNIFORM, 1.5 * h_cv, xg)["value"])
        first = f"{xg[failed][0]:.6g}"
        assert 0.1 < float(first) < 0.9
        with pytest.raises(BandwidthError, match=f"the pilot fit fails at x = {first}: "):
            smoothing._plugin_bandwidth(u, z, spec, np.array([0.05, 0.1, 0.2]), h_cv,
                                        1, 600)

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

    def test_bandwidths_must_be_finite(self):
        with pytest.raises(BandwidthError, match="finite"):
            BandwidthRule.fixed(np.inf)
        with pytest.raises(BandwidthError, match="finite"):
            BandwidthRule.cv(candidates=[0.1, np.inf])
        with pytest.raises(BandwidthError, match="finite"):
            BandwidthRule.plugin(candidates=[np.inf])


# ---------------------------------------------------------------------------
# the CV screen returns the exhaustive search's choice


def _exhaustive_choice(u, z, spec, cands, scores, nu, n_raw):
    """select_bandwidth's choice from the exact score of every candidate."""
    try:
        h_cv = smoothing._cv_choice(cands, scores, z)
    except BandwidthError as exc:
        usable = smoothing._min_usable_h(u, spec.degree, spec.kernel)
        raise BandwidthError(f"{exc}; smallest usable h is about {usable:.6g}") from None
    if spec.bandwidth.mode == "cross_validation":
        return h_cv
    return smoothing._plugin_bandwidth(
        u, z, spec, cands, h_cv, nu, n_raw, h_cv <= cands[1]
    )


@st.composite
def screen_cases(draw):
    """A design above the screen's size cut-off, a response on it and a smoother."""
    J = draw(st.integers(smoothing._SCREEN_MIN_POINTS,
                         4 * smoothing._SCREEN_MIN_POINTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["uniform", "skewed", "clustered", "ties"]))
    if layout == "uniform":
        u = rng.uniform(size=J)
    elif layout == "skewed":
        u = rng.beta(0.6, 4.0, size=J)
    elif layout == "clustered":
        k = draw(st.integers(2, 5))
        centers = rng.uniform(size=k)
        spread = 10.0 ** rng.uniform(-3.5, -1.5, size=k)
        pick = rng.integers(0, k, size=J)
        u = centers[pick] + spread[pick] * rng.normal(size=J)
    else:  # 2 to 5 distinct x values
        k = draw(st.integers(2, 5))
        pick = rng.integers(0, k, size=J)
        pick[:k] = np.arange(k)
        u = rng.uniform(size=k)[pick]
    v = (u - u.min()) / np.ptp(u)
    degree = draw(st.integers(1, 3))
    response = draw(st.sampled_from(
        ["rare", "even", "noiseless", "polynomial", "near_noiseless"]
    ))
    if response == "rare":  # binary, p near 0
        z = (rng.random(J) < 0.005 + 0.03 * v).astype(float)
    elif response == "even":  # binary, p near 0.5
        z = (rng.random(J) < 0.5 + 0.1 * np.sin(5.0 * v)).astype(float)
    elif response == "noiseless":
        z = np.sin(2.0 * np.pi * v)
    elif response == "polynomial":  # reproduced exactly: every score ties
        z = np.polyval(rng.normal(size=degree + 1), v)
    else:
        z = np.sin(2.0 * np.pi * v) + 10.0 ** rng.uniform(-6, -3) * rng.normal(size=J)
    rule = draw(st.sampled_from([BandwidthRule.cv(), BandwidthRule.plugin()]))
    spec = SmootherSpec(draw(st.sampled_from(ALL_KERNELS)), degree, rule)
    return u, z, spec


def _tied_scores_case():
    """A noiseless quadratic z: every exact score is zero to rounding, a tie
    that goes to the smallest h, while the binned scores fall as h grows."""
    u = np.random.default_rng(1).uniform(size=400)
    return u, 0.5 + 2.0 * u - 3.0 * u * u, SmootherSpec(GAUSSIAN, 2, BandwidthRule.cv())


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(screen_cases())
@example(_tied_scores_case())
def test_screened_search_returns_the_exhaustive_choice(case):
    """select_bandwidth chooses what scoring every candidate exactly chooses.

    Designs are uniform, skewed, clustered or on 2 to 5 distinct values; z is
    binary with p near 0 or near 0.5, smooth and noiseless (a polynomial of
    the fit's degree makes every score a tie), or smooth with a little noise.
    The same BandwidthError is raised where every candidate fails.  Where the
    binned and the exact score are both finite, the screen's error bound holds
    with the factor 8 to spare that its constant was set with.
    """
    u, z, spec = case
    cands = smoothing.default_candidates(u, spec.degree)
    idx = smoothing._cv_eval_indices(
        u, z, 800 if spec.bandwidth.mode == "cross_validation" else 300
    )
    scores = np.array(
        [loo_cv_score(u, z, spec.degree, spec.kernel, h, idx) for h in cands]
    )
    root, lower = smoothing._screen_bounds(u, z, spec.degree, spec.kernel, cands, idx)
    both = np.isfinite(scores) & np.isfinite(lower)
    error = np.abs(root[both] - np.sqrt(scores[both]))
    assert (error <= (root[both] - lower[both]) / 8).all()

    design = design_of(u, z)
    try:
        want = _exhaustive_choice(u, z, spec, cands, scores, 5, 5 * u.size)
    except BandwidthError as exc:
        with pytest.raises(BandwidthError) as got:
            select_bandwidth(design, spec, nu=5, n_raw=5 * u.size)
        assert str(got.value) == str(exc)
        return
    assert select_bandwidth(design, spec, nu=5, n_raw=5 * u.size) == want


@pytest.mark.parametrize("d, degree, kern", [
    (1, 1, GAUSSIAN), (1, 2, EPANECHNIKOV), (1, 3, GAUSSIAN), (1, 3, UNIFORM),
    (2, 1, GAUSSIAN), (2, 1, EPANECHNIKOV),
])
def test_shared_scoring_step_reproduces_the_exact_loo_score(d, degree, kern):
    """The binned screen scores through ``_screen_scores``.  Given the exact
    engine's moments at the scoring points, each point its own node (lo == hi,
    w = 0), and a zero error scale, its root squared is ``_loo_score`` of the
    exact fit to rounding and its lower bound is its root; a candidate whose
    fits fail (h = 1e-3) is unusable in both."""
    rng = np.random.default_rng(10 * d + degree)
    u = rng.uniform(size=(300, d))
    z = (rng.random(300) < 0.2 + 0.5 * u[:, 0]).astype(float)
    picks = np.arange(20, 280, 7)
    cands = np.array([1e-3, 0.15, 0.3, 0.6])
    S, r, _ = (np.stack(m) for m in zip(*(
        smoothing._local_moments(u, z, degree, kern, h, u[picks]) for h in cands)))
    own = np.arange(picks.size)
    k0 = kern.at_zero if d == 1 else 1.0  # radial_profile(0) == 1
    root, lower = smoothing._screen_scores(S, r, k0, z[picks], own, own, 0.0, 0.0)
    if d == 1:
        fits = [_grid_fit_1d(u[:, 0], z, degree, kern, h, u[picks, 0]) for h in cands]
    else:
        fits = [smoothing.grid_fit_local_linear_multi(u, z, kern, h, u[picks])
                for h in cands]
    exact = np.array([smoothing._loo_score(fit, z[picks]) for fit in fits])
    assert np.isinf(exact[0]) and np.isfinite(exact[1:]).all()
    assert root[0] == np.inf and lower[0] == -np.inf
    np.testing.assert_allclose(root[1:] ** 2, exact[1:], rtol=1e-12, atol=0)
    np.testing.assert_array_equal(lower[1:], root[1:])


# ---------------------------------------------------------------------------
# tiny designs and heavy ties: pinned outcomes of the LL estimator


_TINY = {  # name: (x, y, degree)
    "J = 2(degree+1), degree 1": ([0.1, 0.35, 0.6, 0.9], [0, 1, 0, 1], 1),
    "J = 2(degree+1), degree 2": ([0.05, 0.2, 0.45, 0.5, 0.8, 0.95],
                                  [0, 0, 1, 0, 1, 1], 2),
    "8 rows on 2 x values": ([0.2] * 4 + [0.7] * 4, [0, 1, 0, 0, 1, 1, 0, 1], 1),
    "J < 2(degree+1)": ([0.1, 0.5, 0.9], [0, 1, 1], 1),
}
_FOUR = [0.15802569663193278, 0.4311910184889179, 0.48592148395341606,
         0.5815913556181669, 0.8963776309903306]
_SIX = [0.0, 0.23318550155300088, 0.5204694544918355, 0.7994676885875784, 1.0]
_TIES = [0.25, 0.375, 0.5, 0.625, 0.75]
_TINY_PINS = [  # (case, rule, h or the BandwidthError text, p_hat, clamp flags)
    ("J = 2(degree+1), degree 1", "cv", 0.26666666666666666, _FOUR, [0] * 5),
    ("J = 2(degree+1), degree 1", "plugin", 0.26666666666666666, _FOUR, [0] * 5),
    ("J = 2(degree+1), degree 1", "fixed", 0.3,
     [0.18985726632602817, 0.414024688691453, 0.4925187332873627,
      0.5995485238561361, 0.8642387769942036], [0] * 5),
    ("J = 2(degree+1), degree 2", "cv", 0.3, _SIX, [1, 0, 0, 0, 2]),
    ("J = 2(degree+1), degree 2", "plugin", 0.3, _SIX, [1, 0, 0, 0, 2]),
    ("J = 2(degree+1), degree 2", "fixed", 0.3, _SIX, [1, 0, 0, 0, 2]),
    ("8 rows on 2 x values", "cv", 0.06635119509224952, _TIES, [0] * 5),
    ("8 rows on 2 x values", "plugin", 0.16666666666666666, _TIES, [0] * 5),
    ("8 rows on 2 x values", "fixed", 0.3, _TIES, [0] * 5),
    ("J < 2(degree+1)", "cv", "need at least 4 design points, got 3", None, None),
    ("J < 2(degree+1)", "plugin", "need at least 4 design points, got 3", None, None),
    ("J < 2(degree+1)", "fixed", 0.3,
     [0.021864153054238, 0.4541985862434039, 0.7743898887159483,
      0.9541985862434038, 1.0], [0, 0, 0, 0, 2]),
]


@pytest.mark.parametrize("case, rule, h, p_hat, clamped", _TINY_PINS)
def test_tiny_and_tied_designs_keep_their_outcome(case, rule, h, p_hat, clamped):
    """Self-oracle pins, computed once and frozen, on designs the screen leaves exact.

    Every grid point fits; the two x values give the line through their means.
    """
    x, y, degree = _TINY[case]
    raw = RawDataset(np.array(x), np.array(y, dtype=np.int8))
    bandwidth = {"cv": BandwidthRule.cv(), "plugin": BandwidthRule.plugin(),
                 "fixed": BandwidthRule.fixed(0.3)}[rule]
    spec = SmootherSpec(GAUSSIAN, degree, bandwidth)
    grid = np.linspace(min(x), max(x), 5)
    if isinstance(h, str):
        with pytest.raises(BandwidthError, match=h):
            estimate_ll(raw, spec, grid)
        return
    res = estimate_ll(raw, spec, grid)
    assert abs(res.bandwidth_used - h) < 1e-12
    np.testing.assert_allclose(res.p_hat, p_hat, rtol=0, atol=1e-10)
    assert res.failures.tolist() == [0] * 5
    assert res.clamp_flags.tolist() == clamped


# ---------------------------------------------------------------------------
# the d-variate CV search


def _binned_design(seed, d, bins, nu, law="uniform"):
    """Centres and z* of ``nu * bins^d`` points on [0, 1]^d pooled into bins.

    p(x) = 0.02 + 0.1 x_1 x_2, as in the benchmark's binned_2d workload.
    ``law`` "beta" draws each axis from Beta(2, 3), leaving the far corner's
    bins empty; nu < 1 leaves most bins empty.
    """
    rng = np.random.default_rng(seed)
    N = int(round(nu * bins**d))
    x = rng.uniform(size=(N, d)) if law == "uniform" else rng.beta(2.0, 3.0, (N, d))
    y = (rng.random(N) < 0.02 + 0.1 * x[:, 0] * x[:, 1]).astype(np.int8)
    pooled = pool_binned(RawDataset(x, y), N / bins**d)
    return pooled.centers(), pooled.z_star()


_MULTI_PINS = [  # (seed, d, bins, nu, law, kernel, h)
    (11, 2, 70, 10, "uniform", GAUSSIAN, 0.2925443542330829),
    (17, 2, 70, 10, "uniform", GAUSSIAN, 0.1030701844697112),
    (15, 3, 14, 0.5, "beta", GAUSSIAN, 0.16357866260496293),
    (21, 2, 40, 10, "beta", EPANECHNIKOV, 0.13232785880900175),
]


@pytest.mark.parametrize("seed, d, bins, nu, law, kern, h", _MULTI_PINS)
def test_cv_pin_binned_designs(seed, d, bins, nu, law, kern, h):
    """Self-oracle pins of select_bandwidth_multi, computed once and frozen.

    Two 70 x 70 designs built like the binned_2d workload (mean occupancy 10),
    a sparse d = 3 design with most bins empty and an epanechnikov search.
    """
    centers, z = _binned_design(seed, d, bins, nu, law)
    got = smoothing.select_bandwidth_multi(centers, z, kern, BandwidthRule.cv())
    assert abs(got - h) < 1e-12


@pytest.mark.parametrize("candidates", [None, [0.1, 0.2]])
def test_identical_design_points_are_refused_before_scoring(candidates):
    """No h fits a polynomial through points that all share one x."""
    rule = BandwidthRule.cv(candidates)
    z = np.array([0.0, 1.0] * 4)
    with pytest.raises(BandwidthError, match="^design points are all identical$"):
        select_bandwidth(design_of([0.5] * 8, z), SmootherSpec(GAUSSIAN, 1, rule))
    with pytest.raises(BandwidthError, match="^design points are all identical$"):
        smoothing.select_bandwidth_multi(np.full((8, 2), 0.5), z, GAUSSIAN, rule)


@st.composite
def lattice_cases(draw):
    """A binned design in d = 2 or 3, a response on it, a kernel and a cv rule."""
    d = draw(st.sampled_from([2, 3]))
    bins = draw(st.integers(3, 30 if d == 2 else 10))
    occupancy = draw(st.sampled_from(["dense", "sparse", "beta"]))
    nu = {"dense": 6.0, "sparse": 0.4, "beta": 2.0}[occupancy]
    centers, z = _binned_design(draw(st.integers(0, 2**32 - 1)), d, bins, nu,
                                "beta" if occupancy == "beta" else "uniform")
    assume(np.ptp(centers, axis=0).max() > 0.0)
    if draw(st.booleans()):  # smooth z, noiseless or nearly so
        noise = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
        z = (np.sin(3.0 * centers[:, 0]) + centers[:, 1] ** 2
             + noise * np.cos(17.0 * centers.sum(axis=1)))
    rule = BandwidthRule.cv()
    if draw(st.booleans()):  # down to h where adjacent nodes' weights underflow
        logs = draw(st.lists(st.floats(np.log10(1.0 / (40 * bins)), np.log10(0.7)),
                             min_size=1, max_size=5))
        rule = BandwidthRule.cv([10.0**v for v in logs])
    return centers, z, draw(st.sampled_from(ALL_KERNELS)), rule


def _underflow_case():
    """Adjacent nodes are 30 h apart per axis: each axis factor of a diagonal
    neighbour's weight is about 1e-196, their product underflows to 0, so the
    lattice counts points the exact engine does not."""
    centers, z = _binned_design(5, 2, 10, 6.0)
    return centers, z, GAUSSIAN, BandwidthRule.cv([0.1 / 30, 0.03, 0.1, 0.3])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(lattice_cases())
@example(_underflow_case())
def test_lattice_search_returns_the_exhaustive_choice(case):
    """select_bandwidth_multi chooses what scoring every candidate exactly chooses.

    Designs are dense, sparse (most bins empty) or Beta-distributed binned
    pools in d = 2 or 3, with binary z* or smooth z; the grid is the default
    one or explicit candidates down to an h where far weights underflow.  The
    search scores each candidate once, in grid order, with ``_grid_fit_multi``.
    The oracle is ``_cv_choice`` over the exact score of every candidate, or
    the same BandwidthError; the search's scores and the exact ones are finite
    for the same candidates.
    """
    centers, z, kern, rule = case
    with mock.patch.object(smoothing, "_grid_fit_multi",
                           wraps=smoothing._grid_fit_multi) as spy, \
            mock.patch.object(smoothing, "_loo_score",
                              wraps=smoothing._loo_score) as loo:
        try:
            got = smoothing.select_bandwidth_multi(centers, z, kern, rule)
        except BandwidthError as exc:
            got = str(exc)
    cands = np.array([call.args[3] for call in spy.call_args_list])
    if rule.candidates is not None:
        np.testing.assert_array_equal(cands, sorted(rule.candidates))
    x, z_at = spy.call_args.args[4], loo.call_args.args[1]
    scores = np.array([
        smoothing._loo_score(
            smoothing.grid_fit_local_linear_multi(centers, z, kern, h, x), z_at
        )
        for h in cands
    ])
    searched = np.array([
        smoothing._loo_score(smoothing._grid_fit_multi(centers, z, kern, h, x), z_at)
        for h in cands
    ])
    np.testing.assert_array_equal(np.isfinite(searched), np.isfinite(scores))
    try:
        want = smoothing._cv_choice(cands, scores, z)
    except BandwidthError as exc:
        want = str(exc)
    assert got == want


# ---------------------------------------------------------------------------
# the d-variate fit on the lattice


def _lattice_nodes(centers, cap=600):
    """Every nonempty bin centre, and up to ``cap`` nodes of the design's
    lattice, empty bins among them."""
    axes = [np.unique(centers[:, k]) for k in range(centers.shape[1])]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    step = max(1, nodes.shape[0] // cap)
    return np.vstack([centers, nodes[::step]])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(lattice_cases(), st.floats(np.log10(1.0 / 1200), np.log10(0.7)))
@example(_underflow_case(), np.log10(0.1 / 30))
def test_lattice_fit_agrees_with_the_exact_engine(case, log_h):
    """The fit of ``grid_fit_with_widening`` on the lattice against the engine.

    The designs are the lattice search test's, with the gaussian kernel and an
    explicit h from 1/1200 to 0.7, evaluated at every nonempty bin centre and
    at lattice nodes with and without points.  Fits fail where the engine's do,
    including where far weights underflow (the example: adjacent nodes 30 h
    apart per axis), and counts are at most the engine's.  Finite values
    agree within 64 eps kappa max|z|, kappa the Frobenius condition number of
    the moment matrix; over about 1,700 random examples the largest
    difference was 12 eps kappa max|z|.
    """
    centers, z, _, _ = case
    h = 10.0**log_h
    x = _lattice_nodes(centers)
    assume(smoothing._design_lattice(centers, z, GAUSSIAN, x) is not None)
    with mock.patch.object(smoothing, "_lattice_moments",
                           wraps=smoothing._lattice_moments) as spy:
        got = smoothing._grid_fit_multi(centers, z, GAUSSIAN, h, x)
    assert spy.call_count == 1
    want = smoothing.grid_fit_local_linear_multi(centers, z, GAUSSIAN, h, x)
    assert (got["count"] <= want["count"]).all()
    # the engine can pass a fit whose weights are so small that its solve
    # overflows; the value is then not finite on both paths
    np.testing.assert_array_equal(np.isfinite(got["value"]), np.isfinite(want["value"]))
    S, _, _ = smoothing._local_moments(centers, z, 1, GAUSSIAN, h, x)
    ok = np.isfinite(want["value"])
    kappa = np.linalg.cond(S[ok], "fro")
    bound = 64.0 * np.finfo(float).eps * kappa * np.abs(z).max()
    assert (np.abs(got["value"][ok] - want["value"][ok]) <= bound).all()


def test_a_node_with_too_few_subnormal_weights_takes_the_engines_flag():
    """At the empty node (0, 1), the design points (0, 0) and (1, 1) lie 1/h
    away along one axis each and weigh about 6e-322: two weighted points,
    fewer than the d + 1 = 3 a fit needs.  Their subnormal moments round to
    a matrix whose relative pivot passes ``PIVOT_REL_TOL``, and the lattice's
    lower count, 0, cannot settle the count, so the engine fits the node and
    fails it.  Ten copies of a far point make the lattice the cheaper fit."""
    centers = np.array([[0.0, 0.0], [1.0, 1.0]] + [[100.0, 100.0]] * 10)
    z = np.r_[1.0, 0.0, np.ones(10)]
    x = np.array([[a, b] for a in (0.0, 1.0, 100.0) for b in (0.0, 1.0, 100.0)])
    h = 0.026
    node = 1
    lattice = smoothing._design_lattice(centers, z, GAUSSIAN, x)
    assert lattice is not None
    S, r, lower = smoothing._lattice_moments(*lattice, GAUSSIAN, h)
    rel_piv = smoothing._intercept_fit(S, r, lower)[2]
    assert lower[node] == 0 and rel_piv[node] >= smoothing.PIVOT_REL_TOL
    with mock.patch.object(smoothing, "grid_fit_local_linear_multi",
                           wraps=smoothing.grid_fit_local_linear_multi) as spy:
        got = smoothing._grid_fit_multi(centers, z, GAUSSIAN, h, x)
    want = smoothing.grid_fit_local_linear_multi(centers, z, GAUSSIAN, h, x)
    assert want["count"][node] == 2 and np.isnan(want["value"][node])
    np.testing.assert_array_equal(np.isnan(got["value"]), np.isnan(want["value"]))
    assert spy.call_count == 1
    assert (spy.call_args.args[4] == x[node]).all(axis=1).any()


def test_widening_on_the_lattice_matches_the_engine():
    """Points that fail at h and are rescued at 2h or 4h take the engine's h and failures.

    h is a tenth of the bin width: in a sparse 20 x 20 design every centre
    fails, most are rescued at 2h and isolated ones only at 4h.  The first
    fit and the first retry run on the lattice.
    """
    centers, z = _binned_design(3, 2, 20, 0.6)
    h = 0.1 / 20
    with mock.patch.object(smoothing, "_lattice_moments",
                           wraps=smoothing._lattice_moments) as spy:
        got = grid_fit_with_widening(centers, z, 1, GAUSSIAN, h, centers, True)
    with mock.patch.object(smoothing, "_design_lattice", return_value=None):
        want = grid_fit_with_widening(centers, z, 1, GAUSSIAN, h, centers, True)
    assert spy.call_count >= 2
    assert set(np.unique(want["h"])) >= {2 * h, 4 * h}
    np.testing.assert_array_equal(got["h"], want["h"])
    np.testing.assert_array_equal(np.isnan(got["value"]), np.isnan(want["value"]))
    np.testing.assert_allclose(got["value"], want["value"], rtol=1e-12, atol=1e-12)


def _off_lattice_case():
    centers, z = _binned_design(7, 2, 12, 6.0)
    return centers, z, GAUSSIAN, centers + 1e-3


def _costly_lattice_case():
    # every coordinate distinct: a J x J lattice costs more than the J^2 weights
    rng = np.random.default_rng(8)
    centers = rng.uniform(size=(150, 2))
    return centers, (rng.random(150) < 0.3).astype(float), GAUSSIAN, centers


def _epanechnikov_case():
    centers, z = _binned_design(7, 2, 12, 6.0)
    return centers, z, EPANECHNIKOV, centers


@pytest.mark.parametrize("case", [_epanechnikov_case, _off_lattice_case,
                                  _costly_lattice_case])
def test_fits_the_lattice_does_not_serve_run_on_the_exact_engine(case):
    """An epanechnikov kernel, grid points off the lattice and a design whose
    lattice costs more than the engine's weights go to
    ``grid_fit_local_linear_multi`` whole, with its result bit for bit."""
    centers, z, kern, x = case()
    with mock.patch.object(smoothing, "grid_fit_local_linear_multi",
                           wraps=smoothing.grid_fit_local_linear_multi) as spy:
        got = grid_fit_with_widening(centers, z, 1, kern, 0.1, x)
    assert spy.call_count == 1
    np.testing.assert_array_equal(spy.call_args.args[4], x)
    want = smoothing.grid_fit_local_linear_multi(centers, z, kern, 0.1, x)
    assert set(got) == set(want) | {"h"}
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])
