"""Harness tests: sampling, ISE protocol, cells, rate and over-pooling runs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from poolreg import (
    BandwidthError,
    BandwidthRule,
    EPANECHNIKOV,
    EstimateResult,
    EstimationError,
    GAUSSIAN,
    RawDataset,
    UNIFORM,
    ReplicateFailed,
    SimulationSpec,
    SmootherSpec,
    constant_model,
    ise,
    make_model,
    overpooling_experiment,
    rate_experiment,
    run_cell,
    run_table,
    sample_replicate,
    seed_stream,
)
from poolreg.simulation import estimate_step, pool_step


def make_result(grid, p_hat, tag="LL", nu=1, failures=None):
    grid = np.asarray(grid, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    if failures is None:
        failures = np.zeros(grid.shape[0], dtype=np.int8)
    return EstimateResult(
        grid, p_hat, p_hat.copy(), np.zeros(grid.shape[0], dtype=np.int8),
        failures, 0.1, tag, nu,
    )


class TestSampleReplicate:
    def test_zero_prevalence_gives_no_positives(self):
        model = constant_model(0.0)
        raw = sample_replicate(model, 500, seed_stream(0))
        assert raw.responses.sum() == 0

    def test_mean_matches_integral_oracle(self):
        # E p(X) for model (iii) uniform is int_0^1 x^2/8 dx = 1/24
        model = make_model("iii")
        raw = sample_replicate(model, 100_000, seed_stream(1))
        q = 1.0 / 24.0
        se = np.sqrt(q * (1 - q) / 100_000)
        assert abs(raw.responses.mean() - q) <= 3.0 * se

    def test_fixed_seed_bitwise_identical(self):
        model = make_model("ii", law="normal")
        a = sample_replicate(model, 1000, seed_stream(7, 3, 2))
        b = sample_replicate(model, 1000, seed_stream(7, 3, 2))
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.responses, b.responses)

    def test_law_support(self):
        model = make_model("i")
        raw = sample_replicate(model, 2000, seed_stream(2))
        assert raw.covariates.min() >= -3.0 and raw.covariates.max() <= 3.0


class TestISE:
    def test_exact_curve_scores_zero(self):
        model = make_model("iii")
        grid = np.linspace(model.law.quantile(0.05), model.law.quantile(0.95), 401)
        res = make_result(grid, model.p(grid))
        assert ise(res, model) == 0.0

    def test_constant_offset_integrates_exactly(self):
        model = make_model("iii")
        a, b = model.law.quantile(0.05), model.law.quantile(0.95)
        grid = np.linspace(a, b, 401)
        c = 0.037
        res = make_result(grid, model.p(grid) + c)
        assert abs(ise(res, model) - c * c * (b - a)) < 1e-10

    def test_quadrature_error_against_closed_form(self):
        # (p_hat - p)^2 = x^2 on [0, 1] integrates to 1/3
        model = make_model("iii")
        grid = np.linspace(0.0, 1.0, 401)
        res = make_result(grid, model.p(grid) + grid)
        val = ise(res, model, quantile_band=(0.0, 1.0))
        assert abs(val - 1.0 / 3.0) < 1e-5

    def test_failed_points_interpolated(self):
        model = make_model("iii")
        grid = np.linspace(model.law.quantile(0.05), model.law.quantile(0.95), 401)
        p = np.asarray(model.p(grid))
        failures = np.zeros(401, dtype=np.int8)
        failures[100:110] = 1
        p_broken = p.copy()
        p_broken[100:110] = np.nan
        res = make_result(grid, p_broken, failures=failures)
        # interpolating the true curve's gaps leaves only tiny quadrature error
        assert ise(res, model) < 1e-9

    def test_too_many_failures_fails_replicate(self):
        model = make_model("iii")
        grid = np.linspace(model.law.quantile(0.05), model.law.quantile(0.95), 401)
        failures = np.zeros(401, dtype=np.int8)
        failures[:60] = 1  # 15% > 10%
        res = make_result(grid, np.asarray(model.p(grid)), failures=failures)
        with pytest.raises(ReplicateFailed):
            ise(res, model)

    def test_grid_must_cover_band(self):
        model = make_model("iii")
        grid = np.linspace(0.2, 0.8, 101)
        res = make_result(grid, np.asarray(model.p(grid)))
        with pytest.raises(ReplicateFailed):
            ise(res, model)

    def test_nonnegative_and_additive_over_subintervals(self):
        model = make_model("iii")
        grid = np.linspace(0.0, 1.0, 801)
        p_hat = np.asarray(model.p(grid)) + 0.02 * np.sin(3.0 * grid)
        res = make_result(grid, p_hat)
        whole = ise(res, model, quantile_band=(0.05, 0.95))
        left = ise(res, model, quantile_band=(0.05, 0.5))
        right = ise(res, model, quantile_band=(0.5, 0.95))
        assert whole >= 0 and left >= 0 and right >= 0
        assert abs(whole - (left + right)) < 1e-8


class TestRunCell:
    def spec(self, **kw):
        defaults = dict(
            model=make_model("iii"),
            n=300,
            nu=1,
            estimators=("DH", "LL"),
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.15)),
            replicates=20,
            seed=42,
        )
        defaults.update(kw)
        return SimulationSpec(**defaults)

    def test_bitwise_reproducible(self):
        a = run_cell(self.spec(), cell_index=3)
        b = run_cell(self.spec(), cell_index=3)
        assert a["DH"].med_ise_e4 == b["DH"].med_ise_e4
        assert a["DH"].iqr_ise_e4 == b["DH"].iqr_ise_e4

    def test_cell_index_changes_streams(self):
        a = run_cell(self.spec(), cell_index=0)
        b = run_cell(self.spec(), cell_index=1)
        assert a["DH"].med_ise_e4 != b["DH"].med_ise_e4

    def test_dh_equals_ll_at_nu_one(self):
        cells = run_cell(self.spec(), cell_index=0)
        assert abs(cells["DH"].med_ise_e4 - cells["LL"].med_ise_e4) < 1e-12
        assert abs(cells["DH"].iqr_ise_e4 - cells["LL"].iqr_ise_e4) < 1e-12

    def test_estimators_share_replicate_datasets(self):
        # DM pooling randomness must not perturb the sampled data: the LL cell
        # is identical whether or not DM runs alongside it
        just_ll = run_cell(self.spec(estimators=("LL",), nu=5), cell_index=2)
        both = run_cell(self.spec(estimators=("DM", "LL"), nu=5), cell_index=2)
        assert just_ll["LL"].med_ise_e4 == both["LL"].med_ise_e4

    def test_divisibility_validated(self):
        with pytest.raises(ValueError, match="divide"):
            self.spec(n=301, nu=5, estimators=("DH",))

    @pytest.mark.parametrize("nu, estimators", [
        (0, ("DH",)),
        (-5, ("DH",)),
        (0, ("DM", "LL")),
        (3, ("DH_binned",)),
        (0, ("LL",)),
    ])
    def test_bad_nu_rejected_for_pooled_estimators(self, nu, estimators):
        with pytest.raises(ValueError, match="nu must"):
            self.spec(n=200, nu=nu, estimators=estimators)

    def test_dh_binned_needs_degree_one(self):
        smoother = SmootherSpec(GAUSSIAN, 2, BandwidthRule.fixed(0.15))
        with pytest.raises(ValueError, match="local linear: it needs degree 1, got 2"):
            self.spec(nu=3, estimators=("DH", "DH_binned"), smoother=smoother)
        self.spec(nu=3, estimators=("DH", "LL"), smoother=smoother)  # theirs is free

    def test_replicates_validated(self):
        with pytest.raises(ValueError, match="replicates"):
            self.spec(replicates=1)

    def test_failed_replicates_counted_and_flagged(self):
        # a compact kernel with an absurdly small fixed bandwidth fails fits
        spec = self.spec(
            smoother=SmootherSpec(
                __import__("poolreg").EPANECHNIKOV, 1, BandwidthRule.fixed(1e-5)
            ),
            estimators=("DH",),
            replicates=8,
        )
        cells = run_cell(spec, cell_index=0)
        assert cells["DH"].n_failed_reps == 8
        assert np.isnan(cells["DH"].med_ise_e4)
        assert cells["DH"].flagged


class TestRunTable:
    def test_traces_carry_every_replicate(self):
        rows, traces = run_table(
            models=[make_model("iii")],
            n_values=[200],
            nu_values=[2],
            estimators=("DH", "LL"),
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            replicates=6,
            seed=4,
            with_traces=True,
        )
        assert len(traces) == 2 * 6
        for row in rows:
            vals = [
                t.ise for t in traces
                if t.estimator == row.estimator and t.ise is not None
            ]
            assert len(vals) == 6 - row.cell.n_failed_reps
            assert abs(np.median(vals) * 1e4 - row.cell.med_ise_e4) < 1e-12

    def test_grid_layout_and_determinism(self):
        rows = run_table(
            models=[make_model("iii")],
            n_values=[200, 400],
            nu_values=[1, 2],
            estimators=("DH",),
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            replicates=5,
            seed=9,
        )
        assert len(rows) == 4
        assert [(r.n, r.nu) for r in rows] == [(200, 1), (200, 2), (400, 1), (400, 2)]
        again = run_table(
            models=[make_model("iii")],
            n_values=[200, 400],
            nu_values=[1, 2],
            estimators=("DH",),
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            replicates=5,
            seed=9,
        )
        assert all(
            a.cell.med_ise_e4 == b.cell.med_ise_e4 for a, b in zip(rows, again)
        )


class TestRateExperiment:
    def test_constant_p_fixed_h_slope_near_minus_one(self):
        # zero bias (p constant, local linear), fixed h: ISE ~ 1/N
        model = constant_model(0.1)
        res = rate_experiment(
            model, nu=5, n_values=[500, 2000, 8000], replicates=40, seed=11,
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.25)),
        )
        assert abs(res.slope - (-1.0)) <= 0.15

    def test_bootstrap_band_contains_slope_and_is_stable(self):
        model = constant_model(0.1)
        res40 = rate_experiment(
            model, nu=5, n_values=[500, 2000, 8000], replicates=40, seed=11,
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.25)),
        )
        res80 = rate_experiment(
            model, nu=5, n_values=[500, 2000, 8000], replicates=80, seed=11,
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.25)),
        )
        lo, hi = res40.slope_band
        assert lo <= res40.slope <= hi
        assert lo <= res80.slope <= hi  # doubling replicates stays in the band

    def test_scaled_bandwidths_follow_power_law(self):
        model = make_model("iii")
        res = rate_experiment(
            model, nu=5, n_values=[250, 1000, 4000], replicates=4, seed=3
        )
        h0, h1, h2 = res.bandwidths
        np.testing.assert_allclose(h1 / h0, 4.0 ** (-0.2), rtol=1e-12)
        np.testing.assert_allclose(h2 / h0, 16.0 ** (-0.2), rtol=1e-12)

    def test_cv_and_plugin_each_choose_h0(self):
        # model iii, nu = 5, N0 = 2000: cv picks h0 = 0.130, the plug-in 0.190
        h0 = {}
        for rule in (BandwidthRule.cv(), BandwidthRule.plugin()):
            res = rate_experiment(
                make_model("iii"), nu=5, n_values=[2000, 4000, 8000], replicates=2,
                seed=7, smoother=SmootherSpec(GAUSSIAN, 1, rule),
            )
            h0[rule.mode] = res.bandwidths[0]
        assert h0["cross_validation"] == pytest.approx(0.130, abs=5e-4)
        assert h0["plugin"] == pytest.approx(0.190, abs=5e-4)

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            rate_experiment(make_model("iii"), 5, [100, 200], replicates=4, seed=0)


class TestOverpoolingExperiment:
    def test_lambda_closed_form(self):
        # lambda^5 = (1-p)^(-nu): at p = 0.1, nu = 40 this is 0.9^-40 ~ 67.6
        model = constant_model(0.1)
        rows = overpooling_experiment(
            model, n=400, nu_values=[5, 40], replicates=4, seed=5,
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)),
        )
        lam = rows[1].lambda_mid
        assert abs(lam**5 - 0.9 ** (-40)) < 1e-9
        assert abs(lam - 0.9 ** (-8)) < 1e-12
        assert abs(lam**5 - 67.6) < 0.1  # the round figure: 0.9^-40 = 67.65
        assert abs(lam - 2.32) < 0.005
        assert rows[0].lambda_mid >= 1.0

    def test_degenerate_all_positive_replicates_flagged(self):
        model = constant_model(0.5)
        rows = overpooling_experiment(
            model, n=200, nu_values=[40], replicates=6, seed=6,
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)),
        )
        # at p=0.5, nu=40 every pool is positive essentially surely
        assert rows[0].n_all_positive == 6

    def test_tiny_prevalence_pooling_costs_nothing(self):
        # nu*delta -> 0 regime: DH matches LL within 1.5x in median ISE
        model = constant_model(0.002)
        spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.25))
        grid = np.linspace(model.law.quantile(0.05), model.law.quantile(0.95), 401)
        from poolreg import estimate_dh, estimate_ll, pool_homogeneous

        ise_dh, ise_ll = [], []
        for r in range(60):
            raw = sample_replicate(model, 10_000, seed_stream(77, r))
            ise_dh.append(ise(estimate_dh(pool_homogeneous(raw, 5), spec, grid), model))
            ise_ll.append(ise(estimate_ll(raw, spec, grid), model))
        assert np.median(ise_dh) <= 1.5 * np.median(ise_ll)


class TestBadNuRejectedBeforeReplicates:
    """Every experiment validates all its cells before sampling any replicate."""

    @pytest.fixture()
    def no_sampling(self, monkeypatch):
        import poolreg.simulation as sim

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran before nu was validated")

        monkeypatch.setattr(sim, "sample_replicate", refuse)

    def test_run_table(self, no_sampling):
        with pytest.raises(ValueError, match="nu must be >= 1"):
            run_table(
                [make_model("iii")], [200], [5, 0], ("DH",), replicates=2, seed=0
            )

    def test_rate_experiment(self, no_sampling):
        with pytest.raises(ValueError, match="nu must be >= 1"):
            rate_experiment(
                make_model("iii"), 0, [100, 200, 400], replicates=2, seed=0,
                smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            )

    def test_rate_experiment_before_its_pilot(self, no_sampling):
        with pytest.raises(ValueError, match="nu must be >= 1"):
            rate_experiment(make_model("iii"), 0, [100, 200, 400], replicates=2, seed=0)

    def test_overpooling_experiment(self, no_sampling):
        with pytest.raises(ValueError, match="nu must be >= 1"):
            overpooling_experiment(
                constant_model(0.1), 200, [5, 0], replicates=2, seed=0
            )


def test_overpooling_rows_equal_run_cell_on_the_same_streams():
    model = constant_model(0.1)
    smoother = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3))
    rows = overpooling_experiment(
        model, n=400, nu_values=[5, 20], replicates=5, seed=12, smoother=smoother
    )
    for i, row in enumerate(rows):
        spec = SimulationSpec(model, 400, row.nu, ("DH",), smoother, 5, 12)
        cell = run_cell(spec, cell_index=i)["DH"]
        assert row.med_ise_e4 == cell.med_ise_e4
        assert row.iqr_ise_e4 == cell.iqr_ise_e4
        assert row.n_failed == cell.n_failed_reps


# ---------------------------------------------------------------------------
# nu = 1: the pooled estimators are the unpooled one


@st.composite
def nu_one_cases(draw):
    """A 0/1 sample, on distinct or heavily tied covariates, and a smoother."""
    n = draw(st.integers(8, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(size=n)
    if draw(st.booleans()):
        k = draw(st.integers(2, 20))
        x = np.round(x * k) / k
    y = (rng.random(n) < draw(st.floats(0.05, 0.95))).astype(np.int8)
    y[:2] = (0, 1)  # an all-positive sample leaves DM undefined
    rule = draw(st.sampled_from([
        BandwidthRule.cv(), BandwidthRule.plugin(),
        BandwidthRule.fixed(10.0 ** draw(st.floats(-2.0, 0.0))),
    ]))
    kern = draw(st.sampled_from([GAUSSIAN, EPANECHNIKOV, UNIFORM]))
    smoother = SmootherSpec(kern, draw(st.integers(1, 2)), rule)
    return RawDataset(x, y), smoother, draw(st.integers(0, 2**32 - 1))


def _moment_conditions(u, degree, kern, h, x) -> np.ndarray:
    """2-norm condition number of the local fit's moment matrix at each x."""
    t = (u[:, None] - x[None, :]) / h
    phi = t[:, :, None] ** np.arange(degree + 1)
    S = np.einsum("jm,jma,jmb->mab", kern.pdf(t), phi, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.cond(S)


def _tied_sample() -> RawDataset:
    """200 points on 11 distinct x values.

    Scoring points ordered by x alone made DM's CV pick h = 0.1305 here
    against LL's 0.0897: which tied rows were scored followed the row order.
    """
    rng = np.random.default_rng(0)
    x = np.round(rng.uniform(size=200), 1)
    return RawDataset(x, (rng.random(200) < 0.2 + 0.3 * x).astype(np.int8))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(nu_one_cases())
@example((_tied_sample(), SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv()), 7))
@example((RawDataset(np.array([0.5, 1.0, 1.0, 0.5, 0.0, 0.5, 0.0, 1.0]),
                     np.array([0, 1, 0, 0, 1, 0, 0, 1], dtype=np.int8)),
          SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv()), 0))
def test_nu_one_pooling_reproduces_ll(case):
    """DH and DM at nu = 1 pick LL's bandwidth and fail where it fails.

    Their curves agree with LL's to 1e-12 (acceptance criterion 1), or to
    1000 eps x the condition number of the local moment matrix where that is
    larger.  DH fits 1 - y where LL fits y, and each solve amplifies rounding
    by up to that condition number: the second example differs by 2.8e-9.
    Over 800 random designs the gap stayed below 25 eps x the condition number.
    """
    raw, smoother, seed = case
    grid = np.linspace(raw.covariates.min(), raw.covariates.max(), 41)
    out = {}
    for name in ("LL", "DH", "DM"):
        try:
            data = pool_step(name, raw, 1, None, seed)
            out[name] = estimate_step(name, data, smoother, grid)
        except (BandwidthError, EstimationError) as exc:
            out[name] = type(exc)
    ll = out["LL"]
    for name in ("DH", "DM"):
        got = out[name]
        if not isinstance(ll, EstimateResult):
            assert got is ll, name
            continue
        assert got.bandwidth_used == ll.bandwidth_used, name
        np.testing.assert_array_equal(got.failures, ll.failures)
        finite = np.isfinite(ll.p_hat)
        np.testing.assert_array_equal(np.isfinite(got.p_hat), finite)
        cond = _moment_conditions(raw.covariates, smoother.degree, smoother.kernel,
                                  ll.bandwidth_used, grid)
        bound = np.maximum(1e-12, 1e3 * np.finfo(float).eps * cond)
        assert (np.abs(got.p_hat - ll.p_hat)[finite] <= bound[finite]).all(), name


# ---------------------------------------------------------------------------
# affine equivariance: x -> a x + b with h -> |a| h changes no estimate


@st.composite
def affine_cases(draw):
    """A 0/1 sample on distinct covariates, a fixed h and a map x -> a x + b."""
    n = 5 * draw(st.integers(10, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(size=n)
    y = (rng.random(n) < 0.1 + 0.5 * x ** 2).astype(np.int8)
    y[:2] = (0, 1)  # an all-positive sample leaves DM undefined
    h = 10.0 ** draw(st.floats(-1.3, 0.0))
    a = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.floats(-2.0, 2.0))
    return RawDataset(x, y), h, a, draw(st.floats(-5.0, 5.0))


def _estimates(raw, smoother, grid):
    out = {}
    for name in ("DH", "DM", "LL"):
        try:
            out[name] = estimate_step(name, pool_step(name, raw, 5, None, 9), smoother,
                                      grid)
        except (BandwidthError, EstimationError) as exc:
            out[name] = type(exc)
    return out


@pytest.mark.parametrize("mode", ["fixed", "cross_validation", "plugin"])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kern", [GAUSSIAN, EPANECHNIKOV, UNIFORM],
                         ids=lambda k: k.family)
@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(affine_cases())
@example((RawDataset(np.random.default_rng(1).uniform(size=300),
                     (np.random.default_rng(2).random(300) < 0.3).astype(np.int8)),
          0.2, -2.0, 1.0))
def test_affine_map_of_the_covariate_changes_no_estimate(kern, degree, mode, case):
    """DH, DM and LL on a x + b, with h scaled by |a|, give the same curve.

    A fixed h maps to |a| h; cv and plugin must choose |a| times their h on
    the original scale.  With a < 0 the design and the grid reverse, and DH
    forms the same pools from the other end.  DM keeps its pooling seed.
    """
    raw, h, a, b = case
    rules = {"fixed": BandwidthRule.fixed(h), "cross_validation": BandwidthRule.cv(),
             "plugin": BandwidthRule.plugin()}
    smoother = SmootherSpec(kern, degree, rules[mode])
    mapped = SmootherSpec(kern, degree, BandwidthRule.fixed(abs(a) * h)
                          if mode == "fixed" else rules[mode])
    grid = np.linspace(raw.covariates.min(), raw.covariates.max(), 41)
    before = _estimates(raw, smoother, grid)
    after = _estimates(RawDataset(a * raw.covariates + b, raw.responses), mapped,
                       a * grid + b)
    for name, old in before.items():
        new = after[name]
        if not isinstance(old, EstimateResult):
            assert new is old, name
            continue
        np.testing.assert_allclose(new.bandwidth_used, abs(a) * old.bandwidth_used,
                                   rtol=1e-12, err_msg=name)
        np.testing.assert_array_equal(new.failures, old.failures)
        finite = np.isfinite(old.p_hat)
        np.testing.assert_array_equal(np.isfinite(new.p_hat), finite)
        np.testing.assert_allclose(new.p_hat[finite], old.p_hat[finite], rtol=0,
                                   atol=1e-10, err_msg=name)
