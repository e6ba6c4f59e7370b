"""Harness tests: sampling, ISE protocol, cells, rate and over-pooling runs."""

import numpy as np
import pytest

from poolreg import (
    BandwidthRule,
    EstimateResult,
    GAUSSIAN,
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
            fixed_h=0.25,
        )
        assert abs(res.slope - (-1.0)) <= 0.15

    def test_bootstrap_band_contains_slope_and_is_stable(self):
        model = constant_model(0.1)
        res40 = rate_experiment(
            model, nu=5, n_values=[500, 2000, 8000], replicates=40, seed=11,
            fixed_h=0.25,
        )
        res80 = rate_experiment(
            model, nu=5, n_values=[500, 2000, 8000], replicates=80, seed=11,
            fixed_h=0.25,
        )
        lo, hi = res40.slope_band
        assert lo <= res40.slope <= hi
        assert lo <= res80.slope <= hi  # doubling replicates stays in the band

    def test_scaled_bandwidths_follow_power_law(self):
        model = make_model("iii")
        res = rate_experiment(
            model, nu=5, n_values=[250, 1000, 4000], replicates=4, seed=3, h_ref=0.3
        )
        h0, h1, h2 = res.bandwidths
        np.testing.assert_allclose(h1 / h0, 4.0 ** (-0.2), rtol=1e-12)
        np.testing.assert_allclose(h2 / h0, 16.0 ** (-0.2), rtol=1e-12)

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
                fixed_h=0.2,
            )

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
