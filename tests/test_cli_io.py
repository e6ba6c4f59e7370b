"""Codec round-trips, ingestion contracts and CLI behavior."""

import argparse
import json
import logging
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poolreg
from poolreg import (
    BandwidthRule,
    EstimateResult,
    EstimationError,
    GAUSSIAN,
    SmootherSpec,
    TableRow,
    TraceRow,
    estimate_dh,
    make_model,
    pool_homogeneous,
    run_table,
    sample_replicate,
    seed_stream,
)
from poolreg.cli import _BUILT_IN, build_parser, main
from poolreg.io import (
    DataFormatError,
    emit_results,
    ingest_individual_csv,
    ingest_pooled_csv,
    read_result,
    write_individual_csv,
    write_pooled_csv,
    write_result,
)


class TestIndividualCsv:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.1,0\n0.5,1\n0.9,0\n")
        raw = ingest_individual_csv(p)
        assert raw.n == 3 and raw.dimension == 1
        assert raw.responses.tolist() == [0, 1, 0]

    def test_covariates_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x\n0.1\n0.5\n")
        raw = ingest_individual_csv(p)
        assert raw.responses is None

    def test_multivariate_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,x2,y\n0.1,0.2,0\n0.5,0.6,1\n")
        raw = ingest_individual_csv(p)
        assert raw.dimension == 2

    def test_malformed_cell_reports_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.1,0\noops,1\n")
        with pytest.raises(DataFormatError, match="row 3.*'x'"):
            ingest_individual_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_covariate_reports_row_and_column(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"x,x2,y\n0.1,0.2,0\n0.5,{cell},1\n")
        with pytest.raises(DataFormatError, match="non-finite.*row 3.*'x2'"):
            ingest_individual_csv(p)

    def test_nonbinary_response_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.1,2\n")
        with pytest.raises(DataFormatError, match="0 or 1"):
            ingest_individual_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("covariate,y\n0.1,0\n")
        with pytest.raises(DataFormatError, match="header"):
            ingest_individual_csv(p)

    def test_round_trip_identity(self, tmp_path):
        raw = sample_replicate(make_model("i"), 200, seed_stream(1))
        p = write_individual_csv(raw, tmp_path / "d.csv")
        back = ingest_individual_csv(p)
        np.testing.assert_array_equal(back.covariates, raw.covariates)
        np.testing.assert_array_equal(back.responses, raw.responses)


class TestPooledCsv:
    def test_two_groups(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(
            "group_id,x1,group_result\n"
            "a,0.1,0\na,0.2,0\na,0.3,0\n"
            "b,0.7,1\nb,0.8,1\nb,0.9,1\n"
        )
        pooled = ingest_pooled_csv(p)
        assert pooled.n_groups == 2
        assert pooled.z_star().tolist() == [1.0, 0.0]
        assert pooled.strategy == "homogeneous_sorted"

    def test_contiguous_groups_are_ordered_by_center(self, tmp_path):
        # b and d share a center: they keep their order of first appearance
        p = tmp_path / "g.csv"
        p.write_text(
            "group_id,x1,group_result\n"
            "c,0.9,1\na,0.2,0\nc,0.8,1\nb,0.5,1\na,0.1,0\nd,0.5,0\na,0.3,0\n"
        )
        pooled = ingest_pooled_csv(p)
        assert pooled.strategy == "homogeneous_sorted"
        assert pooled.member_covariates.tolist() == [0.2, 0.1, 0.3, 0.5, 0.5, 0.9, 0.8]
        assert pooled.sizes().tolist() == [3, 1, 1, 2]
        assert pooled.y_star.tolist() == [0, 1, 0, 1]
        assert pooled.nu == 1.75

    def test_inconsistent_group_result_names_group(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("group_id,x1,group_result\nlab7,0.1,0\nlab7,0.2,1\n")
        with pytest.raises(DataFormatError, match="lab7"):
            ingest_pooled_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_covariate_reports_row_and_column(self, tmp_path, cell):
        p = tmp_path / "g.csv"
        p.write_text(f"group_id,x1,group_result\na,0.1,0\na,0.2,0\nb,{cell},1\n")
        with pytest.raises(DataFormatError, match="non-finite.*row 4.*'x1'"):
            ingest_pooled_csv(p)

    def test_overlapping_ranges_lose_homogeneity_flag(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(
            "group_id,x1,group_result\n"
            "a,0.1,0\na,0.8,0\n"
            "b,0.2,1\nb,0.9,1\n"
        )
        pooled = ingest_pooled_csv(p)
        assert pooled.strategy == "generic"

    def test_unequal_sizes_direct_dh_to_binned(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(
            "group_id,x1,group_result\n"
            "a,0.1,0\na,0.2,0\n"
            "b,0.7,1\nb,0.8,1\nb,0.9,1\n"
        )
        pooled = ingest_pooled_csv(p)
        assert pooled.strategy == "homogeneous_sorted"
        with pytest.raises(EstimationError, match="binned"):
            estimate_dh(pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.3)),
                        np.array([0.5]))

    def test_round_trip_identity(self, tmp_path):
        raw = sample_replicate(make_model("iii"), 100, seed_stream(2))
        pooled = pool_homogeneous(raw, 5)
        path = write_pooled_csv(pooled, tmp_path / "g.csv")
        back = ingest_pooled_csv(path)
        assert back.strategy == "homogeneous_sorted"
        assert back.n_groups == pooled.n_groups
        np.testing.assert_array_equal(back.centers(), pooled.centers())
        np.testing.assert_array_equal(back.z_star(), pooled.z_star())
        cuts = np.cumsum(pooled.sizes())[:-1]
        np.testing.assert_array_equal(back.sizes(), pooled.sizes())
        for ga, gb in zip(np.split(pooled.member_covariates, cuts),
                          np.split(back.member_covariates, cuts)):
            np.testing.assert_array_equal(np.sort(ga), np.sort(gb))


class TestEstimateCodecs:
    def make_estimate(self):
        raw = sample_replicate(make_model("iii"), 500, seed_stream(3))
        pooled = pool_homogeneous(raw, 5)
        grid = np.linspace(0.1, 0.9, 41)
        return estimate_dh(pooled, SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
                           grid)

    def test_json_round_trip_equal(self, tmp_path):
        est = self.make_estimate()
        path = write_result(est, tmp_path / "e.json")
        assert read_result(path, EstimateResult) == est

    def test_csv_round_trip_equal(self, tmp_path):
        est = self.make_estimate()
        path = write_result(est, tmp_path / "e.csv")
        assert read_result(path, EstimateResult) == est

    def test_empty_grid_gives_header_only_csv(self, tmp_path):
        empty = EstimateResult(
            np.empty(0), np.empty(0), np.empty(0),
            np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int8),
            0.1, "LL", 1,
        )
        path = write_result(empty, tmp_path / "e.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("x,p_hat")

    def test_csv_round_trip_keeps_failed_points(self, tmp_path):
        # failed grid points carry NaN estimates, which the reader accepts
        est = EstimateResult(
            np.array([0.1, 0.5]), np.array([np.nan, 0.25]), np.array([np.nan, 0.5]),
            np.zeros(2, dtype=np.int8), np.array([1, 0], dtype=np.int8),
            0.1, "DH", 2,
        )
        path = write_result(est, tmp_path / "e.csv")
        assert read_result(path, EstimateResult) == est

    def test_seventeen_digit_fidelity(self, tmp_path):
        est = self.make_estimate()
        path = write_result(est, tmp_path / "e.csv")
        back = read_result(path, EstimateResult)
        assert back.bandwidth_used == est.bandwidth_used
        np.testing.assert_array_equal(back.p_hat, est.p_hat)


class TestTableCodecs:
    def make_rows(self):
        return run_table(
            models=[make_model("iii")],
            n_values=[200],
            nu_values=[1, 2],
            estimators=("DH", "LL"),
            smoother=SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)),
            replicates=4,
            seed=5,
        )

    def test_one_row_per_cell(self, tmp_path):
        rows = self.make_rows()
        path = write_result(rows, tmp_path / "t.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + (1 model x 1 N x 2 nu x 2 estimators)

    def test_csv_round_trip(self, tmp_path):
        rows = self.make_rows()
        back = read_result(write_result(rows, tmp_path / "t.csv"), TableRow)
        assert back == rows

    def test_json_round_trip(self, tmp_path):
        rows = self.make_rows()
        back = read_result(write_result(rows, tmp_path / "t.json"), TableRow)
        assert back == rows


class TestEmitResults:
    def test_unknown_format_rejected(self, tmp_path):
        est = TestEstimateCodecs().make_estimate()
        with pytest.raises(DataFormatError):
            emit_results(est, ("xml",), tmp_path, "e")

    def test_writes_all_formats(self, tmp_path):
        est = TestEstimateCodecs().make_estimate()
        files = emit_results(est, ("csv", "json"), tmp_path / "sub", "e")
        assert [f.name for f in files] == ["e.csv", "e.json"]
        assert all(f.exists() for f in files)


@pytest.fixture()
def data_csv(tmp_path):
    raw = sample_replicate(make_model("iii"), 600, seed_stream(11))
    return write_individual_csv(raw, tmp_path / "data.csv")


@pytest.fixture()
def inputs(data_csv, tmp_path):
    """Input files by placeholder: individual, pooled, no y column, bivariate
    (also with a constant x2), and x at 0.5 in 96% of the rows."""
    raw = sample_replicate(make_model("iii"), 300, seed_stream(21))
    rng = np.random.default_rng(4)
    x2 = rng.uniform(size=(400, 2))
    biv = "x,x2,y\n" + "".join(f"{a},{b},{int(a > b)}\n" for a, b in x2)
    (tmp_path / "noy.csv").write_text("x\n0.1\n0.5\n0.9\n0.7\n")
    (tmp_path / "biv.csv").write_text(biv)
    (tmp_path / "bivc.csv").write_text(
        "x,x2,y\n" + "".join(f"{a},0.5,{int(a > 0.5)}\n" for a, _ in x2[:100]))
    spike = np.where(rng.random(2000) < 0.96, 0.5, rng.uniform(size=2000))
    (tmp_path / "spike.csv").write_text(
        "x,y\n" + "".join(f"{float(a)!r},{int(a > 0.7)}\n" for a in spike))
    x, y = raw.covariates, raw.responses
    for name, xs, ys in [("huge", x * 1e300, y), ("tiny", x * 1e-300, y),
                         ("pos", x, np.ones_like(y)), ("n23", x[:23], y[:23])]:
        (tmp_path / f"{name}.csv").write_text(
            "x,y\n" + "".join(f"{float(a)!r},{int(b)}\n" for a, b in zip(xs, ys)))
    return {
        "DATA": str(data_csv),
        "POOLED": str(write_pooled_csv(pool_homogeneous(raw, 5), tmp_path / "p.csv")),
        "NOY": str(tmp_path / "noy.csv"),
        "BIV": str(tmp_path / "biv.csv"),
        "BIVC": str(tmp_path / "bivc.csv"),
        # the covariate times 1e300 and 1e-300, y = 1 throughout, and 23 rows
        "HUGE": str(tmp_path / "huge.csv"),
        "TINY": str(tmp_path / "tiny.csv"),
        "POS": str(tmp_path / "pos.csv"),
        "N23": str(tmp_path / "n23.csv"),
        "SPIKE": str(tmp_path / "spike.csv"),
    }


class TestCli:
    def test_estimate_dh_succeeds(self, data_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "estimate", "--input", str(data_csv), "--estimator", "dh",
            "--nu", "5", "--bandwidth", "fixed:0.2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "estimate_dh.csv").exists()
        assert (out / "estimate_dh.json").exists()

    def test_estimate_ll_and_dm(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main([
            "estimate", "--input", str(data_csv), "--estimator", "ll",
            "--bandwidth", "fixed:0.2", "--out", str(out),
        ]) == 0
        assert main([
            "estimate", "--input", str(data_csv), "--estimator", "dm",
            "--nu", "5", "--seed", "4", "--bandwidth", "fixed:0.2",
            "--out", str(out),
        ]) == 0
        assert (out / "estimate_ll.csv").exists()
        assert (out / "estimate_dm.csv").exists()

    def test_all_positive_pools_warn(self, tmp_path, caplog):
        p = tmp_path / "pos.csv"
        p.write_text("x,y\n" + "".join(f"{i / 100},1\n" for i in range(100)))
        argv = ["estimate", "--input", str(p), "--estimator", "dh", "--nu", "5",
                "--bandwidth", "fixed:0.2", "--out", str(tmp_path / "out")]
        with caplog.at_level(logging.WARNING, logger="poolreg"):
            assert main(argv) == 0
        assert "every pool tested positive (20 pools)" in caplog.text

    def test_mixed_pools_do_not_warn(self, data_csv, tmp_path, caplog):
        argv = ["estimate", "--input", str(data_csv), "--estimator", "dh", "--nu", "5",
                "--bandwidth", "fixed:0.2", "--out", str(tmp_path / "out")]
        with caplog.at_level(logging.WARNING, logger="poolreg"):
            assert main(argv) == 0
        assert "tested positive" not in caplog.text

    def test_estimate_dh_binned(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main([
            "estimate", "--input", str(data_csv), "--estimator", "dh_binned",
            "--nu", "6", "--bandwidth", "fixed:0.2", "--out", str(out),
        ]) == 0
        assert (out / "estimate_dh_binned.csv").exists()

    def test_dm_without_seed_fails(self, data_csv, tmp_path):
        code = main([
            "estimate", "--input", str(data_csv), "--estimator", "dm",
            "--nu", "5", "--bandwidth", "fixed:0.2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_dm_on_bivariate_pools_is_a_clean_error(self, tmp_path, caplog):
        p = tmp_path / "g.csv"
        p.write_text(
            "group_id,x1,x2,group_result\n"
            "a,0.1,0.2,1\na,0.3,0.1,1\n"
            "b,0.5,0.6,0\nb,0.4,0.7,0\n"
            "c,0.9,0.8,1\nc,0.8,0.9,1\n"
        )
        with caplog.at_level(logging.ERROR, logger="poolreg"):
            code = main([
                "estimate", "--input", str(p), "--estimator", "dm",
                "--bandwidth", "fixed:0.3", "--out", str(tmp_path / "o"),
            ])
        assert code == 2
        assert "estimate_dm is univariate" in caplog.text

    def test_dh_without_responses_explains_y_needed(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("x\n0.1\n0.5\n0.9\n")
        code = main([
            "estimate", "--input", str(p), "--estimator", "dh", "--nu", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_simulate_requires_seed(self, tmp_path):
        code = main([
            "simulate", "--model", "iii", "--N", "200", "--nu", "2",
            "--replicates", "3", "--out", str(tmp_path / "o"),
            "--bandwidth", "fixed:0.2",
        ])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--N", "200", "--nu", "0"], "nu must be >= 1"),
        (["rate", "--N", "100", "--N", "200", "--N", "400", "--nu", "0",
          "--bandwidth", "fixed:0.2"], "nu must be >= 1"),
        (["simulate", "--N", "200", "--nu", "-5"], "nu must be >= 1"),
        (["simulate", "--estimator", "DH_binned", "--N", "200", "--nu", "3"],
         "nu must divide N"),
        (["overpool", "--N", "200", "--nu", "0"], "nu must be >= 1"),
        (["simulate", "--estimator", "LL", "--N", "200", "--nu", "0"], "nu must be >= 1"),
    ])
    def test_bad_nu_is_a_clean_error(self, argv, message, tmp_path, caplog):
        out = tmp_path / "o"
        with caplog.at_level(logging.ERROR, logger="poolreg"):
            code = main(argv + [
                "--replicates", "2", "--seed", "1", "--bandwidth", "fixed:0.2",
                "--out", str(out),
            ])
        assert code == 2
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--input", "DATA", "--estimator", "dh", "--nu", "2.5"],
         "whole number"),
        (["estimate", "--input", "DATA", "--estimator", "dh", "--nu", "5",
          "--grid", "0:inf:3"], "--grid must be"),
        (["estimate", "--estimator", "dh", "--nu", "5"], "--input is required"),
        (["diagnostics", "--nu", "0"], "nu >= 1 and N >= 1"),
        (["diagnostics", "--N", "0"], "nu >= 1 and N >= 1"),
        (["estimate", "--input", "POOLED", "--estimator", "ll"],
         "the LL estimator needs individual-level input"),
        (["estimate", "--input", "POOLED", "--estimator", "dh_binned", "--nu", "4"],
         "the DH_binned estimator needs individual-level input"),
        (["estimate", "--input", "NOY", "--estimator", "dh", "--nu", "2"],
         "no y column"),
        (["estimate", "--input", "NOY", "--estimator", "dm", "--nu", "2", "--seed",
          "1"], "no y column"),
        (["estimate", "--input", "NOY", "--estimator", "dh_binned", "--nu", "2"],
         "no y column"),
        (["estimate", "--input", "DATA", "--estimator", "dh"], "--nu is required"),
        (["estimate", "--input", "DATA", "--estimator", "dm", "--seed", "1"],
         "--nu is required"),
        (["estimate", "--input", "DATA", "--estimator", "dh_binned"],
         "--nu is required"),
        (["estimate", "--input", "DATA", "--estimator", "dm", "--nu", "5"],
         "--seed is required"),
        (["estimate", "--input", "BIV", "--estimator", "dh_binned", "--nu", "4",
          "--grid", "0.1:0.9:5"], "a:b:N grids are univariate"),
        (["estimate", "--input", "DATA", "--estimator", "dh_binned", "--nu", "4",
          "--degree", "3"], "local linear: it needs degree 1, got 3"),
        (["simulate", "--estimator", "DH_binned", "--N", "200", "--nu", "2",
          "--degree", "2", "--replicates", "2", "--seed", "1"],
         "local linear: it needs degree 1, got 2"),
        (["diagnostics", "--degree", "2"], "local linear: it needs degree 1, got 2"),
        (["data-diagnostics", "--input", "DATA", "--nu", "5", "--degree", "3"],
         "local linear: it needs degree 1, got 3"),
        (["estimate", "--input", "POOLED", "--estimator", "dh", "--nu", "5"],
         "--nu is not read with pooled input"),
        (["estimate", "--input", "POOLED", "--estimator", "dm", "--nu", "5"],
         "--nu is not read with pooled input"),
        (["estimate", "--input", "DATA", "--estimator", "ll", "--nu", "5"],
         "--nu is not read by the LL estimator"),
        (["data-diagnostics", "--nu", "5"], "--input is required"),
        (["data-diagnostics", "--input", "NOY", "--nu", "5"], "no y column"),
        (["estimate", "--input", "DATA", "--estimator", "dh", "--nu", "5",
          "--seed", "3"], "--seed is not read by the DH estimator"),
        (["estimate", "--input", "DATA", "--estimator", "ll", "--seed", "3"],
         "--seed is not read by the LL estimator"),
        (["estimate", "--input", "DATA", "--estimator", "dh_binned", "--nu", "4",
          "--seed", "3"], "--seed is not read by the DH_binned estimator"),
        (["estimate", "--input", "POOLED", "--estimator", "dm", "--seed", "3"],
         "--seed is not read with pooled input"),
        (["estimate", "--input", "POOLED", "--estimator", "dh", "--seed", "3"],
         "--seed is not read with pooled input"),
        (["data-diagnostics", "--input", "POS", "--nu", "5"],
         "every pool tested positive (q_hat = 0); the data-mode diagnostics are "
         "undefined"),
        (["data-diagnostics", "--input", "HUGE", "--nu", "5"],
         "is out of floating-point range for derivatives of order 2: the "
         "covariate's span is out of range"),
        (["data-diagnostics", "--input", "N23", "--nu", "5"],
         "nu=5 does not divide N=23; of the estimators, only dh_binned takes any N"),
        (["estimate", "--input", "N23", "--estimator", "dh", "--nu", "5"],
         "nu=5 does not divide N=23; of the estimators, only dh_binned takes any N"),
        (["data-diagnostics", "--input", "BIV", "--nu", "5"],
         "homogeneous pooling is univariate; of the estimators, only dh_binned "
         "takes d-variate input"),
        (["estimate", "--input", "BIV", "--estimator", "dh", "--nu", "5"],
         "homogeneous pooling is univariate; of the estimators, only dh_binned "
         "takes d-variate input"),
        (["estimate", "--input", "BIV", "--estimator", "dm", "--nu", "5", "--seed",
          "1"], "random pooling is univariate; of the estimators, only dh_binned "
         "takes d-variate input"),
        (["estimate", "--input", "BIVC", "--estimator", "dh_binned", "--nu", "4"],
         "covariate x2 is constant"),
        (["estimate", "--input", "SPIKE", "--estimator", "ll", "--bandwidth", "plugin"],
         "the plug-in has no interval to integrate its risk over"),
        (["data-diagnostics", "--input", "DATA", "--nu", "5", "--grid=-5:6:23"],
         "the design density estimate underflows (below 1e-300) at x = -5"),
        (["data-diagnostics", "--input", "DATA", "--nu", "5", "--bandwidth",
          "fixed:0.02", "--grid", "0.5:2.4:5"], "the pilot fit fails at x = "),
        (["estimate", "--input", "DATA", "--estimator", "dh", "--nu", "5",
          "--bandwidth", "fixed:inf"], "bad fixed bandwidth in 'fixed:inf'"),
        (["rate", "--N", "1000", "--N", "1000", "--N", "1000", "--seed", "1",
          "--replicates", "2"], "rate experiment needs at least 3 distinct values of N"),
        (["simulate", "--N", "-5", "--seed", "1", "--replicates", "2"],
         "N must be >= 1 (got N=-5)"),
        (["diagnostics", "--N", "10", "--nu", "3", "--bandwidth", "fixed:1e300",
          "--grid", "0.2:0.8:3"], "the error formulas are not finite at h = 1e+300"),
    ])
    def test_bad_option_value_is_a_clean_error(self, argv, message, inputs,
                                               tmp_path, caplog):
        out = tmp_path / "o"
        argv = [inputs.get(a, a) for a in argv]
        if "--bandwidth" not in argv:
            argv += ["--bandwidth", "fixed:0.2"]
        with caplog.at_level(logging.ERROR, logger="poolreg"):
            code = main(argv + ["--out", str(out)])
        assert code == 2
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--input", "HUGE", "--estimator", "ll"],
        ["--input", "TINY", "--estimator", "dh", "--nu", "5"],
        ["--input", "HUGE", "--estimator", "dh_binned", "--nu", "5"],
    ])
    def test_plugin_on_an_extreme_covariate_scale_is_a_clean_error(self, argv, inputs,
                                                                   tmp_path):
        out = tmp_path / "o"
        argv = ["estimate"] + [inputs.get(a, a) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "poolreg.cli", *argv, "--bandwidth", "plugin",
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(poolreg.__file__).parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if " ERROR " in line]
        assert len(errors) == 1
        assert "the covariate's span is out of range" in errors[0]
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_simulate_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--model", "iii", "--N", "200", "--nu", "2",
            "--estimator", "DH", "--replicates", "4", "--seed", "8",
            "--bandwidth", "fixed:0.2",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
        assert (out1 / "table.json").read_bytes() == (out2 / "table.json").read_bytes()

    def test_simulate_traces_flag(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "simulate", "--model", "iii", "--N", "200", "--nu", "2",
            "--estimator", "DH", "--replicates", "4", "--seed", "8",
            "--bandwidth", "fixed:0.2", "--traces", "--out", str(out),
        ])
        assert code == 0
        traces = read_result(out / "table_traces.csv", TraceRow)
        assert len(traces) == 4
        assert {t.replicate for t in traces} == {0, 1, 2, 3}

    def test_rate_command(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "rate", "--model", "iii", "--nu", "2", "--N", "100", "--N", "200",
            "--N", "400", "--replicates", "4", "--seed", "3",
            "--bandwidth", "fixed:0.25", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "rate.json").read_text())
        assert payload["schema"] == "poolreg.rate.v1"
        assert len(payload["med_ise"]) == 3

    def test_rate_command_cell_failure_is_clean_error(self, tmp_path):
        # at N=100 with 3 replicates, seed 3 produces a replicate whose data
        # range misses the quantile band, failing the cell
        code = main([
            "rate", "--model", "iii", "--nu", "2", "--N", "100", "--N", "200",
            "--N", "400", "--replicates", "3", "--seed", "3",
            "--bandwidth", "fixed:0.25", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_rate_reads_its_bandwidth(self, tmp_path):
        argv = ["rate", "--model", "iii", "--nu", "2", "--N", "100", "--N", "200",
                "--N", "400", "--replicates", "4", "--seed", "3", "--format", "json"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert main(argv + ["--bandwidth", "fixed:0.25",
                            "--out", str(tmp_path / "fixed")]) == 0
        payload = json.loads((tmp_path / "fixed" / "rate.json").read_text())
        assert payload["bandwidths"] == [0.25, 0.25, 0.25]
        assert _outputs(tmp_path / "fixed") != _outputs(tmp_path / "default")
        with pytest.raises(SystemExit) as exc:  # --bandwidth fixed:H replaced it
            main(argv + ["--fixed-h", "0.25", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_overpool_command(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "overpool", "--p0", "0.1", "--N", "400", "--nu", "2", "--nu", "4",
            "--replicates", "3", "--seed", "5", "--bandwidth", "fixed:0.3",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "overpool.csv").exists()

    def test_diagnostics_model_mode(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "diagnostics", "--model", "iii", "--nu", "5", "--N", "10000",
            "--bandwidth", "fixed:0.2", "--grid", "0.1:0.9:5", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["b_const"] == 1.0

    def test_diagnostics_data_mode(self, data_csv, tmp_path):
        out = tmp_path / "o"
        code = main([
            "data-diagnostics", "--input", str(data_csv), "--nu", "5",
            "--bandwidth", "fixed:0.2", "--grid", "0.2:0.8:5", "--out", str(out),
        ])
        assert code == 0

    def test_diagnostics_needs_fixed_bandwidth(self, tmp_path):
        code = main([
            "diagnostics", "--model", "iii", "--nu", "5", "--N", "1000",
            "--bandwidth", "cv", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_config_file_defaults_and_flag_precedence(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwidth": "fixed:0.2", "nu": 5}))
        out1 = tmp_path / "o1"
        assert main([
            "--config", str(cfg), "estimate", "--input", str(data_csv),
            "--estimator", "dh", "--out", str(out1),
        ]) == 0
        est1 = read_result(out1 / "estimate_dh.json", EstimateResult)
        assert est1.bandwidth_used == 0.2

        out2 = tmp_path / "o2"
        assert main([
            "--config", str(cfg), "estimate", "--input", str(data_csv),
            "--estimator", "dh", "--bandwidth", "fixed:0.3", "--out", str(out2),
        ]) == 0
        est2 = read_result(out2 / "estimate_dh.json", EstimateResult)
        assert est2.bandwidth_used == 0.3

    def test_missing_input_file(self, tmp_path):
        code = main([
            "estimate", "--input", str(tmp_path / "nope.csv"), "--estimator", "dh",
            "--nu", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_estimate_from_pooled_csv(self, tmp_path):
        raw = sample_replicate(make_model("iii"), 300, seed_stream(21))
        from poolreg.io import write_pooled_csv

        path = write_pooled_csv(pool_homogeneous(raw, 5), tmp_path / "pools.csv")
        out = tmp_path / "o"
        code = main([
            "estimate", "--input", str(path), "--estimator", "dh",
            "--bandwidth", "fixed:0.2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "estimate_dh.csv").exists()

    def test_unequal_pools_via_cli_direct_to_binned(self, tmp_path, caplog):
        p = tmp_path / "g.csv"
        p.write_text(
            "group_id,x1,group_result\n"
            "a,0.1,0\na,0.2,0\na,0.3,0\n"
            "b,0.4,1\nb,0.5,1\nb,0.6,1\nb,0.7,1\nb,0.8,1\nb,0.85,1\nb,0.9,1\n"
        )
        with caplog.at_level(logging.ERROR, logger="poolreg"):
            code = main([
                "estimate", "--input", str(p), "--estimator", "dh",
                "--bandwidth", "fixed:0.3", "--out", str(tmp_path / "o"),
            ])
        assert code == 2
        assert caplog.messages == [
            "group size varies across pools (3 to 7); dh, dm and data-mode "
            "diagnostics need equal pools; dh_binned bins individual-level input "
            "instead"
        ]


def _same_options(data: str) -> dict:
    """Each command's options, once as flags and once as config keys."""
    return {
        "estimate": (
            ["--input", data, "--estimator", "dh", "--nu", "5", "--bandwidth",
             "fixed:0.2", "--grid", "0.2:0.8:9", "--widen-on-failure", "--format",
             "json"],
            {"input": data, "estimator": "dh", "nu": 5, "bandwidth": "fixed:0.2",
             "grid": "0.2:0.8:9", "widen_on_failure": True, "format": "json"},
        ),
        "simulate": (
            ["--model", "iii", "--model", "i", "--N", "200", "--nu", "2",
             "--estimator", "DH", "--estimator", "LL", "--replicates", "2",
             "--seed", "4", "--bandwidth", "fixed:0.2", "--traces"],
            {"model": ["iii", "i"], "N": [200], "nu": 2, "estimator": ["DH", "LL"],
             "replicates": 2, "seed": 4, "bandwidth": "fixed:0.2", "traces": True},
        ),
        "rate": (
            ["--model", "iii", "--nu", "2", "--N", "100", "--N", "200", "--N", "400",
             "--replicates", "4", "--seed", "3", "--bandwidth", "fixed:0.25"],
            {"model": "iii", "nu": 2, "N": [100, 200, 400], "replicates": 4,
             "seed": 3, "bandwidth": "fixed:0.25"},
        ),
        "overpool": (
            ["--p0", "0.2", "--N", "400", "--nu", "2", "--nu", "4", "--replicates",
             "3", "--seed", "5", "--bandwidth", "fixed:0.3"],
            {"p0": 0.2, "N": 400, "nu": [2, 4], "replicates": 3, "seed": 5,
             "bandwidth": "fixed:0.3"},
        ),
        "diagnostics": (
            ["--model", "ii", "--law", "normal", "--nu", "4", "--N", "2000",
             "--bandwidth", "fixed:0.2", "--grid", "0.1:0.9:5", "--kernel",
             "epanechnikov", "--degree", "1"],
            {"model": "ii", "law": "normal", "nu": 4, "N": 2000,
             "bandwidth": "fixed:0.2", "grid": "0.1:0.9:5", "kernel": "epanechnikov",
             "degree": 1},
        ),
        "data-diagnostics": (
            ["--input", data, "--nu", "4", "--bandwidth", "fixed:0.2", "--grid",
             "0.2:0.8:7", "--kernel", "epanechnikov", "--format", "json"],
            {"input": data, "nu": 4, "bandwidth": "fixed:0.2", "grid": "0.2:0.8:7",
             "kernel": "epanechnikov", "format": "json"},
        ),
    }


def _outputs(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestConfigFile:
    def run_with_config(self, tmp_path, cfg, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return main(["--config", str(path), *argv])

    @pytest.mark.parametrize(
        "command",
        ["estimate", "simulate", "rate", "overpool", "diagnostics", "data-diagnostics"],
    )
    def test_config_and_flags_agree(self, command, data_csv, tmp_path):
        flags, cfg = _same_options(str(data_csv))[command]
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        assert main([command, *flags, "--out", str(by_flags)]) == 0
        assert self.run_with_config(
            tmp_path, cfg, [command, "--out", str(by_config)]) == 0
        assert _outputs(by_flags) and _outputs(by_flags) == _outputs(by_config)

    def test_string_for_a_repeatable_option_is_one_value(self, tmp_path):
        # the string "iii" once stood for the three models i, i, i
        out = tmp_path / "o"
        assert self.run_with_config(tmp_path, {"model": "iii"}, [
            "simulate", "--N", "200", "--nu", "2", "--replicates", "2", "--seed",
            "1", "--bandwidth", "fixed:0.2", "--out", str(out),
        ]) == 0
        rows = read_result(out / "table.csv", TableRow)
        assert [r.model_id for r in rows] == ["iii"]

    def test_flag_replaces_a_config_list(self, tmp_path):
        out = tmp_path / "o"
        assert self.run_with_config(tmp_path, {"nu": [2, 4]}, [
            "simulate", "--N", "200", "--nu", "4", "--replicates", "2", "--seed",
            "1", "--bandwidth", "fixed:0.2", "--out", str(out),
        ]) == 0
        assert [r.nu for r in read_result(out / "table.csv", TableRow)] == [4]

    @pytest.mark.parametrize("key, value", [("replicate", 3), ("n", 200)])
    def test_unknown_key_is_a_clean_error(self, key, value, tmp_path, caplog):
        out = tmp_path / "o"
        with caplog.at_level(logging.ERROR, logger="poolreg"):
            code = self.run_with_config(tmp_path, {key: value}, [
                "simulate", "--N", "200", "--nu", "2", "--replicates", "2",
                "--seed", "1", "--bandwidth", "fixed:0.2", "--out", str(out),
            ])
        assert code == 2
        assert f"unknown config key(s) for simulate: {key}" in caplog.text
        assert not out.exists()

    def test_scalar_nu_for_rate(self, tmp_path):
        argv = ["rate", "--N", "100", "--N", "200", "--N", "400", "--replicates",
                "4", "--seed", "3", "--bandwidth", "fixed:0.25"]
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        assert main(argv + ["--nu", "2", "--out", str(by_flags)]) == 0
        assert self.run_with_config(
            tmp_path, {"nu": 2}, argv + ["--out", str(by_config)]) == 0
        assert _outputs(by_flags) == _outputs(by_config)

    @pytest.mark.parametrize("text", ["", "nu: 2\n", "{\"nu\": 2"])
    def test_config_that_is_not_json_is_named(self, text, tmp_path, caplog):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "o"
        with caplog.at_level(logging.ERROR, logger="poolreg"):
            code = main(["--config", str(path), "simulate", "--seed", "1",
                         "--out", str(out)])
        assert code == 2
        assert f"config file {path} is not JSON: " in caplog.text
        assert not out.exists()

    def test_config_value_gets_the_flag_choices(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run_with_config(tmp_path, {"estimator": ["DH", "xyz"]}, [
                "simulate", "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


@pytest.mark.parametrize("spelling, name", [("DH_binned", "DH_binned"), ("Dh", "DH")])
def test_estimator_names_are_case_insensitive(spelling, name, data_csv, tmp_path):
    est = ["estimate", "--input", str(data_csv), "--nu", "4",
           "--bandwidth", "fixed:0.2"]
    assert main([*est, "--estimator", name.lower(), "--out", str(tmp_path / "a")]) == 0
    assert main([*est, "--estimator", spelling, "--out", str(tmp_path / "b")]) == 0
    assert _outputs(tmp_path / "b") == _outputs(tmp_path / "a")
    assert (tmp_path / "b" / f"estimate_{name.lower()}.csv").exists()

    sim = ["simulate", "--N", "200", "--nu", "4", "--replicates", "2", "--seed", "1",
           "--bandwidth", "fixed:0.2", "--out", str(tmp_path / "s")]
    assert main([*sim, "--estimator", spelling]) == 0
    rows = read_result(tmp_path / "s" / "table.csv", TableRow)
    assert [r.estimator for r in rows] == [name]


# estimate parses --seed for dm's random pooling of individual data; a run
# that would not read it refuses it after parsing, as a flag or a config key
_PARSED_BUT_NOT_READ = {
    "estimate dh": (["estimate", "--input", "DATA", "--estimator", "dh", "--nu", "5"],
                    "--seed is not read by the DH estimator"),
    "estimate ll": (["estimate", "--input", "DATA", "--estimator", "ll"],
                    "--seed is not read by the LL estimator"),
    "estimate pooled dm": (["estimate", "--input", "POOLED", "--estimator", "dm"],
                           "--seed is not read with pooled input"),
}


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "grid", "junk"),
    ("rate", "grid", "0:1:5"),
    ("overpool", "grid", "11"),
    ("diagnostics", "seed", "1"),
    ("diagnostics", "input", "data.csv"),
    ("data-diagnostics", "model", "iii"),
    ("data-diagnostics", "law", "normal"),
    ("data-diagnostics", "N", "2000"),
    ("data-diagnostics", "seed", "1"),
    ("rate", "fixed_h", "0.2"),
    ("estimate dh", "seed", "1"),
    ("estimate ll", "seed", "1"),
    ("estimate pooled dm", "seed", "1"),
])
def test_option_a_command_does_not_read_is_refused(command, option, value, inputs,
                                                    tmp_path, caplog):
    out = tmp_path / "o"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: value}))
    if command in _PARSED_BUT_NOT_READ:
        argv, message = _PARSED_BUT_NOT_READ[command]
        argv = [inputs.get(a, a) for a in argv]
        with caplog.at_level(logging.ERROR, logger="poolreg"):
            assert main([*argv, f"--{option}", value, "--out", str(out)]) == 2
            assert caplog.text.count(message) == 1
            assert main(["--config", str(cfg), *argv, "--out", str(out)]) == 2
        assert caplog.text.count(message) == 2
        assert not out.exists()
        return
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{option}", value, "--out", str(out)])
    assert exc.value.code == 2
    with caplog.at_level(logging.ERROR, logger="poolreg"):
        assert main(["--config", str(cfg), command, "--out", str(out)]) == 2
    assert f"unknown config key(s) for {command}: {option}" in caplog.text
    assert not out.exists()


def test_every_option_a_parser_takes_has_a_built_in_value():
    # an option missing from _BUILT_IN is a KeyError when its command runs;
    # a key no parser takes is a built-in value that nothing reads
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == set(_BUILT_IN)
    for name, sub in commands.items():
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert dests == set(_BUILT_IN[name]), name


def test_readme_commands_parse():
    # every `poolreg ...` command in README's "Command line" block, as argv
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("poolreg ")]
    assert {argv[0] for argv in commands} == {
        "estimate", "simulate", "rate", "overpool", "diagnostics", "data-diagnostics"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_abbreviated_flag_is_refused(tmp_path):
    # --n once expanded to --nu
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "200", "--replicates", "2", "--seed", "1",
              "--bandwidth", "fixed:0.2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()
