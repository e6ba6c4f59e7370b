"""Fuzz gate: no input makes the CLI print a traceback or a raw numpy warning.

Each example runs ``poolreg.cli.main`` in-process on a small input (at most
300 rows, or N <= 300 for the simulation commands) with one or two hazards:
all-negative or all-positive y, one or two x values, ties, x scaled by
10^300 or 10^-300, 2-4 rows, a bivariate file, and nu that does not divide N.
Every command and estimator runs, under fixed, cv and plug-in bandwidths
(the diagnostics also at fixed bandwidths near 10^300 and 10^-300);
bivariate files go through dh_binned, mostly with N / nu a square number of
bins so that the d-variate fit and search run.  The run must exit 0 or 2, let
no exception out of ``main`` and no RuntimeWarning out of numpy, and a 0 exit
must write finite values, or NaN in a row that carries a failure.
"""

import csv
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poolreg.cli import main

HAZARDS = ("all_negative", "all_positive", "one_x", "two_x", "ties", "huge", "tiny",
           "few_rows", "bivariate", "nu_not_dividing")
MODEL_COMMANDS = ("simulate", "rate", "overpool", "diagnostics")


def _case(command, argv, x=None, y=None):
    """A CLI run: the command, its flags ("INPUT" is the data file) and the data."""
    return command, argv, x, y


# the row counts drawn for a data file, and N for the simulation commands
ROWS = (5, 23, 60, 149, 300)
MODEL_ROWS = (20, 60, 150, 300)


def _data(draw, hazards, nu, rows=ROWS):
    """Covariates (n, d) and 0/1 responses with the drawn hazards."""
    d = 2 if "bivariate" in hazards else 1
    if "few_rows" in hazards:
        n = draw(st.integers(2, 4))
    elif d == 2 and "nu_not_dividing" not in hazards:  # a square number of bins
        n = nu * draw(st.sampled_from([k for k in (2, 3, 5, 8, 12, 17)
                                       if nu * k * k <= 300])) ** 2
    else:
        n = draw(st.sampled_from(rows))
        if "nu_not_dividing" in hazards and n % nu == 0 and nu > 1:
            n -= 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(size=(n, d))
    if "one_x" in hazards:
        x[:] = x[0]
    elif "two_x" in hazards:
        x = x[rng.integers(0, 2, n) if n > 1 else [0]]
    elif "ties" in hazards:
        x = np.round(x * 4.0) / 4.0
    y = rng.random(n) < 0.1 + 0.3 * x[:, 0]
    if "huge" in hazards:
        x *= 1e300
    elif "tiny" in hazards:
        x *= 1e-300
    if "all_negative" in hazards:
        y[:] = False
    elif "all_positive" in hazards:
        y[:] = True
    return x, y.astype(int)


@st.composite
def cli_cases(draw, command, estimator, rows=ROWS, model_rows=MODEL_ROWS):
    hazards = draw(st.sets(st.sampled_from(HAZARDS), min_size=1, max_size=2))
    nu = draw(st.integers(1, 8))
    scales = ["0.001", "0.05", "0.3", "2"]
    if command in ("diagnostics", "data-diagnostics"):  # h far off the data's scale
        scales += ["1e300", "1e-300", "3e-310"]
    h = draw(st.sampled_from(scales))
    bandwidth = draw(st.sampled_from([f"fixed:{h}", "cv", "plugin"]))
    opts = ["--bandwidth", bandwidth]
    if draw(st.integers(0, 4)) == 0:
        opts += ["--kernel", draw(st.sampled_from(["epanechnikov", "uniform"]))]
    if command in MODEL_COMMANDS:
        n = (draw(st.integers(2, 4)) if "few_rows" in hazards
             else draw(st.sampled_from(model_rows)))
        if "nu_not_dividing" in hazards and n % nu == 0 and nu > 1:
            n -= 1
        model = draw(st.sampled_from(["i", "ii", "iii", "iv"]))
        runs = ["--replicates", "2", "--seed", "3"]
        if command == "simulate":
            argv = ["--model", model, "--N", str(n), "--nu", str(nu),
                    "--estimator", estimator, *runs]
        elif command == "rate":
            argv = ["--model", model, "--N", str(n), "--N", str(2 * n), "--N",
                    str(4 * n), "--nu", str(nu), *runs]
        elif command == "overpool":
            argv = ["--N", str(n), "--nu", str(nu), "--nu", str(2 * nu), *runs]
        else:
            argv = ["--model", model, "--N", str(n), "--nu", str(nu), "--grid", "21"]
        return _case(command, argv + opts)

    if command == "estimate_2d":  # the d-variate fit and search: no plug-in
        hazards = {"bivariate"} | set(list(hazards)[:1])
        opts[1] = draw(st.sampled_from([f"fixed:{h}", "cv"]))
    x, y = _data(draw, hazards, nu, rows)
    grid = ["--grid", draw(st.sampled_from(["21", "0.2:0.8:5"]))]
    if command == "data-diagnostics":
        return _case(command, ["--input", "INPUT", "--nu", str(nu), *grid, *opts], x, y)
    if command == "estimate_pooled":
        if estimator == "dh":  # pools of neighbours: homogeneous
            order = np.argsort(x[:, 0], kind="stable")
            x, y = x[order], y[order]
        return _case(command, ["--input", "INPUT", "--estimator", estimator, *opts],
                     x, y)
    argv = ["--input", "INPUT", "--estimator", estimator]
    if estimator != "ll":
        argv += ["--nu", str(nu)]
    if estimator == "dm":
        argv += ["--seed", "5"]
    if x.shape[1] == 1:
        argv += grid
    if draw(st.booleans()):
        argv.append("--widen-on-failure")
    return _case(command, argv + opts, x, y)


def _write_input(command, x, y, path):
    """An individual CSV, or for estimate_pooled consecutive rows in pools of 5."""
    names = ["x"] + [f"x{k + 1}" for k in range(1, x.shape[1])]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        if command == "estimate_pooled":
            out.writerow(["group_id"] + [f"x{k + 1}" for k in range(x.shape[1])]
                         + ["group_result"])
            groups = np.arange(y.size) // 5
            result = np.maximum.reduceat(y, np.arange(0, y.size, 5))
            for i in range(y.size):
                out.writerow([f"g{groups[i]}", *map(repr, x[i].tolist()),
                              result[groups[i]]])
        else:
            out.writerow(names + ["y"])
            for i in range(y.size):
                out.writerow([*map(repr, x[i].tolist()), y[i]])


def _failed(row: dict) -> bool:
    """Whether a result row reports a failure: a failure flag, or failed replicates."""
    if row.get("failure", "none") != "none":
        return True
    return any(k.startswith("n_failed") and v not in ("", "0") for k, v in row.items())


def _check_written(outdir):
    for path in sorted(outdir.glob("*.csv")):
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.DictReader(fh)):
                for key, cell in row.items():
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert not math.isinf(value), f"{path.name} row {i}: {key}={cell}"
                    assert not math.isnan(value) or _failed(row), (
                        f"{path.name} row {i}: {key} is NaN without a failure flag"
                    )


def _run(case, tmp, caplog, capsys):
    """Run the case through ``main`` in-process and check what it did."""
    command, argv, x, y = case
    if x is not None:
        _write_input(command, x, y, tmp / "input.csv")
        argv = [str(tmp / "input.csv") if a == "INPUT" else a for a in argv]
    out = tmp / "out"
    argv = ["estimate" if command.startswith("estimate") else command, *argv,
            "--out", str(out), "--format", "csv"]
    caplog.clear()
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught, \
            caplog.at_level(logging.INFO, logger="poolreg"):
        warnings.simplefilter("always")
        code = main(argv)
    raw = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not raw, f"numpy warned: {raw}"
    assert code in (0, 2)
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    if code == 0:
        _check_written(out)


RUNS = [("estimate", e) for e in ("dh", "dm", "ll", "dh_binned")] + [
    ("estimate_2d", "dh_binned"),
    ("estimate_pooled", "dh"), ("estimate_pooled", "dm"), ("data-diagnostics", None),
    ("diagnostics", None), ("rate", None), ("overpool", None),
] + [("simulate", e) for e in ("DH", "DM", "LL", "DH_binned")]


@pytest.mark.parametrize("command, estimator", RUNS)
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_input_makes_the_cli_print_a_traceback(command, estimator, data,
                                                  tmp_path_factory, caplog, capsys):
    _run(data.draw(cli_cases(command, estimator)), tmp_path_factory.mktemp("fuzz"),
         caplog, capsys)


def test_overflowing_kernel_arguments_fail_without_a_numpy_warning(tmp_path, caplog,
                                                                  capsys):
    """x times 1e300 at a fixed h of 0.3: every (u - x)/h overflows and every
    grid point fails, with no RuntimeWarning from the moment engine."""
    x = np.linspace(0.01, 0.99, 200)[:, None] * 1e300
    y = (np.arange(200) % 3 == 0).astype(int)
    _run(_case("estimate", ["--input", "INPUT", "--estimator", "dh", "--nu", "5",
                            "--bandwidth", "fixed:0.3"], x, y), tmp_path, caplog,
         capsys)
    assert "failed_points=201 of 201" in caplog.text


def test_grid_far_outside_a_tiny_bin_region_does_not_warn(tmp_path, caplog, capsys):
    """A 1-d dh_binned grid on [0.2, 0.8] against x of order 1e-301: locating
    the grid points in the bins must not cast a huge bin index to int64."""
    x = np.array([[6.36961687e-301], [2.69786714e-301], [4.09735239e-302],
                  [1.65276355e-302], [8.13270239e-301]])
    _run(_case("estimate", ["--input", "INPUT", "--estimator", "dh_binned", "--nu", "1",
                            "--grid", "0.2:0.8:5", "--bandwidth", "fixed:0.001"],
               x, np.zeros(5, dtype=int)), tmp_path, caplog, capsys)


def test_fits_whose_solve_overflows_are_reported_failed(tmp_path, caplog, capsys):
    """DM at h = 0.001 on 60 pooled rows (pools of 5, in random order) whose x
    takes only the values 0.2698 and 0.6370: at grid points 37-38 h from both
    values every weight is near the smallest normal double and the solve
    overflows, so those points fail, like every other, rather than being
    written as NaN without a failure."""
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(60, 1))[rng.integers(0, 2, 60)]
    y = (rng.random(60) < 0.1 + 0.3 * x[:, 0]).astype(int)
    _run(_case("estimate_pooled", ["--input", "INPUT", "--estimator", "dm",
                                   "--bandwidth", "fixed:0.001"], x, y),
         tmp_path, caplog, capsys)
    assert "failed_points=201 of 201" in caplog.text
