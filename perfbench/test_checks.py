"""Each output check accepts real poolreg output and rejects it slightly perturbed.

Run from the root of a poolreg checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import _write, p_2d, p_iii  # noqa: E402

from poolreg.cli import main  # noqa: E402


def bump(est: dict, col: str, i: int, rel: float) -> dict:
    """A copy of est with one cell of col scaled by (1 + rel)."""
    out = {k: list(v) for k, v in est.items()}
    out[col][i] = repr(float(out[col][i]) * (1.0 + rel))
    return out


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    d = tmp_path_factory.mktemp("screen")
    rng = np.random.default_rng(5)
    n, nu, h = 20_000, 5, 0.1
    x = rng.uniform(0.0, 1.0, n)
    y = (rng.random(n) < p_iii(x)).astype(np.int64)
    blocks, z = checks.pool_sorted(x, y, nu)
    _write(d / "ind.csv", "x,y", (x, y), ("{:.17g}", "{}"))
    _write(d / "pooled.csv", "group_id,x1,group_result",
           (np.repeat(np.arange(n // nu), nu), blocks.ravel(),
            np.repeat(1 - z.astype(np.int64), nu)), ("g{:05d}", "{:.17g}", "{}"))
    common = ["--estimator", "dh", "--bandwidth", f"fixed:{h}", "--format", "csv"]
    assert main(["estimate", "--input", str(d / "ind.csv"), "--nu", str(nu),
                 "--out", str(d / "a")] + common) == 0
    assert main(["estimate", "--input", str(d / "pooled.csv"),
                 "--out", str(d / "b")] + common) == 0
    est = {k: checks.read_csv(d / k / "estimate_dh.csv") for k in ("a", "b")}
    return {"u": blocks.mean(axis=1), "z": z, "nu": nu, "lo": x.min(), "hi": x.max(),
            "a": est["a"], "b": est["b"]}


def test_univariate_refit(screen):
    e, args = screen["a"], (screen["u"], screen["z"], screen["nu"])
    assert checks.check_univariate_fit(e, *args)[0]
    i = int(checks.pick(len(e["x"]))[3])
    assert not checks.check_univariate_fit(bump(e, "mu_hat", i, rel=1e-6), *args)[0]


def test_grid(screen):
    e, args = screen["a"], (screen["lo"], screen["hi"], 201)
    assert checks.check_grid(e, *args)[0]
    assert not checks.check_grid(bump(e, "x", 100, rel=1e-9), *args)[0]


def test_inversion(screen):
    e = screen["b"]
    assert checks.check_inversion(e, screen["nu"])[0]
    assert not checks.check_inversion(bump(e, "p_hat", 50, rel=1e-9), screen["nu"])[0]


def test_pooled_matches_individual(screen):
    a, b = (checks.floats(screen[k]["p_hat"]) for k in ("a", "b"))
    assert checks.check_same(b, a)[0]
    assert not checks.check_same(b * (1.0 + 1e-9), a)[0]


def test_truth_band(screen):
    x = checks.floats(screen["a"]["x"])
    p = checks.floats(screen["a"]["p_hat"])
    assert checks.check_truth(p, p_iii(x), 0.02)[0]
    assert not checks.check_truth(p + 0.021, p_iii(x), 0.02)[0]


@pytest.fixture(scope="module")
def binned(tmp_path_factory):
    d = tmp_path_factory.mktemp("binned")
    rng = np.random.default_rng(6)
    n, nu, bins = 4000, 10, 20
    x = rng.uniform(0.0, 1.0, (n, 2))
    y = (rng.random(n) < p_2d(x)).astype(np.int64)
    _write(d / "biv.csv", "x,x2,y", (x[:, 0], x[:, 1], y), ("{:.17g}", "{:.17g}", "{}"))
    assert main(["estimate", "--input", str(d / "biv.csv"), "--estimator", "dh_binned",
                 "--nu", str(nu), "--bandwidth", "fixed:0.2", "--format", "csv",
                 "--out", str(d)]) == 0
    counts, pos, centers = checks.bin_counts(x, y, bins)
    return {"est": checks.read_csv(d / "estimate_dh_binned.csv"), "counts": counts,
            "pos": pos, "centers": centers}


def test_binned_occupancy(binned):
    e, args = binned["est"], (binned["counts"], binned["centers"])
    assert checks.check_binned_grid(e, *args)[0]
    assert not checks.check_binned_grid(bump(e, "x2", 7, rel=1e-9), *args)[0]


def test_binned_refit(binned):
    e, args = binned["est"], (binned["counts"], binned["pos"], binned["centers"])
    assert checks.check_binned_fit(e, *args)[0]
    i = int(checks.pick(len(e["x1"]))[2])
    assert not checks.check_binned_fit(bump(e, "mu_hat", i, rel=1e-6), *args)[0]


def test_binned_inversion(binned):
    e = binned["est"]
    m = binned["counts"][np.nonzero(binned["counts"])]
    assert checks.check_inversion(e, m)[0]
    assert not checks.check_inversion(bump(e, "p_hat", 11, rel=1e-9), m)[0]
    # the nominal nu is not the exponent: occupancies differ from bin to bin
    assert not checks.check_inversion(e, np.full(m.shape, 10.0))[0]


def test_binned_truth(binned):
    e = binned["est"]
    g = np.column_stack([checks.floats(e["x1"]), checks.floats(e["x2"])])
    mu = checks.floats(e["mu_hat"])
    truth = np.exp(-10 * p_2d(g))
    bound = float(np.max(np.abs(mu - truth)))
    assert checks.check_truth(mu, truth, bound)[0]
    worst = int(np.argmax(np.abs(mu - truth)))
    mu[worst] += 1e-9 * np.sign(mu[worst] - truth[worst])
    assert not checks.check_truth(mu, truth, bound)[0]
    p = checks.floats(e["p_hat"])
    med = float(np.median(np.abs(p - p_2d(g))))
    assert checks.check_truth(p, p_2d(g), med, np.median)[0]
    assert not checks.check_truth(p + 2 * med, p_2d(g), med, np.median)[0]


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    d = tmp_path_factory.mktemp("table")
    assert main(["simulate", "--model", "i", "--N", "1000", "--nu", "10",
                 "--estimator", "DH", "--estimator", "DM", "--replicates", "5",
                 "--seed", "3", "--traces", "--format", "csv", "--out", str(d)]) == 0
    return checks.read_table(d)


def test_no_drops(table):
    rows, traces = table
    assert checks.check_no_drops(rows, traces, 5)[0]
    dropped = {e: list(v) for e, v in traces.items()}
    dropped["DM"][2] = None
    assert not checks.check_no_drops(rows, dropped, 5)[0]


def test_summary(table):
    rows, traces = table
    assert checks.check_summary(rows, traces)[0]
    for col in ("med_ise_e4", "iqr_ise_e4"):
        bad = {e: dict(r) for e, r in rows.items()}
        bad["DH"][col] = repr(float(bad["DH"][col]) * (1.0 + 1e-9))
        assert not checks.check_summary(bad, traces)[0]


def test_band(table):
    rows, traces = table
    lim = checks.median_lower_limit(traces["DM"], 0.05) * 1e4
    assert checks.check_band(traces, {"DM": lim * (1.0 + 1e-9)}, 0.05)[0]
    assert not checks.check_band(traces, {"DM": lim * (1.0 - 1e-9)}, 0.05)[0]


def test_order(table):
    _, traces = table
    assert checks.check_order(traces, "DH", "DM")[0]
    assert not checks.check_order(traces, "DM", "DH")[0]
    # DM's ISE values scaled just under DH's median reverse the order
    dh = float(np.median(traces["DH"]))
    scale = dh / float(np.median(traces["DM"])) * (1.0 - 1e-9)
    squeezed = {"DH": traces["DH"], "DM": [v * scale for v in traces["DM"]]}
    assert not checks.check_order(squeezed, "DH", "DM")[0]


def test_median_lower_limit_level():
    # the 2nd smallest of 16 exceeds the median with probability 17/2^16
    assert checks.median_lower_limit(range(16), 1e-3) == 1.0
    assert 17 / 2**16 <= 1e-3 < (17 + math.comb(16, 2)) / 2**16
    assert checks.median_lower_limit(range(16), 1e-6) == 0.0
