"""Output checks computed apart from poolreg: plain numpy and the csv module.

Every check returns ``(ok, detail)``.  None of them compares against a stored
copy of an earlier output: each one recomputes what the program should have
written from the inputs, or tests a property the method guarantees.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Rounding slack between the program's scaled-basis solve and the closed forms
# below; 17-digit CSV output keeps every other digit.
REFIT_RTOL = 1e-8
EXACT_RTOL = 1e-12


def read_csv(path) -> dict:
    """Columns of a CSV file as lists of strings, keyed by header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {h: [r[i] for r in rows[1:]] for i, h in enumerate(rows[0])}


def floats(col) -> np.ndarray:
    return np.asarray([float(v) for v in col])


def _close(a, b, rtol, atol=0.0) -> tuple[bool, float]:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False, math.inf
    err = np.abs(a - b)
    ok = bool(np.all(err <= atol + rtol * np.abs(b)))
    return ok, float(err.max()) if err.size else 0.0


# ---------------------------------------------------------------------------
# reference pooling and fits


def pool_sorted(x: np.ndarray, y: np.ndarray, nu: int):
    """Homogeneous pools: stable sort, blocks of nu, Z* = 1 - block max."""
    order = np.argsort(x, kind="stable")
    xs = x[order].reshape(-1, nu)
    z = 1.0 - y[order].reshape(-1, nu).max(axis=1)
    return xs, z


def local_linear_1d(u, z, h, x0) -> np.ndarray:
    """Gaussian local-linear fit at each x0, closed form of the 2x2 normal equations."""
    out = np.empty(len(x0))
    for i, x in enumerate(x0):
        d = (u - x) / h
        w = np.exp(-0.5 * d * d)
        s0, s1, s2 = w.sum(), (w * d).sum(), (w * d * d).sum()
        t0, t1 = (w * z).sum(), (w * d * z).sum()
        out[i] = (s2 * t0 - s1 * t1) / (s0 * s2 - s1 * s1)
    return out


def local_linear_wls(centers, z, h, x0) -> np.ndarray:
    """Radial-Gaussian weighted least squares of z on (1, c - x0) at each x0."""
    out = np.empty(len(x0))
    for i, x in enumerate(x0):
        d = centers - x
        w = np.exp(-0.5 * (d * d).sum(axis=1) / (h * h))
        X = np.column_stack([np.ones(len(d)), d])
        sw = np.sqrt(w)
        beta = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)[0]
        out[i] = beta[0]
    return out


def bin_counts(x: np.ndarray, y: np.ndarray, bins: int):
    """Occupancy and positives per equal-width bin over the data's bounding box."""
    rng = [[x[:, 0].min(), x[:, 0].max()], [x[:, 1].min(), x[:, 1].max()]]
    counts, e1, e2 = np.histogram2d(x[:, 0], x[:, 1], bins=bins, range=rng)
    pos, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=bins, range=rng, weights=y)
    return counts, pos, (0.5 * (e1[:-1] + e1[1:]), 0.5 * (e2[:-1] + e2[1:]))


def pick(n: int, k: int = 7) -> np.ndarray:
    """k indices spread evenly over range(n)."""
    return np.unique(np.linspace(0, n - 1, k).round().astype(int))


# ---------------------------------------------------------------------------
# estimate files


def check_univariate_fit(est: dict, u, z, nu) -> tuple[bool, str]:
    """mu_hat at a handful of grid points equals a plain-numpy refit."""
    if any(f != "none" for f in est["failure"]):
        return False, "failed grid points"
    x = floats(est["x"])
    h = float(est["bandwidth_used"][0])
    if float(est["nu"][0]) != nu:
        return False, f"nu {est['nu'][0]} != {nu}"
    idx = pick(len(x))
    ok, err = _close(floats(est["mu_hat"])[idx], local_linear_1d(u, z, h, x[idx]),
                     REFIT_RTOL)
    return ok, f"max |mu_hat - refit| = {err:.3g} at h={h:.6g}"


def check_grid(est: dict, lo: float, hi: float, n: int) -> tuple[bool, str]:
    ok, err = _close(floats(est["x"]), np.linspace(lo, hi, n), EXACT_RTOL)
    return ok, f"max |x - linspace| = {err:.3g}"


def check_inversion(est: dict, exponent) -> tuple[bool, str]:
    """p_hat = 1 - clip(mu_hat, 0, 1)^(1/exponent)."""
    mu = floats(est["mu_hat"])
    want = 1.0 - np.clip(mu, 0.0, 1.0) ** (1.0 / np.asarray(exponent, dtype=float))
    ok, err = _close(floats(est["p_hat"]), want, EXACT_RTOL, 1e-15)
    return ok, f"max |p_hat - inversion| = {err:.3g}"


def check_truth(est, truth, bound: float, stat=np.max) -> tuple[bool, str]:
    """stat (max by default) of |estimate - truth| stays within bound."""
    err = float(stat(np.abs(np.asarray(est) - truth)))
    return err <= bound, f"{stat.__name__} |estimate - truth| = {err:.4g} (bound {bound})"


def check_same(a, b) -> tuple[bool, str]:
    ok, err = _close(a, b, EXACT_RTOL, 1e-15)
    return ok, f"max |difference| = {err:.3g}"


def check_binned_grid(est: dict, counts, centers) -> tuple[bool, str]:
    """The grid is the centers of the nonempty bins, in row-major bin order."""
    k1, k2 = np.nonzero(counts)
    want = np.column_stack([centers[0][k1], centers[1][k2]])
    got = np.column_stack([floats(est["x1"]), floats(est["x2"])])
    ok, err = _close(got, want, EXACT_RTOL)
    return ok, f"{len(k1)} nonempty bins, max center error {err:.3g}"


def check_binned_fit(est: dict, counts, pos, centers) -> tuple[bool, str]:
    k1, k2 = np.nonzero(counts)
    c = np.column_stack([centers[0][k1], centers[1][k2]])
    z = (pos[k1, k2] == 0).astype(float)
    h = float(est["bandwidth_used"][0])
    idx = pick(len(c))
    ok, err = _close(floats(est["mu_hat"])[idx], local_linear_wls(c, z, h, c[idx]),
                     REFIT_RTOL)
    return ok, f"max |mu_hat - WLS refit| = {err:.3g} at h={h:.6g}"


# ---------------------------------------------------------------------------
# simulation tables


def read_table(out) -> tuple[dict, dict]:
    """Summary rows and per-replicate ISE lists, keyed by estimator."""
    table = read_csv(f"{out}/table.csv")
    rows = {e: {k: table[k][i] for k in table} for i, e in enumerate(table["estimator"])}
    tr = read_csv(f"{out}/table_traces.csv")
    traces = {e: [] for e in rows}
    for e, v in zip(tr["estimator"], tr["ise"]):
        traces.setdefault(e, []).append(None if v == "" else float(v))
    return rows, traces


def check_no_drops(rows, traces, replicates: int) -> tuple[bool, str]:
    bad = [e for e, r in rows.items()
           if int(r["n_failed_reps"]) != 0 or int(r["replicates"]) != replicates
           or len(traces[e]) != replicates or None in traces[e]]
    return not bad, f"estimators with dropped replicates: {bad}"


def check_summary(rows, traces) -> tuple[bool, str]:
    """Median and IQR (x 1e4) recomputed from the trace file."""
    worst = 0.0
    for e, r in rows.items():
        v = np.asarray([t for t in traces[e] if t is not None])
        if v.size == 0:
            return False, f"{e}: no scored replicates"
        med = float(np.median(v)) * 1e4
        iqr = float(np.quantile(v, 0.75) - np.quantile(v, 0.25)) * 1e4
        for got, want in ((float(r["med_ise_e4"]), med), (float(r["iqr_ise_e4"]), iqr)):
            ok, err = _close(got, want, EXACT_RTOL)
            worst = max(worst, err)
            if not ok:
                return False, f"{e}: table {got!r} != recomputed {want!r}"
    return True, f"max error {worst:.3g}"


def median_lower_limit(values, alpha: float) -> float:
    """One-sided lower confidence limit for the median: an order statistic.

    The j-th smallest of k values exceeds the median with probability
    P(Binomial(k, 1/2) <= j - 1); j is the largest order keeping that <= alpha.
    """
    v = np.sort(np.asarray(values, dtype=float))
    k = v.size
    tail, j = 0.0, 0
    while j < k:
        tail += math.comb(k, j) / 2.0**k
        if tail > alpha:
            break
        j += 1
    return float(v[max(j - 1, 0)])


def check_band(traces, upper: dict, alpha: float) -> tuple[bool, str]:
    """No estimator's median is shown, at level alpha, to exceed its band's top."""
    parts, ok = [], True
    for e, top in upper.items():
        lim = median_lower_limit([t for t in traces[e] if t is not None], alpha) * 1e4
        ok &= lim <= top
        parts.append(f"{e} lower limit {lim:.3g} <= {top}")
    return bool(ok), "; ".join(parts)


def check_order(traces, better: str, worse: str) -> tuple[bool, str]:
    """The median ISE of one estimator is below another's."""
    a, b = (float(np.median([t for t in traces[e] if t is not None])) * 1e4
            for e in (better, worse))
    return a < b, f"median 1e4*ISE {better} {a:.4g} < {worse} {b:.4g}"
