"""Dense local-polynomial fits: the reference the blocked moment engine is tested against.

These are the grid-fit bodies that ``poolreg.smoothing`` used before its
moment engine was blocked and re-centred.  Each forms the full (J, C) matrix
of kernel arguments ``t = (u - x)/h`` for a chunk of C evaluation points and
accumulates the moments of ``t`` directly, with no re-centring, so they are
slow but transparently exact.  Beside a value that is NaN where the fit
fails, each returns a ``flag`` per point, 0 where the fit is ok and 2 where
it fails, by the engine's failure rule.  Only the tests import them.
"""

import math

import numpy as np

from poolreg.kernels import Kernel
from poolreg.smoothing import PIVOT_REL_TOL, _solve_batched

_CHUNK_BUDGET = 2_000_000  # max J*C elements per temporary in grid fits


def _grid_fit_1d(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
    *,
    want_self_weight: bool = False,
):
    """Vectorized local polynomial fit of (u, z) at every point of x_eval.

    Returns a dict with ``value`` (NaN where failed), ``flag`` (int codes
    0=ok, 2=failed), ``count``, ``alpha`` (solution of
    S a = e1 in the scaled basis, for effective-weight reconstruction) and,
    on request, the leave-one-out self weight ``self_w`` (valid when the
    evaluation points are design points).
    """
    L1 = degree + 1
    M = x_eval.shape[0]
    values = np.full(M, np.nan)
    flags = np.full(M, 2, dtype=np.int8)
    counts = np.zeros(M, dtype=np.int64)
    alphas = np.zeros((M, L1))
    self_w = np.full(M, np.nan) if want_self_weight else None

    J = u.shape[0]
    chunk = max(1, min(M, _CHUNK_BUDGET // max(J, 1)))
    n_mom = 2 * degree + 1

    for start in range(0, M, chunk):
        xs = x_eval[start : start + chunk]
        Cc = xs.shape[0]
        t = (u[:, None] - xs[None, :]) / h
        w = kern.pdf(t)

        m = np.empty((n_mom, Cc))
        acc = w.copy()
        m[0] = acc.sum(axis=0)
        for k in range(1, n_mom):
            acc *= t
            m[k] = acc.sum(axis=0)

        r = np.empty((L1, Cc))
        acc = w * z[:, None]
        r[0] = acc.sum(axis=0)
        for k in range(1, L1):
            acc *= t
            r[k] = acc.sum(axis=0)

        idx = np.add.outer(np.arange(L1), np.arange(L1))
        S = m[idx].transpose(2, 0, 1)

        e1 = np.zeros((Cc, L1, 1))
        e1[:, 0, 0] = 1.0
        a, rel_piv = _solve_batched(S, e1)
        a = a[:, :, 0]

        cnt = (w > 0.0).sum(axis=0)
        ok_count = cnt >= L1
        ok_piv = rel_piv >= PIVOT_REL_TOL
        ok = ok_count & ok_piv

        val = np.einsum("ck,kc->c", a, r)
        sl = slice(start, start + Cc)
        values[sl] = np.where(ok, val, np.nan)
        flags[sl] = np.where(ok, 0, 2).astype(np.int8)
        counts[sl] = cnt
        alphas[sl] = a
        if want_self_weight:
            self_w[sl] = kern.at_zero * a[:, 0]

    out = {"value": values, "flag": flags, "count": counts, "alpha": alphas}
    if want_self_weight:
        out["self_w"] = self_w
    return out


def local_poly_derivatives(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
) -> np.ndarray:
    """Estimated derivatives f^(k)(x), k = 0..degree, at each x (NaN if failed).

    The fit solves in the scaled basis t = (u-x)/h, so the coefficient for
    t^k is beta_k = f^(k) h^k / k!.
    """
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    x_eval = np.asarray(x_eval, dtype=float)
    L1 = degree + 1
    M = x_eval.shape[0]
    out = np.full((M, L1), np.nan)

    J = u.shape[0]
    chunk = max(1, min(M, _CHUNK_BUDGET // max(J, 1)))
    n_mom = 2 * degree + 1
    for start in range(0, M, chunk):
        xs = x_eval[start : start + chunk]
        Cc = xs.shape[0]
        t = (u[:, None] - xs[None, :]) / h
        w = kern.pdf(t)
        m = np.empty((n_mom, Cc))
        acc = w.copy()
        m[0] = acc.sum(axis=0)
        for k in range(1, n_mom):
            acc *= t
            m[k] = acc.sum(axis=0)
        r = np.empty((L1, Cc))
        acc = w * z[:, None]
        r[0] = acc.sum(axis=0)
        for k in range(1, L1):
            acc *= t
            r[k] = acc.sum(axis=0)
        idx = np.add.outer(np.arange(L1), np.arange(L1))
        S = m[idx].transpose(2, 0, 1)
        beta, rel_piv = _solve_batched(S, r.T[:, :, None])
        beta = beta[:, :, 0]
        ok = ((w > 0.0).sum(axis=0) >= L1) & (rel_piv >= PIVOT_REL_TOL)
        fact = np.array([math.factorial(k) / h**k for k in range(L1)])
        deriv = beta * fact[None, :]
        out[start : start + Cc] = np.where(ok[:, None], deriv, np.nan)
    return out


def grid_fit_local_linear_multi(
    centers: np.ndarray,
    z: np.ndarray,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
    *,
    want_self_weight: bool = False,
):
    """Local linear fit with d covariates, vectorized over evaluation points.

    ``centers`` is (J, d), ``x_eval`` is (M, d).  Weights use the kernel's
    spherically symmetric radial profile.  Returns the same dict layout as
    the univariate grid fit.
    """
    centers = np.asarray(centers, dtype=float)
    x_eval = np.asarray(x_eval, dtype=float)
    z = np.asarray(z, dtype=float)
    J, d = centers.shape
    M = x_eval.shape[0]
    n = d + 1

    values = np.full(M, np.nan)
    flags = np.full(M, 2, dtype=np.int8)
    counts = np.zeros(M, dtype=np.int64)
    self_w = np.full(M, np.nan) if want_self_weight else None

    chunk = max(1, min(M, _CHUNK_BUDGET // max(J * d, 1)))
    for start in range(0, M, chunk):
        xs = x_eval[start : start + chunk]
        Cc = xs.shape[0]
        t = (centers[:, None, :] - xs[None, :, :]) / h  # (J, C, d)
        w = kern.radial_profile((t * t).sum(axis=2))  # (J, C)

        S = np.empty((Cc, n, n))
        T = np.empty((Cc, n))
        S[:, 0, 0] = w.sum(axis=0)
        wz = w * z[:, None]
        T[:, 0] = wz.sum(axis=0)
        for k in range(d):
            wtk = w * t[:, :, k]
            S[:, 0, k + 1] = S[:, k + 1, 0] = wtk.sum(axis=0)
            T[:, k + 1] = (wz * t[:, :, k]).sum(axis=0)
            for l in range(k, d):
                S[:, k + 1, l + 1] = S[:, l + 1, k + 1] = (wtk * t[:, :, l]).sum(axis=0)

        e1 = np.zeros((Cc, n, 1))
        e1[:, 0, 0] = 1.0
        a, rel_piv = _solve_batched(S, e1)
        a = a[:, :, 0]

        cnt = (w > 0.0).sum(axis=0)
        ok = (cnt >= n) & (rel_piv >= PIVOT_REL_TOL)
        val = np.einsum("ck,ck->c", a, T)

        sl = slice(start, start + Cc)
        values[sl] = np.where(ok, val, np.nan)
        flags[sl] = np.where(ok, 0, 2).astype(np.int8)
        counts[sl] = cnt
        if want_self_weight:
            # radial_profile(0) == 1 for every family
            self_w[sl] = a[:, 0]

    out = {"value": values, "flag": flags, "count": counts}
    if want_self_weight:
        out["self_w"] = self_w
    return out


def relative_pivots(u, degree, kern, h, x_eval):
    """Smallest relative pivot of each dense moment matrix, as the fits above form it.

    ``u`` is (J, d) and ``x_eval`` (M, d): a degree-``degree`` fit for d = 1,
    local linear otherwise.  The pivot measures how well conditioned each
    local fit is, and so how far any two floating-point solutions of it can
    honestly differ.
    """
    t = (u[:, None, :] - x_eval[None, :, :]) / h
    if u.shape[1] == 1:
        w = kern.pdf(t[:, :, 0])
        phi = t[:, :, 0, None] ** np.arange(degree + 1)
    else:
        w = kern.radial_profile((t * t).sum(axis=2))
        phi = np.concatenate([np.ones(t.shape[:2] + (1,)), t], axis=2)
    S = np.einsum("jm,jma,jmb->mab", w, phi, phi)
    return _solve_batched(S, np.zeros(S.shape[:2] + (1,)))[1]
