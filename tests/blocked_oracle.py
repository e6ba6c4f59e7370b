"""The blocked moment engine as it formed its kernel weights, kept as a bit-for-bit oracle.

``local_moments`` runs the body of ``poolreg.smoothing._local_moments`` before
its weights were formed in fewer passes: a count pass over every block and
slab, the basis built from ``np.vander``, fancy indexing and ``np.hstack``,
kernel arguments from a two-operand broadcast, ``u * u`` squared by
``np.multiply``, and the exact shift applied block by block.  Every rounding
of the engine is the same, so S, r and the count must equal this module's
bit for bit.  Only the tests import it.
"""

import math
from dataclasses import dataclass

import numpy as np

from poolreg.kernels import Kernel

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EVAL_BLOCK = 64
_DESIGN_SLAB = 2048


@dataclass(frozen=True)
class _Weights:
    """A kernel family's ``pdf`` and ``radial_profile``, squaring by ``np.multiply``."""

    family: str

    def pdf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty_like(u)
        if self.family == "gaussian":
            np.multiply(u, u, out=out)
            out *= -0.5
            np.exp(out, out=out)
            out /= _SQRT_2PI
            return out
        inside = np.abs(u) <= 1.0
        if self.family == "epanechnikov":
            np.multiply(u, u, out=out)
            np.subtract(1.0, out, out=out)
            out *= 0.75
            out[~inside] = 0.0
            return out
        # uniform
        return np.multiply(inside, 0.5, out=out)

    def radial_profile(self, r2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        r2 = np.asarray(r2, dtype=float)
        if out is None:
            out = np.empty_like(r2)
        if self.family == "gaussian":
            np.multiply(r2, -0.5, out=out)
            return np.exp(out, out=out)
        if self.family == "epanechnikov":
            np.subtract(1.0, r2, out=out)
            return np.maximum(out, 0.0, out=out)
        return np.multiply(r2 <= 1.0, 1.0, out=out)


def local_moments(u, z, degree: int, kern: Kernel, h: float, x_eval):
    """(S, r, count) at every point of x_eval, by the oracle engine."""
    return _local_moments(u, z, degree, _Weights(kern.family), h, x_eval)


def _eval_blocks(x_eval: np.ndarray, width: float) -> list[np.ndarray]:
    cell = np.floor((x_eval - x_eval.min(axis=0)) / width)
    order = np.lexsort(cell.T[::-1])
    cell = cell[order]
    starts = np.flatnonzero(np.r_[True, (cell[1:] != cell[:-1]).any(axis=1)])
    rank = np.arange(order.size) - np.repeat(starts, np.diff(np.r_[starts, order.size]))
    return np.split(order, np.flatnonzero(rank % _EVAL_BLOCK == 0)[1:])


def _basis(s: np.ndarray, n: int) -> np.ndarray:
    if s.shape[1] == 1:
        return np.vander(s[:, 0], n, increasing=True)
    return np.column_stack([np.ones(s.shape[0]), s])


def _shift_matrix(delta: np.ndarray, n: int) -> np.ndarray:
    C, d = delta.shape
    A = np.zeros((C, n, n))
    if d == 1:
        pw = np.vander(-delta[:, 0], n, increasing=True)
        for k in range(n):
            for j in range(k + 1):
                A[:, k, j] = math.comb(k, j) * pw[:, k - j]
    else:
        A[:, 0, 0] = 1.0
        A[:, 1:, 0] = -delta
        A[:, np.arange(1, n), np.arange(1, n)] = 1.0
    return A


def _local_moments(
    u: np.ndarray,
    z: np.ndarray,
    degree: int,
    kern: Kernel,
    h: float,
    x_eval: np.ndarray,
):
    J, d = u.shape
    M = x_eval.shape[0]
    n = degree + 1 if d == 1 else d + 1
    iu, ju = np.triu_indices(n)
    n_pairs = iu.size
    S = np.zeros((M, n, n))
    r = np.zeros((M, n))
    count = np.zeros(M, dtype=np.int64)
    if M == 0:
        return S, r, count

    # one set of buffers per call: a fresh 1 MiB temporary per block and slab
    # costs more in page faults than the arithmetic done on it
    shape = (min(M, _EVAL_BLOCK), min(J, _DESIGN_SLAB))
    w_buf = np.empty(shape)
    t_buf = np.empty(shape) if d > 1 else None
    pos_buf = np.empty(shape, dtype=bool)
    # Re-centring cancels terms as large as (|t| + 2|delta|)^(2 degree) down
    # to moments of size |t|^(2 degree).  Blocks 2h/degree wide keep
    # |delta| <= 1/degree, so that loss stays below (1 + 2/degree)^(2 degree),
    # under e^4 ~ 55 units in the last place whatever the degree.
    # A (u - x)/h that overflows gives a weight of 0 and moments of inf or NaN,
    # so its fit fails on the pivot: numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in _eval_blocks(x_eval, 2.0 * h / degree):
            x = x_eval[idx]
            x0 = 0.5 * (x.min(axis=0) + x.max(axis=0))
            G = np.zeros((idx.size, n_pairs + n))
            cnt = np.zeros(idx.size, dtype=np.int64)
            for lo in range(0, J, _DESIGN_SLAB):
                us = u[lo : lo + _DESIGN_SLAB]
                w = w_buf[: idx.size, : us.shape[0]]
                np.subtract(us[None, :, 0], x[:, None, 0], out=w)
                w /= h
                if d == 1:
                    kern.pdf(w, out=w)
                else:
                    np.multiply(w, w, out=w)
                    t = t_buf[: idx.size, : us.shape[0]]
                    for k in range(1, d):
                        np.subtract(us[None, :, k], x[:, None, k], out=t)
                        t /= h
                        w += np.multiply(t, t, out=t)
                    kern.radial_profile(w, out=w)
                cnt += np.greater(w, 0.0, out=pos_buf[: idx.size, : us.shape[0]]).sum(axis=1)
                phi = _basis((us - x0) / h, n)
                zs = z[lo : lo + _DESIGN_SLAB, None]
                G += w @ np.hstack([phi[:, iu] * phi[:, ju], zs * phi])
            S_s = np.empty((idx.size, n, n))
            S_s[:, iu, ju] = G[:, :n_pairs]
            S_s[:, ju, iu] = G[:, :n_pairs]
            A = _shift_matrix((x - x0) / h, n)
            S[idx] = A @ S_s @ A.transpose(0, 2, 1)
            r[idx] = (A @ G[:, n_pairs:, None])[:, :, 0]
            count[idx] = cnt
    return S, r, count
