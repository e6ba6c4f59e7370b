"""True prevalence curves and covariate laws for simulation and diagnostics.

The normal law's density is written out, its quantile is the standard
library's ``statistics.NormalDist.inv_cdf``, and the mean survival q is a
composite Gauss-Legendre rule, so the module needs numpy alone.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

# mean_survival's rule: _GL_NODES Gauss-Legendre nodes on each of _GL_PANELS
# equal panels.  The panel count is even, so an edge falls on the interval's
# midpoint, where model i's kink at x = 0 lies for both its laws.
_GL_PANELS = 16
_GL_NODES = 50


@dataclass(frozen=True)
class CovariateLaw:
    """Sampling distribution of the covariate: uniform(a, b) or normal(m, s)."""

    kind: str
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ValueError("covariate law must be uniform or normal")
        if self.kind == "uniform" and not self.b > self.a:
            raise ValueError("uniform law needs a < b")
        if self.kind == "normal" and not self.b > 0:
            raise ValueError("normal law needs positive scale")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size=n)
        return rng.normal(self.a, self.b, size=n)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            inside = (x >= self.a) & (x <= self.b)
            return np.where(inside, 1.0 / (self.b - self.a), 0.0)
        t = (x - self.a) / self.b
        return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) / self.b

    def quantile(self, q: float) -> float:
        if self.kind == "uniform":
            return self.a + q * (self.b - self.a)
        return statistics.NormalDist(self.a, self.b).inv_cdf(q)


def _fd_derivative(p: Callable, order: int):
    step = 1e-5 if order == 1 else 1e-4

    def deriv(x):
        x = np.asarray(x, dtype=float)
        if order == 1:
            return (p(x + step) - p(x - step)) / (2.0 * step)
        return (p(x + step) - 2.0 * p(x) + p(x - step)) / step**2

    return deriv


@dataclass(frozen=True)
class PrevalenceModel:
    """A true conditional prevalence curve p = pi with its covariate law.

    p must stay in [0, 1) on the law's central range.  Derivative callables
    default to central finite differences of p.
    """

    model_id: str
    pi: Callable
    law: CovariateLaw
    pi_prime: Callable | None = None
    pi_double_prime: Callable | None = None

    def __post_init__(self):
        probe = np.linspace(self.law.quantile(0.001), self.law.quantile(0.999), 512)
        vals = self.p(probe)
        if (vals < 0.0).any() or (vals >= 1.0).any():
            raise ValueError("pi must map the support into [0, 1)")

    def p(self, x) -> np.ndarray:
        return np.asarray(self.pi(np.asarray(x, dtype=float)))

    def p_prime(self, x) -> np.ndarray:
        f = self.pi_prime if self.pi_prime is not None else _fd_derivative(self.pi, 1)
        return np.asarray(f(np.asarray(x, dtype=float)))

    def p_double_prime(self, x) -> np.ndarray:
        f = (
            self.pi_double_prime
            if self.pi_double_prime is not None
            else _fd_derivative(self.pi, 2)
        )
        return np.asarray(f(np.asarray(x, dtype=float)))

    def f(self, x) -> np.ndarray:
        return self.law.pdf(x)

    def quantile_band(self, lo: float = 0.05, hi: float = 0.95) -> tuple[float, float]:
        return self.law.quantile(lo), self.law.quantile(hi)

    def mean_survival(self) -> float:
        """q = E{1 - p(X)}, by quadrature against the covariate density."""
        if self.law.kind == "uniform":
            lo, hi = self.law.a, self.law.b
        else:
            lo = self.law.a - 10.0 * self.law.b
            hi = self.law.a + 10.0 * self.law.b
        t, w = np.polynomial.legendre.leggauss(_GL_NODES)
        edges = np.linspace(lo, hi, _GL_PANELS + 1)
        half = 0.5 * np.diff(edges)[:, None]
        x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * t).ravel()
        return float(np.sum((half * w).ravel() * (1.0 - self.p(x)) * self.law.pdf(x)))


def _pi_i(x):
    x = np.asarray(x, dtype=float)
    return (np.sin(np.pi * x / 2.0) + 1.2) / (
        20.0 + 40.0 * x * x * (np.sign(x) + 1.0)
    )


def _pi_ii(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-4.0 + 2.0 * x)
    return e / (8.0 + 8.0 * e)


def _pi_ii_prime(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-4.0 + 2.0 * x)
    return 2.0 * e / (8.0 * (1.0 + e) ** 2)


def _pi_ii_double_prime(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-4.0 + 2.0 * x)
    return 4.0 * e * (1.0 - e) / (8.0 * (1.0 + e) ** 3)


def _pi_sq(x):
    x = np.asarray(x, dtype=float)
    return x * x / 8.0


def _pi_sq_prime(x):
    return np.asarray(x, dtype=float) / 4.0


def _pi_sq_double_prime(x):
    return np.full_like(np.asarray(x, dtype=float), 0.25)


_LAWS = {
    "i": {"uniform": CovariateLaw("uniform", -3.0, 3.0),
          "normal": CovariateLaw("normal", 0.0, 1.5)},
    "ii": {"uniform": CovariateLaw("uniform", -1.0, 4.0),
           "normal": CovariateLaw("normal", 2.0, 1.5)},
    "iii": {"uniform": CovariateLaw("uniform", 0.0, 1.0),
            "normal": CovariateLaw("normal", 0.5, 0.5)},
    "iv": {"uniform": CovariateLaw("uniform", -1.0, 1.0),
           "normal": CovariateLaw("normal", 0.0, 0.75)},
}

_SHAPES = {
    "i": (_pi_i, None, None),
    "ii": (_pi_ii, _pi_ii_prime, _pi_ii_double_prime),
    "iii": (_pi_sq, _pi_sq_prime, _pi_sq_double_prime),
    "iv": (_pi_sq, _pi_sq_prime, _pi_sq_double_prime),
}


def make_model(model_id: str, law: str = "uniform") -> PrevalenceModel:
    """Build one of the four benchmark models with its uniform or normal law."""
    if model_id not in _SHAPES:
        raise ValueError(f"unknown model {model_id!r}; choose from i, ii, iii, iv")
    if law not in ("uniform", "normal"):
        raise ValueError("law must be 'uniform' or 'normal'")
    pi, d1, d2 = _SHAPES[model_id]
    return PrevalenceModel(model_id, pi, _LAWS[model_id][law], d1, d2)


def constant_model(p0: float, law: CovariateLaw | None = None) -> PrevalenceModel:
    """Flat prevalence curve p(x) = p0 (zero bias for any local linear fit)."""
    if not 0.0 <= p0 < 1.0:
        raise ValueError("p0 must lie in [0, 1)")
    if law is None:
        law = CovariateLaw("uniform", 0.0, 1.0)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PrevalenceModel(
        "custom", lambda x: np.full_like(np.asarray(x, dtype=float), p0), law,
        zero, zero,
    )
