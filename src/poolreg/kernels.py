"""Smoothing kernels: densities, radial profiles and moment constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Kernel:
    """A symmetric, nonnegative, density-normalized smoothing kernel.

    Attributes
    ----------
    family : str
        One of ``"gaussian"``, ``"epanechnikov"``, ``"uniform"``.
    support_radius : float
        Half-width of the support; ``inf`` for the gaussian.
    second_moment : float
        ``int u^2 K(u) du`` (the bias constant b of a local linear fit).
    l2_norm : float
        ``int K(u)^2 du`` (enters the variance constant v = l2_norm / f).
    """

    family: str
    support_radius: float
    second_moment: float
    l2_norm: float

    def pdf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the density K(u) elementwise.

        The result goes to ``out`` when given, which may be ``u`` itself: grid
        fits evaluate their weights in place, in reused buffers.
        """
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
        """Unnormalized spherically-symmetric profile at squared radius r2.

        Used for d-variate weights; the normalization constant cancels in
        any weight-normalized smoother, so it is omitted.  ``out`` works as in
        ``pdf``.
        """
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

    @property
    def at_zero(self) -> float:
        """K(0), needed for leave-one-out self weights."""
        if self.family == "gaussian":
            return 1.0 / _SQRT_2PI
        if self.family == "epanechnikov":
            return 0.75
        return 0.5


GAUSSIAN = Kernel("gaussian", math.inf, 1.0, 1.0 / (2.0 * math.sqrt(math.pi)))
EPANECHNIKOV = Kernel("epanechnikov", 1.0, 0.2, 0.6)
UNIFORM = Kernel("uniform", 1.0, 1.0 / 3.0, 0.5)

_BY_NAME = {k.family: k for k in (GAUSSIAN, EPANECHNIKOV, UNIFORM)}


def kernel(name: str) -> Kernel:
    """Look a kernel up by family name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None
