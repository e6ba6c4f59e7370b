"""The blocked moment engine against the dense oracle in ``dense_oracle.py``.

Both solve the same local least-squares problems in floating point, in
different summation orders.  Counts and flags must agree exactly.  Values,
intercept weights, self weights and derivatives must agree to 1e-10 relative
wherever the local moment matrix is well conditioned (relative pivot
``rho >= 1e-3``); below that the bound grows as ``1e-3 / rho``, because an
ill-conditioned solve amplifies rounding in either implementation alike.

The engine's moments and counts must also equal, bit for bit, those of the
engine as it formed its weights before (``blocked_oracle.py``): the two
round every term alike.
"""

import numpy as np
from blocked_oracle import local_moments as blocked_moments
from dense_oracle import (
    _grid_fit_1d as dense_fit_1d,
    grid_fit_local_linear_multi as dense_fit_multi,
    local_poly_derivatives as dense_derivatives,
    relative_pivots,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poolreg import EPANECHNIKOV, GAUSSIAN, UNIFORM
from poolreg.smoothing import (
    _grid_fit_1d,
    _local_moments,
    grid_fit_local_linear_multi,
    local_poly_derivatives,
)

RTOL = 1e-10
WELL_CONDITIONED = 1e-3

_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def designs(draw, d):
    """A design, responses, evaluation points and a bandwidth.

    Designs sit far from the origin or near it; lattice designs put design
    points exactly on the edge of compact kernel supports.  The bandwidth
    runs from far below the design spacing (failing fits) to wider than the
    design.
    """
    degree = draw(st.integers(1, 3)) if d == 1 else 1
    J = draw(st.integers(degree + 1 if d == 1 else d + 1, 5000))
    M = draw(st.integers(1, 120))
    shift = draw(st.sampled_from([0.0, 1e3, -1e3, 0.5]))
    lattice = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if lattice:
        u = shift + rng.integers(0, 64, (J, d)) / 64.0
        x = shift + rng.integers(-4, 68, (M, d)) / 64.0
        h = draw(st.integers(1, 128)) / 64.0
    else:
        u = shift + rng.uniform(0.0, 1.0, (J, d))
        x = np.concatenate([u[rng.integers(0, J, M // 2)],
                            shift + rng.uniform(-0.1, 1.1, (M - M // 2, d))])
        h = 10.0 ** draw(st.floats(-5.0, 1.0))
    z = rng.normal(size=J)
    kern = draw(st.sampled_from([GAUSSIAN, EPANECHNIKOV, UNIFORM]))
    return u, z, x, h, degree, kern


def _close(got, want, scale, rho):
    """|got - want| <= RTOL * scale, the bound growing as 1/rho below WELL_CONDITIONED."""
    bound = RTOL * np.maximum(scale, 1e-300) * np.maximum(1.0, WELL_CONDITIONED / rho)
    return np.abs(got - want) <= bound


def _check_fits(got, want, rho, zmax):
    np.testing.assert_array_equal(got["count"], want["count"])
    np.testing.assert_array_equal(np.isnan(got["value"]), want["flag"] == 2)
    ok = want["flag"] == 0
    v_scale = np.maximum(np.abs(want["value"][ok]), zmax)
    assert _close(got["value"][ok], want["value"][ok], v_scale, rho[ok]).all()
    assert np.isnan(got["value"][want["flag"] == 2]).all()
    return ok


@_SETTINGS
@given(designs(d=1))
def test_univariate_fit_matches_dense_oracle(case):
    u, z, x, h, degree, kern = case
    got = _grid_fit_1d(u[:, 0], z, degree, kern, h, x[:, 0])
    want = dense_fit_1d(u[:, 0], z, degree, kern, h, x[:, 0], want_self_weight=True)
    rho = relative_pivots(u, degree, kern, h, x)
    ok = _check_fits(got, want, rho, np.abs(z).max())

    a_scale = np.abs(want["alpha"][ok]).max(axis=1, keepdims=True)
    assert _close(got["alpha"][ok], want["alpha"][ok], a_scale, rho[ok, None]).all()
    assert _close(got["self_w"][ok], want["self_w"][ok],
                  kern.at_zero * a_scale[:, 0], rho[ok]).all()


@_SETTINGS
@given(designs(d=1))
def test_derivatives_match_dense_oracle(case):
    u, z, x, h, degree, kern = case
    got = local_poly_derivatives(u[:, 0], z, degree, kern, h, x[:, 0])
    want = dense_derivatives(u[:, 0], z, degree, kern, h, x[:, 0])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    # compare the scaled-basis coefficients beta_k = f^(k) h^k / k!
    unscale = np.array([h**k / np.prod(np.arange(1, k + 1)) for k in range(degree + 1)])
    ok = ~np.isnan(want[:, 0])
    g, w = got[ok] * unscale, want[ok] * unscale
    scale = np.maximum(np.abs(w).max(axis=1, keepdims=True), np.abs(z).max())
    rho = relative_pivots(u, degree, kern, h, x)[ok, None]
    assert _close(g, w, scale, rho).all()


@_SETTINGS
@given(designs(d=2))
def test_bivariate_fit_matches_dense_oracle(case):
    u, z, x, h, _, kern = case
    got = grid_fit_local_linear_multi(u, z, kern, h, x)
    want = dense_fit_multi(u, z, kern, h, x, want_self_weight=True)
    rho = relative_pivots(u, 1, kern, h, x)
    ok = _check_fits(got, want, rho, np.abs(z).max())
    assert _close(got["self_w"][ok], want["self_w"][ok],
                  np.abs(want["self_w"][ok]), rho[ok]).all()


@st.composite
def engine_cases(draw):
    """``designs`` in d = 1-3, a third of them at one of two kinds of extreme h.

    At the underflow edge the largest |t| of the design is 36-40, around the
    last positive gaussian weight (|t| = 38.58).  Scaled by 1e306 the
    coordinates stay finite, but (u - x)/h overflows.
    """
    d = draw(st.integers(1, 3))
    u, z, x, h, degree, kern = draw(designs(d))
    kind = draw(st.sampled_from(["as drawn", "as drawn", "as drawn", "as drawn",
                                 "underflow edge", "overflow"]))
    if kind == "underflow edge":
        span = max((u.max(axis=0) - x.min(axis=0)).max(),
                   (x.max(axis=0) - u.min(axis=0)).max())
        h = span / draw(st.floats(36.0, 40.0))
    elif kind == "overflow":
        centre = u.mean(axis=0)
        u, x = (u - centre) * 1e306, (x - centre) * 1e306
    return u, z, x, h, degree, kern


def _same_bits(got, want) -> bool:
    """Equal arrays, NaN where the other is NaN and bit for bit elsewhere (-0.0 too)."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases())
def test_engine_moments_equal_the_blocked_oracle_bit_for_bit(case):
    u, z, x, h, degree, kern = case
    S, r, count = _local_moments(u, z, degree, kern, h, x)
    S0, r0, count0 = blocked_moments(u, z, degree, kern, h, x)
    np.testing.assert_array_equal(count, count0)
    assert _same_bits(S, S0)
    assert _same_bits(r, r0)
