"""End-to-end oracle: every CLI run gives the same result with its fast paths off.

Each fast path has its own oracle test; this one runs whole commands both
ways, so that a fault where two fast paths meet shows too.  Three module
attributes switch off the fast paths of the CV search, the d-variate fit
and the data parse:

* ``smoothing._screen_bounds`` bounding nothing (root inf, lower bound -inf)
  sends every univariate CV search to the exhaustive exact search;
* ``smoothing._design_lattice`` returning None sends every d-variate fit,
  the CV search's candidates included, to the exact engine;
* ``io._plain_text`` returning False sends every data file to the row loop
  (and so past ``io._group_by_id``).

No switch turns off the pooling sorts (``pool_homogeneous``'s default sort
with its tie fix-up, ``pool_binned``'s narrowed radix key) or
``_pool_means``'s reshaped view: both runs take them, so this test does not
check them.  ``test_homogeneous_pools_take_the_stable_order`` and
``TestPoolBinned::test_members_keep_the_stable_order_by_bin``
(``tests/test_pooling.py``) hold them to the stable order.

The inputs are drawn as ``test_cli_fuzz.py`` draws them: every command and
estimator, fixed, cv and plug-in bandwidths, and the same hazards.  Each
input runs through ``poolreg.cli.main`` with the fast paths on, then off.
The two runs must exit alike, log the same error line and write the same
files.  Univariate result files must be byte-identical.  In a d-variate
estimate the lattice's moments are exact only to rounding, so there the
bandwidth, the failure column and the grid must be equal, p_hat and mu_hat
within ``D_VARIATE_TOL`` of each other, and the clamp flags equal except
where mu_hat lies within that distance of 0 or 1.
"""

import csv
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poolreg import io as pio
from poolreg import smoothing
from poolreg.cli import main
from test_cli_fuzz import MODEL_ROWS, ROWS, RUNS, _write_input, cli_cases

# the fuzz gate's sizes, and one size at which pools of up to 8 still give the
# CV screen its 150 design points
SIZES = {"rows": ROWS + (1200,), "model_rows": MODEL_ROWS + (1200,)}

# A lattice fit's value moves from the engine's by about eps times the
# moment matrix's condition number: up to 8.2e-15 on a 12,100-row estimate,
# and 6.7e-16 on this test's draws.  The bound leaves room for conditioning
# a thousand times worse.
D_VARIATE_TOL = 1e-11


def _no_bound(u, z, degree, kern, cands, eval_idx):
    return np.full(cands.shape[0], np.inf), np.full(cands.shape[0], -np.inf)


def _run(argv, out, caplog):
    """Exit code, error lines and written files of one in-process CLI run."""
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="poolreg"):
        code = main([*argv, "--out", str(out), "--format", "csv,json"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
    return code, errors, files


def _same_d_variate_estimate(fast: bytes, exact: bytes) -> None:
    fast_rows = list(csv.DictReader(fast.decode().splitlines()))
    exact_rows = list(csv.DictReader(exact.decode().splitlines()))
    assert len(fast_rows) == len(exact_rows)
    for i, (a, b) in enumerate(zip(fast_rows, exact_rows)):
        assert a.keys() == b.keys()
        for key in a:
            if key in ("p_hat", "mu_hat"):
                if a[key] != b[key]:  # NaN where a point failed
                    assert abs(float(a[key]) - float(b[key])) <= D_VARIATE_TOL, (i, key)
            elif key == "clamp_flag":
                mu = float(b["mu_hat"])
                assert (a[key] == b[key] or min(abs(mu), abs(1.0 - mu)) <= D_VARIATE_TOL), i
            else:
                assert a[key] == b[key], (i, key)


@pytest.mark.parametrize("command, estimator", RUNS)
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fast_paths_change_no_result(command, estimator, data, tmp_path_factory,
                                     caplog):
    command_line, argv, x, y = data.draw(cli_cases(command, estimator, **SIZES))
    tmp = tmp_path_factory.mktemp("oracle")
    if x is not None:
        _write_input(command_line, x, y, tmp / "input.csv")
        argv = [str(tmp / "input.csv") if a == "INPUT" else a for a in argv]
    argv = ["estimate" if command_line.startswith("estimate") else command_line, *argv]
    fast = _run(argv, tmp / "fast", caplog)
    with mock.patch.object(smoothing, "_screen_bounds", _no_bound), \
            mock.patch.object(smoothing, "_design_lattice", lambda *args: None), \
            mock.patch.object(pio, "_plain_text", lambda path: False):
        exact = _run(argv, tmp / "exact", caplog)
    assert fast[:2] == exact[:2]
    assert fast[2].keys() == exact[2].keys()
    d_variate = x is not None and x.shape[1] > 1
    for name, text in fast[2].items():
        if not d_variate:
            assert text == exact[2][name], name
        elif name.endswith(".csv"):
            _same_d_variate_estimate(text, exact[2][name])
