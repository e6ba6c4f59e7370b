"""Every call site the benchmark's tracer hooks must still exist in poolreg.

A traced benchmark run counts a missing attribute in ``trace.hooks_missing``
and silently loses its spans; this test fails on the rename instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.HOOKS


@pytest.mark.parametrize(
    "module, attribute", [(m, a) for m, a, _, _ in _hooks()], ids=lambda v: v
)
def test_hook_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
