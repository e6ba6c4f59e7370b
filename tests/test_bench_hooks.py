"""Every call site the benchmark's tracer hooks must still exist in poolreg.

A traced benchmark run counts a missing attribute in ``trace.hooks_missing``
and silently loses its spans; this test fails on the rename instead.  The
tracer's counters also bind arguments by name and read attributes of the
results, so a traced CLI run checks that they still fit.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from poolreg import (
    make_model,
    pool_homogeneous,
    pool_random,
    sample_replicate,
    seed_stream,
)
from poolreg.cli import main
from poolreg.io import write_individual_csv, write_pooled_csv

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "module, attribute", [(m, a) for m, a, _, _ in _tracing().HOOKS], ids=lambda v: v
)
def test_hook_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


def test_traced_cli_run_counts_what_it_reads(tmp_path):
    raw = sample_replicate(make_model("iii"), 300, seed_stream(31))
    individual = write_individual_csv(raw, tmp_path / "individual.csv")
    pooled = write_pooled_csv(pool_homogeneous(raw, 5), tmp_path / "pooled.csv")
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        for path, nu in ((individual, ["--nu", "5"]), (pooled, [])):
            assert main(["estimate", "--input", str(path), "--estimator", "dh", *nu,
                         "--bandwidth", "fixed:0.2",
                         "--out", str(tmp_path / path.stem)]) == 0
        assert main(["simulate", "--model", "iii", "--N", "200", "--nu", "2",
                     "--estimator", "DH", "--replicates", "2", "--seed", "3",
                     "--bandwidth", "fixed:0.2", "--traces",
                     "--out", str(tmp_path / "sim")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == 0
    assert tracer.counts["io.rows_parsed"] == 2 * raw.n
    assert tracer.counts["io.bytes_read"] == (individual.stat().st_size
                                             + pooled.stat().st_size)
    written = [p for p in tmp_path.glob("*/*") if p.is_file()]
    assert tracer.counts["io.bytes_written"] == sum(p.stat().st_size for p in written)
    assert tracer.counts["simulation.replicates_dropped"] == 0


def test_traced_estimate_keeps_every_estimator_span(tmp_path):
    # a step that bound pool_* or estimate_* at import time would still pass
    # every other test, but its calls would bypass the tracer's hooks
    raw = sample_replicate(make_model("iii"), 300, seed_stream(32))
    individual = write_individual_csv(raw, tmp_path / "individual.csv")
    homogeneous = write_pooled_csv(pool_homogeneous(raw, 5), tmp_path / "hom.csv")
    random = write_pooled_csv(pool_random(raw, 5, 4), tmp_path / "rnd.csv")
    runs = [
        (individual, "dh", ["--nu", "5"], "pooling.pool_homogeneous"),
        (individual, "dm", ["--nu", "5", "--seed", "4"], "pooling.pool_random"),
        (individual, "ll", [], None),
        (individual, "dh_binned", ["--nu", "5"], "pooling.pool_binned"),
        (homogeneous, "dh", [], None),
        (random, "dm", [], None),
    ]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        for i, (path, name, extra, _) in enumerate(runs):
            assert main(["estimate", "--input", str(path), "--estimator", name,
                         *extra, "--bandwidth", "fixed:0.2",
                         "--out", str(tmp_path / f"out{i}")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("estimators.estimate") == len(runs)
    pooled = [n for n in names if n.startswith("pooling.")]
    assert pooled == [p for *_, p in runs if p is not None]
