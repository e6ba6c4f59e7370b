"""Result-file formats: pinned bytes, exact round trips and typed reader errors.

The pinned files under ``tests/result_pins/`` hold the exact text of every
result type in every format it is written in.  Their records are built by
hand with NaN, -0.0, the smallest subnormal, a 2-d estimate grid and a
failed replicate (``ise=None``), and the files are written through
``emit_results`` and ``write_traces_csv``, the entry points the CLI uses.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poolreg.estimators import AsymptoticDiagnostics, EstimateResult
from poolreg.io import (
    DataFormatError, emit_results, read_result, write_result, write_traces_csv,
)
from poolreg.simulation import OverpoolRow, RateResult, SummaryCell, TableRow, TraceRow

PINS = Path(__file__).parent / "result_pins"
NAN = math.nan
TINY = 5e-324  # smallest positive subnormal


def pinned_records() -> dict:
    """One hand-built record per result type, keyed by its file stem."""
    return {
        "estimate_1d": EstimateResult(
            np.array([0.1, 0.5, 0.9]),
            np.array([NAN, -0.0, TINY]),
            np.array([NAN, 1.0, 0.99999999999999989]),
            np.array([0, 1, 2], dtype=np.int8),
            np.array([1, 0, 2], dtype=np.int8),
            0.12345678901234568, "DH", 5.0,
        ),
        "estimate_2d": EstimateResult(
            np.array([[0.25, 0.75], [-0.0, 1e-300]]),
            np.array([0.015, NAN]),
            np.array([0.86, NAN]),
            np.array([0, 0], dtype=np.int8),
            np.array([0, 2], dtype=np.int8),
            0.1, "DH_binned", 9.7959183673469383,
        ),
        "table": [
            TableRow("iii", "uniform", 5000, 5, "DH", SummaryCell(2.375, 1e-17, 0, 200)),
            TableRow("i", "normal", 200, 10, "DM", SummaryCell(NAN, NAN, 4, 4)),
            TableRow("ii", "uniform", 300, 3, "LL", SummaryCell(-0.0, TINY, 1, 6)),
        ],
        "table_traces": [
            TraceRow("iii", "uniform", 200, 2, "DH", 0, 1.5e-5),
            TraceRow("iii", "uniform", 200, 2, "DH", 1, None),
            TraceRow("iii", "uniform", 200, 2, "DH", 2, NAN),
            TraceRow("iii", "uniform", 200, 2, "DH", 3, TINY),
            TraceRow("iii", "uniform", 200, 2, "DH", 4, -0.0),
        ],
        "rate": RateResult(
            (1000, 4000, 16000), (1.25e-3, TINY, -0.0), (0.2, 0.15157165665103981, 0.1),
            -0.79999999999999993, (-0.91, NAN), (0, 1, 25),
        ),
        "overpool": [
            OverpoolRow(5, 1.25, 0.5, 0, 0, 1.0218091273202451),
            OverpoolRow(40, NAN, NAN, 100, 100, TINY),
            OverpoolRow(10, -0.0, 0.0, 3, 0, 1.0),
        ],
        "diagnostics": AsymptoticDiagnostics(
            np.array([0.2, 0.8]),
            np.array([NAN, 1.0]),
            np.array([-0.0, TINY]),
            np.array([0.03125, 1e300]),
            np.array([-2.5e-7, 0.0]),
            0.95,
            np.array([1.0102, 1.0e-3]),
            1.0,
            np.array([0.28209479177387814, 0.2820947917738782]),
        ),
    }


def write_pinned(outdir: Path) -> list[Path]:
    """Write every pinned record in every format it has."""
    written = []
    for stem, obj in pinned_records().items():
        if stem == "table_traces":
            written.append(write_traces_csv(obj, outdir / f"{stem}.csv"))
        else:
            written += emit_results(obj, ("csv", "json"), outdir, stem)
    return written


def test_pinned_files_are_byte_identical(tmp_path):
    written = write_pinned(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in PINS.iterdir())
    assert len(written) == 13
    for path in written:
        assert path.read_bytes() == (PINS / path.name).read_bytes(), path.name


# (record type, formats it reads back from)
READABLE = {
    EstimateResult: ("csv", "json"),
    TableRow: ("csv", "json"),
    TraceRow: ("csv",),
    RateResult: ("json",),
    OverpoolRow: ("csv", "json"),
    AsymptoticDiagnostics: ("json",),
}


def same(a, b) -> bool:
    """Equal type by type and field by field; floats bit for bit, any NaN equal."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind != "f":
            return np.array_equal(a, b)
        nan = np.isnan(a)
        return (nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes()
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)
                or np.float64(a).tobytes() == np.float64(b).tobytes())
    return a == b


@pytest.mark.parametrize("path", sorted(PINS.iterdir()), ids=lambda p: p.name)
def test_pinned_files_read_back_exactly(path):
    obj = pinned_records()[path.stem]
    kind = type(obj[0]) if isinstance(obj, list) else type(obj)
    if path.suffix[1:] not in READABLE[kind]:
        with pytest.raises(DataFormatError, match="read its JSON file"):
            read_result(path, kind)
    else:
        assert same(read_result(path, kind), obj)


# ---------------------------------------------------------------------------
# round trips over generated records

ANY = st.floats()  # NaN, +-inf, -0.0 and subnormals included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
INTS = st.integers(-(2**63), 2**63 - 1)
TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
               max_size=6)


def arrays(elements, n, dtype=float):
    return st.lists(elements, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=dtype))


@st.composite
def estimates(draw):
    m = draw(st.integers(1, 6))
    d = draw(st.sampled_from([None, 1, 2, 3]))  # None: a 1-d grid
    grid = draw(arrays(FINITE, m * (d or 1))).reshape((m, d) if d else (m,))
    return EstimateResult(
        grid, draw(arrays(ANY, m)), draw(arrays(ANY, m)),
        draw(arrays(st.integers(0, 2), m, np.int8)),
        draw(arrays(st.integers(0, 2), m, np.int8)),
        draw(FINITE), draw(TEXT), draw(FINITE),
    )


@st.composite
def rates(draw):
    k = draw(st.integers(1, 5))

    def tup(elements):
        return tuple(draw(st.lists(elements, min_size=k, max_size=k)))

    return RateResult(tup(INTS), tup(ANY), tup(FINITE), draw(ANY),
                      (draw(ANY), draw(ANY)), tup(INTS))


@st.composite
def diagnostics(draw):
    m = draw(st.integers(1, 5))
    return AsymptoticDiagnostics(
        draw(arrays(FINITE, m)), *(draw(arrays(ANY, m)) for _ in range(4)), draw(FINITE),
        draw(arrays(ANY, m)), draw(FINITE), draw(arrays(ANY, m)),
    )


def rows(record):
    return st.lists(record, min_size=1, max_size=4)


RECORDS = {
    EstimateResult: estimates(),
    TableRow: rows(st.builds(TableRow, TEXT, TEXT, INTS, INTS, TEXT,
                             st.builds(SummaryCell, ANY, ANY, INTS, INTS))),
    TraceRow: rows(st.builds(TraceRow, TEXT, TEXT, INTS, INTS, TEXT, INTS,
                             st.none() | ANY)),
    RateResult: rates(),
    OverpoolRow: rows(st.builds(OverpoolRow, INTS, ANY, ANY, INTS, INTS, ANY)),
    AsymptoticDiagnostics: diagnostics(),
}


@pytest.mark.parametrize(
    "kind, fmt", [(k, f) for k, fmts in READABLE.items() for f in fmts],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_round_trip_is_exact(kind, fmt, tmp_path):
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(RECORDS[kind])
    def check(obj):
        path = write_result(obj, tmp_path / f"r.{fmt}")
        assert same(read_result(path, kind), obj)

    check()


# ---------------------------------------------------------------------------
# malformed files

# (pinned file, text replaced or None for the whole file, replacement,
# message pattern)
MALFORMED = {
    "unknown flag name": ("estimate_1d.csv", "clamped_high", "clamped_sideways",
                          r"unknown name.* row 4, column 'clamp_flag'"),
    "short row": ("estimate_1d.csv", ",DH,5,0.12345678901234568\r\n0.90", ",DH,5\r\n0.90",
                  r"row 3 has 7 cells, expected 8"),
    "long row": ("table.csv", ",0,200\r\n", ",0,200,7\r\n",
                 r"row 2 has 10 cells, expected 9"),
    "empty file": ("table.csv", None, "", r"empty file"),
    "header mismatch": ("estimate_1d.csv", "p_hat,mu_hat", "mu_hat,p_hat",
                        r"header .* does not match"),
    "no grid column": ("estimate_1d.csv", "x,p_hat", "p_hat", r"header .* does not match"),
    "bad int cell": ("table.csv", "DM,nan,nan,4,4", "DM,nan,nan,4.5,4",
                     r"malformed integer cell at row 3, column 'n_failed_reps'"),
    "bad int in JSON": ("table.json", '"n": 200,', '"n": 200.5,',
                        r"malformed integer cell at row 1, column 'n'"),
    "bad float in JSON": ("table.json", '"med_ise_e4": 2.375', '"med_ise_e4": "2.3x"',
                          r"malformed numeric cell at row 0, column 'med_ise_e4'"),
    "non-finite grid": ("estimate_2d.json", "1e-300", "Infinity",
                        r"non-finite value at row 1, column 'grid'"),
    "scalar varies": ("estimate_1d.csv", ",DH,5,0.12345678901234568\r\n0.90",
                      ",DH,6,0.12345678901234568\r\n0.90",
                      r"column 'nu' must hold one value"),
    "unequal arrays in JSON": ("estimate_1d.json", "  -0.0,\n  5e-324\n", "  -0.0\n",
                               r"parallel arrays differ in length"),
    "missing JSON key": ("estimate_1d.json", '"grid"', '"grids"', r"missing key 'grid'"),
    "unknown name in JSON": ("estimate_2d.json", '"empty_bin"', '"boom"',
                             r"unknown name.* row 1, column 'failures'"),
    "not JSON": ("table.json", None, "{", r"not a JSON file"),
    "rate CSV": ("rate.csv", "", "", r"does not hold slope, slope_band; read its JSON"),
    "diagnostics CSV": ("diagnostics.csv", "", "",
                        r"does not hold b_const, q; read its JSON"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_file_raises_data_format_error(case, tmp_path):
    name, old, new, message = MALFORMED[case]
    with (PINS / name).open(newline="") as fh:
        text = fh.read()
    if old is None:
        text = new
    else:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / name
    with path.open("w", newline="") as fh:
        fh.write(text)
    obj = pinned_records()[path.stem]
    kind = type(obj[0]) if isinstance(obj, list) else type(obj)
    with pytest.raises(DataFormatError, match=message) as err:
        read_result(path, kind)
    assert str(path) in str(err.value)
