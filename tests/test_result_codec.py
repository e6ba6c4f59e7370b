"""Result-file formats: pinned bytes, exact round trips and typed reader errors.

The pinned files under ``tests/result_pins/`` hold the exact text of every
result type in every format it is written in.  Their records are built by
hand with NaN, -0.0, the smallest subnormal, a 2-d estimate grid and a
failed replicate (``ise=None``), and the files are written through
``emit_results`` and ``write_traces_csv``, the entry points the CLI uses.
"""

import csv
import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poolreg import io as pio
from poolreg.estimators import (
    AsymptoticDiagnostics, CLAMP_NAMES, EstimateResult, FAIL_NAMES,
)
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


# ---------------------------------------------------------------------------
# the writers against csv.writer and json.dumps(indent=1)

def _fmt(x) -> str:
    return f"{float(x):.17g}"


# each kind's cell text, one value at a time
REFERENCE_CELL = {
    "float": _fmt, "nan": _fmt, "int": str, "str": str,
    "clamp": CLAMP_NAMES.__getitem__, "fail": FAIL_NAMES.__getitem__,
    "opt": lambda v: "" if v is None else _fmt(v),
}


def reference_csv(obj, path: Path) -> bytes:
    """The CSV file as ``csv.writer`` writes it, one cell at a time."""
    spec = pio._SPECS[type(obj[0]) if isinstance(obj, list) else type(obj)]
    columns = pio._columns(spec)
    n = len(obj) if spec.rows else len(pio._getter(columns[0][1])(obj))
    headers, cells = [], []
    for header, f in columns:
        get, text = pio._getter(f), REFERENCE_CELL[f.kind]
        values = [get(r) for r in obj] if spec.rows else get(obj)
        if not spec.rows and f.array is None:
            values = [values] * n
        if getattr(values, "ndim", 1) == 2:
            headers += [f"{header}{k + 1}" for k in range(values.shape[1])]
            cells += [list(map(text, col)) for col in values.T]
        else:
            headers.append(header)
            cells.append(list(map(text, values)))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(zip(*cells))
    return path.read_bytes()


def reference_json(obj, path: Path) -> bytes:
    """The JSON file as ``json.dumps(payload, indent=1)`` writes it."""
    spec = pio._SPECS[type(obj[0]) if isinstance(obj, list) else type(obj)]
    names = {"clamp": CLAMP_NAMES, "fail": FAIL_NAMES}

    def value(f, v):
        if f.kind == "str":
            return str(v)
        if f.kind in names:
            return [names[f.kind][c] for c in v]
        return np.asarray(v, dtype=np.int64 if f.kind == "int" else float).tolist()

    def record(r) -> dict:
        return {f.key: value(f, pio._getter(f)(r)) for f in spec.fields}

    body = {"rows": [record(r) for r in obj]} if spec.rows else record(obj)
    path.write_text(json.dumps({"schema": spec.schema, **body}, indent=1))
    return path.read_bytes()


def bits(value: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", value))[0]


# values whose texts a careless writer could merge or misspell: both zeros,
# NaNs of other signs and payloads, infinities, subnormals and extremes
SPECIAL = [0.0, -0.0, NAN, bits(0xFFF8000000000000), bits(0x7FF8000000000001),
           math.inf, -math.inf, TINY, -TINY, 2.2250738585072014e-308, 1e300, -1e300,
           1e-300, 0.1, 1.0, 1.7976931348623157e308]
# tags that csv.writer quotes
QUOTED = ['a,"b"\n', '"', ",", "x\ry", "\n", 'say "hi"']
TAGS = TEXT | st.sampled_from(QUOTED)


@st.composite
def repeats(draw, shape, finite=False):
    """An array of ``shape`` drawn with heavy repeats from a few values,
    special ones included, with a drawn share of fresh random values."""
    special = [v for v in SPECIAL if math.isfinite(v)] if finite else SPECIAL
    pool = (draw(st.lists(st.sampled_from(special), min_size=1, max_size=6))
            + draw(st.lists(FINITE if finite else ANY, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.array(pool)[rng.integers(0, len(pool), shape)]
    fresh = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    a[fresh] = rng.standard_normal(fresh.sum()) * 10.0 ** rng.integers(-300, 300,
                                                                       fresh.sum())
    return a


SIZES = st.sampled_from([0, 1, 2, 300, 1000, 3000])


@st.composite
def big_estimates(draw):
    m = draw(SIZES)
    d = draw(st.sampled_from([None, 0, 1, 2, 3]))  # None: a 1-d grid; 0: zero width
    codes = np.random.default_rng(m).integers(0, 3, (2, m)).astype(np.int8)
    return EstimateResult(
        draw(repeats((m, d) if d is not None else (m,), finite=True)),
        draw(repeats(m)), draw(repeats(m)), codes[0], codes[1],
        draw(FINITE), draw(TAGS), draw(FINITE),
    )


@st.composite
def big_rates(draw):
    k = draw(st.sampled_from([0, 1, 300]))
    ints = tuple(int(v) for v in draw(repeats(k, finite=True)) % 1000)
    return RateResult(ints, tuple(draw(repeats(k)).tolist()),
                      tuple(draw(repeats(k, finite=True)).tolist()), draw(ANY),
                      (draw(ANY), draw(ANY)), ints[::-1])


@st.composite
def big_diagnostics(draw):
    m = draw(SIZES)
    columns = [draw(repeats(m)) for _ in range(6)]
    return AsymptoticDiagnostics(
        draw(repeats(m, finite=True)), *columns[:4], draw(FINITE), columns[4],
        draw(FINITE), columns[5],
    )


def many_rows(record):
    """Hundreds of rows that repeat a few drawn records."""
    @st.composite
    def build(draw):
        pool = draw(st.lists(record, min_size=1, max_size=4))
        picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
            0, len(pool), draw(st.sampled_from([1, 200, 700])))
        return [pool[i] for i in picks]

    return build()


_TABLE_ROW = st.builds(TableRow, TAGS, TAGS, INTS, INTS, TAGS,
                       st.builds(SummaryCell, ANY, ANY, INTS, INTS))
BIG_RECORDS = {
    EstimateResult: big_estimates(),
    TableRow: many_rows(_TABLE_ROW),
    TraceRow: many_rows(st.builds(TraceRow, TAGS, TAGS, INTS, INTS, TAGS, INTS,
                                  st.none() | ANY | st.sampled_from(SPECIAL))),
    RateResult: big_rates(),
    OverpoolRow: many_rows(st.builds(OverpoolRow, INTS, ANY, ANY, INTS, INTS,
                                     st.sampled_from(SPECIAL))),
    AsymptoticDiagnostics: big_diagnostics(),
}


@pytest.mark.parametrize("size", ["small", "big"])
@pytest.mark.parametrize("kind", list(RECORDS), ids=lambda k: k.__name__)
def test_writers_write_the_bytes_of_csv_writer_and_json_dumps(kind, size, tmp_path):
    """Every result type, in every format it is written in, byte for byte as
    csv.writer and json.dumps(indent=1) write the same records."""
    formats = ("csv", "json") if pio._SPECS[kind].schema else ("csv",)

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow, HealthCheck.data_too_large])
    @given((RECORDS if size == "small" else BIG_RECORDS)[kind])
    def check(obj):
        for fmt in formats:
            got = write_result(obj, tmp_path / f"got.{fmt}").read_bytes()
            reference = reference_csv if fmt == "csv" else reference_json
            assert got == reference(obj, tmp_path / f"want.{fmt}"), fmt

    check()
