"""CSV/JSON codecs for datasets and result files.

CSV numbers are serialized with 17 significant digits, and JSON numbers by
their shortest ``repr``, so that every emitted file re-ingests to the exact
in-memory values.  Every CSV file is written by one row writer
(``_write_rows``: columns of cell text joined into CRLF-terminated lines,
the bytes ``csv.writer`` writes) and read by one row reader (``_read_rows``:
UTF-8 text, blank rows are skipped, every other row must be as wide as the
header), except the rows of a data file that one vectorised
numpy parse (``_parse_body``) reads.  That parse names no fault: wherever
it could read other values than the row reader, or finds a fault, the file
is read row by row and the row loop names the first fault.  The individual
and pooled codecs and the result codec add only their header checks and
cell parsing.  The writers format each distinct value of an array once
(``_texts``) and gather the texts by index, so a file costs one format call
per distinct value and a few joins, not one call per cell.
Result files go through one codec,
``write_result`` / ``read_result``, driven by a per-type spec (``_SPECS``):
the file suffix picks CSV or JSON, CSV column orders are fixed and JSON
payloads carry a schema tag.

What reads back from which format:

* ``EstimateResult``, ``TableRow`` lists and ``OverpoolRow`` lists: CSV and
  JSON;
* ``TraceRow`` lists: CSV, their only format;
* ``RateResult`` and ``AsymptoticDiagnostics``: JSON only.  Their CSV files
  are per-point tables without the scalars (``slope``, ``slope_band``;
  ``q``, ``b_const``), so reading one raises a ``DataFormatError`` that
  points to the JSON file.
"""

from __future__ import annotations

import csv
import json
import math
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .estimators import (
    AsymptoticDiagnostics,
    CLAMP_NAMES,
    EstimateResult,
    FAIL_NAMES,
)
from .pooling import PooledDataset, RawDataset, _pool_means
from .simulation import OverpoolRow, RateResult, TableRow, TraceRow


class DataFormatError(ValueError):
    """A file does not match the expected schema."""


def _floats(values: list) -> list[str]:
    """The CSV text of each number: 17 significant digits."""
    return [*map("%.17g".__mod__, values)]


def _quote(cell: str) -> str:
    """A text cell as ``csv.writer`` writes it: quoted, with its quotes doubled,
    when it holds a comma, a quote or a line break."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _ints(values: list) -> list[str]:
    """The text of each integer."""
    return [*map(str, map(int, values))]


def _json_values(values: list) -> list[str]:
    """The JSON text of each value, as ``json.dumps`` writes it (``NaN``, ``Infinity``)."""
    return json.dumps(values)[1:-1].split(", ")


def _texts(a: np.ndarray, fmt: Callable[[list], list[str]]) -> list[str]:
    """The text of each element of ``a``, in C order, each distinct value formatted once.

    Values are told apart by their bit pattern, so -0.0 and 0.0 (and NaNs of
    other payloads) keep their own texts.  ``fmt`` maps a list of values to
    their texts.
    """
    flat = np.ravel(a)
    bits, inverse = np.unique(flat.view(f"i{flat.itemsize}"), return_inverse=True)
    return [*map(fmt(bits.view(flat.dtype).tolist()).__getitem__, inverse.tolist())]


def _bad(path, row, col, what: str, raw) -> DataFormatError:
    at = f"row {row}, column {col!r}" if row is not None else f"column {col!r}"
    return DataFormatError(f"{path}: {what} at {at}: {raw!r}")


def _parse_float(text: str, row: int, col: str, path, *, finite: bool = True) -> float:
    """Parse one numeric cell; ``nan``/``inf`` are rejected unless ``finite=False``.

    Covariates, grids, group sizes and bandwidths must be finite; estimate and
    table columns may hold NaN for failed points and replicates.
    """
    try:
        val = float(text)
    except (TypeError, ValueError):
        raise _bad(path, row, col, "malformed numeric cell", text) from None
    if finite and not math.isfinite(val):
        raise _bad(path, row, col, "non-finite value", text)
    return val


def _parse_binary(text: str, row: int, col: str, path) -> int:
    """Parse one test-result cell: an individual's ``y`` or a ``group_result``."""
    val = text.strip()
    if val not in ("0", "1"):
        raise _bad(path, row, col, "test result must be 0 or 1", val)
    return int(val)


def _read_rows(path: Path):
    """Yield a CSV file's stripped header, then ``(row number, cells)`` per row.

    Blank rows are skipped; every other row must be as wide as the header.
    Row numbers count the header as row 1.  The file is read as UTF-8.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        i = 0  # the last row read
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            header = [h.strip() for h in header]
            i = 1
            yield header
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataFormatError(
                        f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                    )
                yield i, row
        except csv.Error as exc:  # e.g. a cell longer than the csv field limit
            raise DataFormatError(f"{path}: unreadable row {i + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                "cannot be decoded") from None


def _write_rows(path: Path, header: list[str], columns: list[list[str]]) -> Path:
    """Write a header line and then one line per row, from columns of cell text.

    Cells are written as given, so a text cell that may hold a delimiter, a
    quote or a line break arrives ``_quote``-d.  Rows end in CRLF and are
    as many as the shortest column has cells, as ``csv.writer`` writes
    ``zip(*columns)``.
    """
    with path.open("w", newline="") as fh:
        fh.write("\r\n".join(map(",".join, [header, *zip(*columns)])) + "\r\n")
    return path


# ---------------------------------------------------------------------------
# data files: one vectorised parse of the body, the row loop where it is in doubt

_ID_WIDTH = 32  # bytes per group_id in the vectorised parse; a longer id is read by rows


def is_pooled_csv(path) -> bool:
    """Whether a data CSV's header is a pooled file's: it starts with group_id."""
    rows = _read_rows(Path(path))
    header = next(rows)
    rows.close()
    return header[:1] == ["group_id"]


def _plain_text(path: Path) -> bool:
    """Whether numpy's parse of a data file reads the cells the csv module reads.

    Not where the text is not ASCII (``float`` reads digits numpy does not,
    and ``str.strip`` strips non-ASCII spaces) or holds a quote (the csv
    module unquotes cells), a NUL (fixed-width bytes drop trailing NULs) or
    a byte in 0x1c-0x1f (numpy strips them around a number, ``float`` does
    not); not where a line is longer than the csv module's field limit or
    none follows the header.
    """
    data = path.read_bytes()
    if not data.isascii() or any(c in data for c in b'"\x00\x1c\x1d\x1e\x1f'):
        return False
    breaks = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    return (b"\n" in data.rstrip()
            and np.diff(breaks, prepend=-1, append=len(data)).max()
            <= csv.field_size_limit())


def _parse_body(path: Path, d: int, ids: bool, result: bool):
    """A data CSV's rows after the header in one numpy parse, or None.

    Returns ``(group ids, x, results)``: ids as ``_ID_WIDTH``-byte strings,
    ``x`` as the row loop shapes it and results as int8; an absent column is
    None.  Nothing here names a fault.  None hands the file to the row loop,
    which reads it and names its first fault, if it has one.  It is returned
    wherever this parse could read other values than the row loop: text
    that is not ``_plain_text``, any parse error (a malformed number, a row
    of another width), a non-finite covariate, or a result cell other than
    exactly ``0`` or ``1`` (it is read as two bytes, so ``10`` is not read
    as ``1``).  Ids are checked after grouping (``_group_by_id``).
    """
    if not _plain_text(path):
        return None
    fields = [("x", float, (d,))]
    if ids:
        fields.insert(0, ("id", f"S{_ID_WIDTH}"))
    if result:
        fields.append(("result", "S2"))
    # newline=None ends lines where the csv module does (\r, \n, \r\n), and
    # comments=None keeps the '#' lines that the row loop rejects
    with path.open(encoding="utf-8") as fh:
        try:
            table = np.loadtxt(fh, fields, delimiter=",", comments=None, skiprows=1,
                               ndmin=1)
        except ValueError:
            return None
    x = table["x"]
    if not np.isfinite(x).all():
        return None
    results = None
    if result:
        one = table["result"] == b"1"
        if not (one | (table["result"] == b"0")).all():
            return None
        results = one.astype(np.int8)
    return (table["id"] if ids else None,
            np.ascontiguousarray(x[:, 0] if d == 1 else x), results)


# ---------------------------------------------------------------------------
# individual-level data


def ingest_individual_csv(path) -> RawDataset:
    """Read individual rows with header ``x[,x2,...][,y]``."""
    path = Path(path)
    rows = _read_rows(path)
    header = next(rows)
    has_y = header[-1:] == ["y"]
    x_cols = header[:-1] if has_y else header
    expected = ["x"] + [f"x{i}" for i in range(2, len(x_cols) + 1)]
    if x_cols != expected:
        raise DataFormatError(
            f"{path}: covariate header must be {expected}, got {x_cols}"
        )
    parsed = _parse_body(path, len(x_cols), ids=False, result=has_y)
    if parsed is not None:
        return RawDataset(*parsed[1:])
    xs, ys = [], []
    for i, row in rows:
        xs.append([_parse_float(c, i, col, path) for c, col in zip(row, x_cols)])
        if has_y:
            ys.append(_parse_binary(row[-1], i, "y", path))
    if not xs:
        raise DataFormatError(f"{path}: no data rows")
    x = np.asarray(xs, dtype=float)
    if x.shape[1] == 1:
        x = x[:, 0]
    return RawDataset(x, np.asarray(ys, dtype=np.int8) if has_y else None)


def write_individual_csv(raw: RawDataset, path) -> Path:
    d = raw.dimension
    header = ["x"] + [f"x{i}" for i in range(2, d + 1)]
    x = _texts(raw.covariates, _floats)
    columns = [x[k::d] for k in range(d)]
    if raw.responses is not None:
        header.append("y")
        columns.append(_texts(raw.responses, _ints))
    return _write_rows(Path(path), header, columns)


# ---------------------------------------------------------------------------
# pooled data (one row per individual, constant group_result per group_id)


def ingest_pooled_csv(path) -> PooledDataset:
    """Read pooled rows ``group_id,x1[,...,xd],group_result``.

    Groups are assembled by group_id in order of first appearance; the
    strategy is homogeneous_sorted, with groups ordered by center, only when
    their covariate ranges are contiguous (univariate), otherwise a generic
    tag is used.  Group sizes may vary.
    """
    path = Path(path)
    rows = _read_rows(path)
    header = next(rows)
    if len(header) < 3 or header[0] != "group_id" or header[-1] != "group_result":
        raise DataFormatError(
            f"{path}: pooled header must be group_id,x1[,...,xd],group_result"
        )
    x_cols = header[1:-1]
    expected = [f"x{i}" for i in range(1, len(x_cols) + 1)]
    if x_cols != expected:
        raise DataFormatError(
            f"{path}: covariate columns must be {expected}, got {x_cols}"
        )
    d = len(x_cols)
    parsed = _parse_body(path, d, ids=True, result=True)
    grouped = None if parsed is None else _group_by_id(*parsed)
    x, row_group, y_star = grouped or _group_rows(rows, x_cols, path)
    sizes = np.bincount(row_group)
    members = x[np.argsort(row_group, kind="stable")]
    centers = _pool_means(members, sizes)

    strategy = "generic"
    if d == 1:
        order = np.argsort(centers, kind="stable")  # groups by center
        starts = np.cumsum(sizes) - sizes
        lo = np.minimum.reduceat(members, starts)[order]
        hi = np.maximum.reduceat(members, starts)[order]
        if (hi[:-1] <= lo[1:]).all():
            strategy = "homogeneous_sorted"
            rank = np.argsort(order)
            members = x[np.argsort(rank[row_group], kind="stable")]
            sizes, centers, y_star = sizes[order], centers[order], y_star[order]
    nu = float(sizes[0]) if (sizes == sizes[0]).all() else float(sizes.mean())
    return PooledDataset(members, sizes, centers, y_star, strategy, nu, d)


def _group_by_id(ids, x, results):
    """Number the parsed rows' groups by first appearance: ``(x, row group, y*)``.

    None where the row loop could group otherwise or names a fault: an id that
    may have been cut at ``_ID_WIDTH`` bytes, an empty one or one with a space
    or control byte at an end (the row loop strips ids), or a group whose
    rows disagree on the result.
    """
    uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    ends = uniq.view(np.uint8).reshape(uniq.size, _ID_WIDTH)
    length = np.char.str_len(uniq)
    if (length == _ID_WIDTH).any() or (ends[:, 0] <= ord(" ")).any():
        return None
    if (ends[np.arange(uniq.size), length - 1] <= ord(" ")).any():
        return None
    if (results != results[first][inverse]).any():
        return None
    order = np.argsort(first)  # groups by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return x, rank[inverse], results[first[order]]


def _group_rows(rows, x_cols: list[str], path: Path):
    """The row loop of ``ingest_pooled_csv``: ``(x, row group, y*)``."""
    results: dict[str, int] = {}
    group_of: dict[str, int] = {}  # group number, by first appearance
    xs: list[list[float]] = []
    row_group: list[int] = []
    for i, row in rows:
        gid = row[0].strip()
        if not gid:
            raise DataFormatError(f"{path}: empty group_id at row {i}")
        xs.append([_parse_float(c, i, col, path) for c, col in zip(row[1:-1], x_cols)])
        res = _parse_binary(row[-1], i, "group_result", path)
        if results.setdefault(gid, res) != res:
            raise DataFormatError(
                f"{path}: inconsistent group_result within group {gid!r}"
            )
        row_group.append(group_of.setdefault(gid, len(group_of)))
    if not xs:
        raise DataFormatError(f"{path}: no data rows")
    x = np.asarray(xs, dtype=float)
    return (x[:, 0] if len(x_cols) == 1 else x, np.asarray(row_group),
            np.fromiter(results.values(), dtype=np.int8))


def write_pooled_csv(pooled: PooledDataset, path) -> Path:
    if pooled.y_star is None:
        raise DataFormatError("cannot serialize pools with unknown outcomes")
    d = pooled.dimension
    header = ["group_id"] + [f"x{i}" for i in range(1, d + 1)] + ["group_result"]
    width = max(4, len(str(pooled.n_groups)))
    row_group = np.repeat(np.arange(pooled.n_groups), pooled.group_sizes)
    x = _texts(pooled.member_covariates, _floats)
    ids = _texts(row_group, lambda groups: [f"g{j:0{width}d}" for j in groups])
    results = _texts(pooled.y_star[row_group], _ints)
    return _write_rows(Path(path), header, [ids, *(x[k::d] for k in range(d)), results])


# ---------------------------------------------------------------------------
# result files: one codec driven by a per-type spec
#
# A spec lists a type's fields in JSON order, each with its JSON key, its
# attribute path on the record and its cell kind, and its CSV columns in file
# order, each a header and a JSON key.  Row types are lists of records: one
# CSV row and one JSON "rows" entry per record.  Array types are one record
# of parallel arrays: one CSV row per array element, with the record's
# scalars repeated on every row.  A 2-d array field spreads over the columns
# <header>1..<header>d, as an estimate's grid does over x1..xd.


class _Kind(NamedTuple):
    text: Callable  # a list of values -> their CSV cells
    parse: Callable  # (CSV cell or JSON value, row, column, path) -> one value
    dtype: type = float  # element type of a numpy array of such values
    json: Callable = _json_values  # a list of values -> their JSON texts


class _Field(NamedTuple):
    key: str  # JSON key
    kind: str  # a key of _KINDS
    array: type | None = None  # np.ndarray or tuple: an array per record
    attr: str | None = None  # attribute path on the record, if not the key


class _Spec(NamedTuple):
    schema: str | None  # JSON schema tag; None: the type has no JSON format
    rows: bool  # a list of records, or one record of parallel arrays
    fields: tuple[_Field, ...]  # in JSON order
    columns: tuple | None = None  # CSV order: a key or (header, key); None: the keys


def _parse_int(raw, row, col, path) -> int:
    if isinstance(raw, str) or type(raw) is int:
        try:
            return int(raw)
        except ValueError:
            pass
    raise _bad(path, row, col, "malformed integer cell", raw)


def _parse_str(raw, row, col, path) -> str:
    if isinstance(raw, str):
        return raw
    raise _bad(path, row, col, "malformed text cell", raw)


def _parse_opt(raw, row, col, path) -> float | None:
    if raw == "" or raw is None:
        return None
    return _parse_float(raw, row, col, path, finite=False)


def _names(names: tuple[str, ...]) -> _Kind:
    def parse(raw, row, col, path) -> int:
        if isinstance(raw, str) and raw in names:
            return names.index(raw)
        raise _bad(path, row, col, f"unknown name (one of {', '.join(names)})", raw)

    def text(codes: list) -> list[str]:
        return [names[c] for c in codes]

    return _Kind(text, parse, np.int8,
                 lambda codes: [*map(encode_basestring_ascii, text(codes))])


_KINDS = {
    "float": _Kind(_floats, _parse_float),  # finite
    "nan": _Kind(_floats, partial(_parse_float, finite=False)),  # NaN and inf allowed
    "int": _Kind(_ints, _parse_int, np.int64),
    "str": _Kind(lambda v: [_quote(str(s)) for s in v], _parse_str, object,
                 lambda v: [encode_basestring_ascii(str(s)) for s in v]),
    "clamp": _names(CLAMP_NAMES),
    "fail": _names(FAIL_NAMES),
    # a float, NaN included, or None written as an empty cell
    "opt": _Kind(lambda v: ["" if x is None else "%.17g" % x for x in v], _parse_opt),
}

_A = np.ndarray
_CELL = (_Field("model", "str", attr="model_id"), _Field("law", "str"), _Field("n", "int"),
         _Field("nu", "int"), _Field("estimator", "str"))
_SPECS = {
    EstimateResult: _Spec(
        "poolreg.estimate.v1", False,
        (_Field("estimator", "str", attr="estimator_tag"), _Field("nu", "float"),
         _Field("bandwidth_used", "float"), _Field("grid", "float", _A),
         _Field("p_hat", "nan", _A), _Field("mu_hat", "nan", _A),
         _Field("clamp_flags", "clamp", _A), _Field("failures", "fail", _A)),
        (("x", "grid"), "p_hat", "mu_hat", ("clamp_flag", "clamp_flags"),
         ("failure", "failures"), "estimator", "nu", "bandwidth_used"),
    ),
    TableRow: _Spec(
        "poolreg.table.v1", True,
        (*_CELL, _Field("med_ise_e4", "nan", attr="cell.med_ise_e4"),
         _Field("iqr_ise_e4", "nan", attr="cell.iqr_ise_e4"),
         _Field("n_failed_reps", "int", attr="cell.n_failed_reps"),
         _Field("replicates", "int", attr="cell.replicates")),
    ),
    TraceRow: _Spec(None, True, (*_CELL, _Field("replicate", "int"), _Field("ise", "opt"))),
    RateResult: _Spec(
        "poolreg.rate.v1", False,
        (_Field("n_values", "int", tuple), _Field("med_ise", "nan", tuple),
         _Field("bandwidths", "float", tuple), _Field("slope", "nan"),
         _Field("slope_band", "nan", tuple), _Field("n_failed", "int", tuple)),
        (("n", "n_values"), "med_ise", ("bandwidth", "bandwidths"), "n_failed"),
    ),
    OverpoolRow: _Spec(
        "poolreg.overpool.v1", True,
        (_Field("nu", "int"), _Field("med_ise_e4", "nan"), _Field("iqr_ise_e4", "nan"),
         _Field("n_failed", "int"), _Field("n_all_positive", "int"),
         _Field("lambda_mid", "nan")),
    ),
    AsymptoticDiagnostics: _Spec(
        "poolreg.diagnostics.v1", False,
        (_Field("q", "float"), _Field("b_const", "float"), _Field("x", "float", _A),
         *(_Field(k, "nan", _A) for k in ("A", "B", "A1", "B1", "lambda_n", "v"))),
        ("x", "A", "B", "A1", "B1", "lambda_n", "v"),
    ),
}


def _columns(spec: _Spec) -> list[tuple[str, _Field]]:
    """(CSV header, field) in file order."""
    fields = {f.key: f for f in spec.fields}
    return [(c, fields[c]) if isinstance(c, str) else (c[0], fields[c[1]])
            for c in spec.columns or fields]


def _getter(f: _Field):
    return attrgetter(f.attr or f.key)


def _format(path: Path, spec: _Spec, cls: type) -> str:
    """The file suffix's format, if the type has it."""
    if path.suffix == ".csv" or path.suffix == ".json" and spec.schema is not None:
        return path.suffix
    raise DataFormatError(f"{path}: no {path.suffix or 'suffix'!r} format for "
                          f"{cls.__name__}")


def write_result(obj, path) -> Path:
    """Write a result object (a list for row types); the suffix picks the format."""
    path = Path(path)
    rows = isinstance(obj, list)
    cls = type(obj[0]) if rows and obj else type(obj)
    spec = _SPECS.get(cls)
    if spec is None or spec.rows != rows:
        raise DataFormatError(f"no writer for object of type {type(obj).__name__}")
    write = _write_csv if _format(path, spec, cls) == ".csv" else _write_json
    write(spec, obj, path)
    return path


# The CLI writes traces by this name, and the benchmark's tracer hooks it.
write_traces_csv = write_result


def _write_csv(spec: _Spec, obj, path: Path) -> None:
    """Write the records as CSV: one column of cell text per header.

    An array is formatted once per distinct value (``_texts``) and a
    record scalar once, repeated on every row; the bytes are those that
    ``csv.writer`` writes for the same cells.
    """
    columns = _columns(spec)
    n = len(obj) if spec.rows else len(_getter(columns[0][1])(obj))
    headers, cells = [], []
    for header, f in columns:
        get, kind = _getter(f), _KINDS[f.kind]
        if spec.rows:
            texts = kind.text([get(r) for r in obj])
        elif f.array is None:
            texts = kind.text([get(obj)]) * n
        else:
            values = np.asarray(get(obj), dtype=kind.dtype)
            texts = _texts(values, kind.text)
            if values.ndim == 2:
                width = values.shape[1]
                headers += [f"{header}{k + 1}" for k in range(width)]
                cells += [texts[k::width] for k in range(width)]
                continue
        headers.append(header)
        cells.append(texts)
    _write_rows(path, headers, cells)


class _Block(NamedTuple):
    """A 1-d or 2-d array as the JSON texts of its elements, in C order."""

    texts: list[str]
    shape: tuple[int, ...]


def _json_value(f: _Field, value):
    """A field's value for ``_json_text``: its JSON text, or an array's ``_Block``."""
    kind = _KINDS[f.kind]
    if f.array is None:
        return kind.json(np.asarray([value], dtype=kind.dtype).tolist())[0]
    values = np.asarray(value, dtype=kind.dtype)
    return _Block(_texts(values, kind.json), values.shape)


def _json_text(value, indent: str) -> str:
    """The text ``json.dumps(value, indent=1)`` gives at a depth of ``indent``.

    ``value`` is a dict or list of such values, a ``_Block`` or a str that
    is already JSON text.  A 2-d ``_Block`` is a list of rows, each written
    by one ``%`` template.
    """
    if isinstance(value, str):
        return value
    inner = indent + " "
    opening, closing = "[]"
    if isinstance(value, dict):
        opening, closing = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in value.items()]
    elif isinstance(value, list):
        items = [_json_text(v, inner) for v in value]
    elif len(value.shape) == 1:
        items = value.texts
    else:
        rows, width = value.shape
        row = _json_text(_Block(["%s"] * width, (width,)), inner)
        items = [*map(row.__mod__, zip(*[iter(value.texts)] * width))] if width else (
            [row] * rows)
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def _write_json(spec: _Spec, obj, path: Path) -> None:
    """Write the records as the text of ``json.dumps(payload, indent=1)``.

    The text is built by ``_json_text`` from joins, with each numeric array
    formatted once per distinct value by the C encoder, since ``indent``
    would put every value through the pure-Python one.
    """
    def record(r) -> dict:
        return {f.key: _json_value(f, _getter(f)(r)) for f in spec.fields}

    body = {"rows": [record(r) for r in obj]} if spec.rows else record(obj)
    path.write_text(_json_text({"schema": encode_basestring_ascii(spec.schema), **body},
                               ""))


def read_result(path, kind: type):
    """Read a file written by ``write_result`` back into ``kind`` records.

    Row types come back as a list.  Every malformed file raises a
    ``DataFormatError`` naming the path and, for a bad cell, its row and
    column.
    """
    path = Path(path)
    spec = _SPECS.get(kind)
    if spec is None:
        raise DataFormatError(f"no reader for {kind!r}")
    read = _read_csv if _format(path, spec, kind) == ".csv" else _read_json
    records = [_record(spec, kind, v, path) for v in read(spec, kind, path)]
    return records if spec.rows else records[0]


def _read_csv(spec: _Spec, kind: type, path: Path) -> list[dict]:
    columns = _columns(spec)
    missing = {f.key for f in spec.fields} - {f.key for _, f in columns}
    if missing:
        raise DataFormatError(f"{path}: a {kind.__name__} CSV file does not hold "
                              f"{', '.join(sorted(missing))}; read its JSON file")
    rows = _read_rows(path)
    header = next(rows)
    names = [name for name, _ in columns]
    width = len(header) - len(names) + 1  # of the first column: x, or x1..xd
    spread = header[:1] != names[:1] and columns[0][1].array is np.ndarray
    if spread:
        names[:1] = [f"{names[0]}{k}" for k in range(1, width + 1)]
    if header != names or width < 1:
        raise DataFormatError(f"{path}: header {header} does not match the "
                              f"{kind.__name__} columns {names}")
    body = list(rows)
    fields = [columns[0][1]] * width + [f for _, f in columns[1:]]
    cells = [[_KINDS[f.kind].parse(row[j], i, header[j], path) for i, row in body]
             for j, f in enumerate(fields)]
    values = {f.key: c for f, c in zip(fields, cells)}
    if spread:  # x1..xd: one tuple per row
        values[fields[0].key] = list(zip(*cells[:width]))
    if spec.rows:
        return [dict(zip(values, r)) for r in zip(*values.values())]
    if not body:
        raise DataFormatError(f"{path}: no data rows")
    for j, f in enumerate(fields):
        if f.array is None:
            if len({row[j] for _, row in body}) > 1:
                raise DataFormatError(
                    f"{path}: column {header[j]!r} must hold one value on every row")
            values[f.key] = values[f.key][0]
    return [values]


def _read_json(spec: _Spec, kind: type, path: Path) -> list[dict]:
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a JSON file ({exc})") from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != spec.schema:
        raise DataFormatError(f"{path}: unexpected schema {schema!r}")
    if not spec.rows:
        values = _json_record(spec, payload, None, path)
        lengths = {f.key: len(values[f.key]) for _, f in _columns(spec) if f.array}
        if len(set(lengths.values())) > 1:
            raise DataFormatError(f"{path}: parallel arrays differ in length: {lengths}")
        return [values]
    if not isinstance(payload.get("rows"), list):
        raise DataFormatError(f"{path}: missing key 'rows' or it is not a list")
    return [_json_record(spec, r, i, path) for i, r in enumerate(payload["rows"])]


def _json_record(spec: _Spec, obj, row, path) -> dict:
    where = f"{path}: " if row is None else f"{path}: row {row}: "
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}not a JSON object")
    values = {}
    for f in spec.fields:
        if f.key not in obj:
            raise DataFormatError(f"{where}missing key {f.key!r}")
        raw, parse = obj[f.key], _KINDS[f.kind].parse
        if f.array is None:
            values[f.key] = parse(raw, row, f.key, path)
        elif not isinstance(raw, list):
            raise _bad(path, row, f.key, "not a JSON array", raw)
        else:  # row i of an array is its i-th element, itself a list on a 2-d grid
            values[f.key] = [[parse(x, i, f.key, path) for x in r] if isinstance(r, list)
                             else parse(r, i, f.key, path) for i, r in enumerate(raw)]
    return values


def _record(spec: _Spec, cls: type, values: dict, path):
    """A record from its values by key: arrays into their containers."""
    attrs = {}
    for f in spec.fields:
        v = values[f.key]
        if f.array is tuple:
            v = tuple(v)
        elif f.array is not None:
            try:
                v = np.asarray(v, dtype=_KINDS[f.kind].dtype)
            except ValueError:
                raise DataFormatError(f"{path}: ragged array {f.key!r}") from None
        attrs[f.attr or f.key] = v
    return _build(cls, attrs)


def _build(cls: type, attrs: dict):
    """``cls`` from values by attribute path; "cell.replicates" nests."""
    nested = {}
    for path in [p for p in attrs if "." in p]:
        head, rest = path.split(".", 1)
        nested.setdefault(head, {})[rest] = attrs.pop(path)
    hints = get_type_hints(cls) if nested else {}
    return cls(**attrs, **{k: _build(hints[k], sub) for k, sub in nested.items()})


def emit_results(obj, formats, outdir, stem: str) -> list[Path]:
    """Write a result object as ``<outdir>/<stem>.<format>`` in each format."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise DataFormatError(f"unknown output format {fmt!r}")
        written.append(write_result(obj, outdir / f"{stem}.{fmt}"))
    return written
