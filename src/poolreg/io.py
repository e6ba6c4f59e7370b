"""CSV/JSON codecs for datasets and result files.

All numbers are serialized with 17 significant digits so that every emitted
file re-ingests to the exact in-memory values.  Individual and pooled data
have their own row-by-row codecs.  Result files go through one codec,
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


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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


# ---------------------------------------------------------------------------
# individual-level data


def ingest_individual_csv(path) -> RawDataset:
    """Read individual rows with header ``x[,x2,...][,y]``."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_y = header[-1] == "y"
        x_cols = header[:-1] if has_y else header
        expected = ["x"] + [f"x{i}" for i in range(2, len(x_cols) + 1)]
        if x_cols != expected:
            raise DataFormatError(
                f"{path}: covariate header must be {expected}, got {x_cols}"
            )
        xs, ys = [], []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                )
            xs.append([_parse_float(c, i, x_cols[j], path) for j, c in
                       enumerate(row[: len(x_cols)])])
            if has_y:
                val = row[-1].strip()
                if val not in ("0", "1"):
                    raise DataFormatError(
                        f"{path}: response at row {i}, column 'y' must be 0 or 1, "
                        f"got {val!r}"
                    )
                ys.append(int(val))
    if not xs:
        raise DataFormatError(f"{path}: no data rows")
    x = np.asarray(xs, dtype=float)
    if x.shape[1] == 1:
        x = x[:, 0]
    return RawDataset(x, np.asarray(ys, dtype=np.int8) if has_y else None)


def write_individual_csv(raw: RawDataset, path) -> Path:
    path = Path(path)
    d = raw.dimension
    header = ["x"] + [f"x{i}" for i in range(2, d + 1)]
    if raw.responses is not None:
        header.append("y")
    x = raw.covariates.reshape(raw.n, d) if d > 1 else raw.covariates[:, None]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(raw.n):
            row = [_fmt(v) for v in x[i]]
            if raw.responses is not None:
                row.append(str(int(raw.responses[i])))
            writer.writerow(row)
    return path


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
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
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
        results: dict[str, int] = {}
        group_of: dict[str, int] = {}  # group number, by first appearance
        xs: list[list[float]] = []
        row_group: list[int] = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                )
            gid = row[0].strip()
            if not gid:
                raise DataFormatError(f"{path}: empty group_id at row {i}")
            vec = [_parse_float(c, i, x_cols[j], path)
                   for j, c in enumerate(row[1:-1])]
            res = row[-1].strip()
            if res not in ("0", "1"):
                raise DataFormatError(
                    f"{path}: group_result at row {i} must be 0 or 1, got {res!r}"
                )
            prev = results.setdefault(gid, int(res))
            if prev != int(res):
                raise DataFormatError(
                    f"{path}: inconsistent group_result within group {gid!r}"
                )
            xs.append(vec)
            row_group.append(group_of.setdefault(gid, len(group_of)))
    if not xs:
        raise DataFormatError(f"{path}: no data rows")

    d = len(x_cols)
    x = np.asarray(xs, dtype=float)
    x = x[:, 0] if d == 1 else x
    row_group = np.asarray(row_group)
    sizes = np.bincount(row_group)
    y_star = np.fromiter(results.values(), dtype=np.int8)
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


def write_pooled_csv(pooled: PooledDataset, path) -> Path:
    if pooled.y_star is None:
        raise DataFormatError("cannot serialize pools with unknown outcomes")
    path = Path(path)
    d = pooled.dimension
    header = ["group_id"] + [f"x{i}" for i in range(1, d + 1)] + ["group_result"]
    width = max(4, len(str(pooled.n_groups)))
    m = pooled.member_covariates.reshape(-1, d)
    row_group = np.repeat(np.arange(pooled.n_groups), pooled.group_sizes)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, j in enumerate(row_group):
            writer.writerow([f"g{j:0{width}d}", *(_fmt(v) for v in m[i]),
                             str(int(pooled.y_star[j]))])
    return path


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
    text: Callable  # one value -> CSV cell
    parse: Callable  # (CSV cell or JSON value, row, column, path) -> one value
    dtype: type = float  # element type of a numpy array of such values
    json: Callable | None = None  # one value -> JSON value; None: numbers


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

    return _Kind(names.__getitem__, parse, np.int8, names.__getitem__)


_KINDS = {
    "float": _Kind(_fmt, _parse_float),  # finite
    "nan": _Kind(_fmt, partial(_parse_float, finite=False)),  # NaN and inf allowed
    "int": _Kind(str, _parse_int, np.int64),
    "str": _Kind(str, _parse_str, json=str),
    "clamp": _names(CLAMP_NAMES),
    "fail": _names(FAIL_NAMES),
    # a float, NaN included, or None written as an empty cell
    "opt": _Kind(lambda v: "" if v is None else _fmt(v), _parse_opt,
                 json=lambda v: None if v is None else float(v)),
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
    columns = _columns(spec)
    n = len(obj) if spec.rows else len(_getter(columns[0][1])(obj))
    headers, cells = [], []
    for header, f in columns:
        get, text = _getter(f), _KINDS[f.kind].text
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


def _to_json(f: _Field, value):
    kind = _KINDS[f.kind]
    if kind.json is None:  # numbers: one value or a (nested) array at once
        return np.asarray(value, dtype=kind.dtype).tolist()
    return [kind.json(v) for v in value] if f.array else kind.json(value)


def _write_json(spec: _Spec, obj, path: Path) -> None:
    def record(r) -> dict:
        return {f.key: _to_json(f, _getter(f)(r)) for f in spec.fields}

    body = {"rows": [record(r) for r in obj]} if spec.rows else record(obj)
    path.write_text(json.dumps({"schema": spec.schema, **body}, indent=1))


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
    with path.open(newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = [h.strip() for h in lines[0]]
    names = [name for name, _ in columns]
    width = len(header) - len(names) + 1  # of the first column: x, or x1..xd
    spread = header[:1] != names[:1] and columns[0][1].array is np.ndarray
    if spread:
        names[:1] = [f"{names[0]}{k}" for k in range(1, width + 1)]
    if header != names or width < 1:
        raise DataFormatError(f"{path}: header {header} does not match the "
                              f"{kind.__name__} columns {names}")
    body = [(i, row) for i, row in enumerate(lines[1:], start=2) if row]
    for i, row in body:
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
            )
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
