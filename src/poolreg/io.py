"""CSV/JSON codecs for datasets, estimates, tables and diagnostics.

All numbers are serialized with 17 significant digits so that every emitted
file re-ingests to the exact in-memory values.  CSV column orders are fixed;
JSON payloads carry a schema tag.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .estimators import (
    AsymptoticDiagnostics,
    CLAMP_NAMES,
    EstimateResult,
    FAIL_NAMES,
)
from .pooling import PooledDataset, RawDataset, _pool_means
from .simulation import OverpoolRow, RateResult, SummaryCell, TableRow, TraceRow

ESTIMATE_SCHEMA = "poolreg.estimate.v1"
TABLE_SCHEMA = "poolreg.table.v1"
RATE_SCHEMA = "poolreg.rate.v1"
OVERPOOL_SCHEMA = "poolreg.overpool.v1"
DIAGNOSTICS_SCHEMA = "poolreg.diagnostics.v1"


class DataFormatError(ValueError):
    """A file does not match the expected schema."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_float(text: str, row: int, col: str, path, *, finite: bool = True) -> float:
    """Parse one numeric cell; ``nan``/``inf`` are rejected unless ``finite=False``.

    Covariates, grids, group sizes and bandwidths must be finite; estimate and
    table columns may hold NaN for failed points and replicates.
    """
    try:
        val = float(text)
    except ValueError:
        raise DataFormatError(
            f"{path}: malformed numeric cell at row {row}, column {col!r}: {text!r}"
        ) from None
    if finite and not math.isfinite(val):
        raise DataFormatError(
            f"{path}: non-finite value at row {row}, column {col!r}: {text!r}"
        )
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
# estimates


def write_estimate_csv(result: EstimateResult, path) -> Path:
    path = Path(path)
    grid = np.asarray(result.grid)
    multi = grid.ndim == 2
    d = grid.shape[1] if multi else 1
    x_cols = [f"x{i}" for i in range(1, d + 1)] if multi else ["x"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            x_cols
            + ["p_hat", "mu_hat", "clamp_flag", "failure",
               "estimator", "nu", "bandwidth_used"]
        )
        for i in range(grid.shape[0]):
            xs = grid[i] if multi else [grid[i]]
            writer.writerow(
                [_fmt(v) for v in xs]
                + [
                    _fmt(result.p_hat[i]),
                    _fmt(result.mu_hat[i]),
                    CLAMP_NAMES[int(result.clamp_flags[i])],
                    FAIL_NAMES[int(result.failures[i])],
                    result.estimator_tag,
                    _fmt(result.nu),
                    _fmt(result.bandwidth_used),
                ]
            )
    return path


def read_estimate_csv(path) -> EstimateResult:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        d = sum(1 for h in header if h == "x" or h.startswith("x") and h[1:].isdigit())
        rows = [row for row in reader if row]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    grid, p_hat, mu_hat, clamps, fails = [], [], [], [], []
    tag, nu, bw = None, None, None
    for i, row in enumerate(rows, start=2):
        vals = [_parse_float(c, i, header[j], path) for j, c in enumerate(row[:d])]
        grid.append(vals if d > 1 else vals[0])
        p_hat.append(_parse_float(row[d], i, "p_hat", path, finite=False))
        mu_hat.append(_parse_float(row[d + 1], i, "mu_hat", path, finite=False))
        clamps.append(CLAMP_NAMES.index(row[d + 2]))
        fails.append(FAIL_NAMES.index(row[d + 3]))
        tag = row[d + 4]
        nu = _parse_float(row[d + 5], i, "nu", path)
        bw = _parse_float(row[d + 6], i, "bandwidth_used", path)
    return EstimateResult(
        np.asarray(grid, dtype=float),
        np.asarray(p_hat, dtype=float),
        np.asarray(mu_hat, dtype=float),
        np.asarray(clamps, dtype=np.int8),
        np.asarray(fails, dtype=np.int8),
        bw,
        tag,
        nu,
    )


def write_estimate_json(result: EstimateResult, path) -> Path:
    path = Path(path)
    grid = np.asarray(result.grid)
    payload = {
        "schema": ESTIMATE_SCHEMA,
        "estimator": result.estimator_tag,
        "nu": float(result.nu),
        "bandwidth_used": float(result.bandwidth_used),
        "grid": grid.tolist(),
        "p_hat": [float(v) for v in result.p_hat],
        "mu_hat": [float(v) for v in result.mu_hat],
        "clamp_flags": [CLAMP_NAMES[int(c)] for c in result.clamp_flags],
        "failures": [FAIL_NAMES[int(c)] for c in result.failures],
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def read_estimate_json(path) -> EstimateResult:
    path = Path(path)
    payload = json.loads(path.read_text())
    if payload.get("schema") != ESTIMATE_SCHEMA:
        raise DataFormatError(f"{path}: unexpected schema {payload.get('schema')!r}")
    return EstimateResult(
        np.asarray(payload["grid"], dtype=float),
        np.asarray(payload["p_hat"], dtype=float),
        np.asarray(payload["mu_hat"], dtype=float),
        np.asarray([CLAMP_NAMES.index(c) for c in payload["clamp_flags"]], dtype=np.int8),
        np.asarray([FAIL_NAMES.index(c) for c in payload["failures"]], dtype=np.int8),
        float(payload["bandwidth_used"]),
        str(payload["estimator"]),
        float(payload["nu"]),
    )


# ---------------------------------------------------------------------------
# summary tables


_TABLE_COLS = [
    "model", "law", "n", "nu", "estimator",
    "med_ise_e4", "iqr_ise_e4", "n_failed_reps", "replicates",
]


def write_table_csv(rows: list[TableRow], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TABLE_COLS)
        for r in rows:
            writer.writerow(
                [
                    r.model_id, r.law, str(r.n), str(r.nu), r.estimator,
                    _fmt(r.cell.med_ise_e4), _fmt(r.cell.iqr_ise_e4),
                    str(r.cell.n_failed_reps), str(r.cell.replicates),
                ]
            )
    return path


def read_table_csv(path) -> list[TableRow]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _TABLE_COLS:
            raise DataFormatError(f"{path}: unexpected table header {header}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            cell = SummaryCell(
                _parse_float(row[5], i, "med_ise_e4", path, finite=False),
                _parse_float(row[6], i, "iqr_ise_e4", path, finite=False),
                int(row[7]),
                int(row[8]),
            )
            rows.append(TableRow(row[0], row[1], int(row[2]), int(row[3]), row[4], cell))
    return rows


def write_table_json(rows: list[TableRow], path) -> Path:
    path = Path(path)
    payload = {
        "schema": TABLE_SCHEMA,
        "rows": [
            {
                "model": r.model_id,
                "law": r.law,
                "n": r.n,
                "nu": r.nu,
                "estimator": r.estimator,
                "med_ise_e4": float(r.cell.med_ise_e4),
                "iqr_ise_e4": float(r.cell.iqr_ise_e4),
                "n_failed_reps": r.cell.n_failed_reps,
                "replicates": r.cell.replicates,
            }
            for r in rows
        ],
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def read_table_json(path) -> list[TableRow]:
    path = Path(path)
    payload = json.loads(path.read_text())
    if payload.get("schema") != TABLE_SCHEMA:
        raise DataFormatError(f"{path}: unexpected schema {payload.get('schema')!r}")
    return [
        TableRow(
            r["model"], r["law"], int(r["n"]), int(r["nu"]), r["estimator"],
            SummaryCell(
                float(r["med_ise_e4"]), float(r["iqr_ise_e4"]),
                int(r["n_failed_reps"]), int(r["replicates"]),
            ),
        )
        for r in payload["rows"]
    ]


_TRACE_COLS = ["model", "law", "n", "nu", "estimator", "replicate", "ise"]


def write_traces_csv(rows: list[TraceRow], path) -> Path:
    """Per-replicate ISE audit trail; failed replicates get an empty cell."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLS)
        for r in rows:
            writer.writerow(
                [r.model_id, r.law, str(r.n), str(r.nu), r.estimator,
                 str(r.replicate), "" if r.ise is None else _fmt(r.ise)]
            )
    return path


def read_traces_csv(path) -> list[TraceRow]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _TRACE_COLS:
            raise DataFormatError(f"{path}: unexpected trace header {header}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            val = (None if row[6] == ""
                   else _parse_float(row[6], i, "ise", path, finite=False))
            rows.append(
                TraceRow(row[0], row[1], int(row[2]), int(row[3]), row[4],
                         int(row[5]), val)
            )
    return rows


# ---------------------------------------------------------------------------
# experiments and diagnostics


def write_rate_json(res: RateResult, path) -> Path:
    path = Path(path)
    payload = {
        "schema": RATE_SCHEMA,
        "n_values": list(res.n_values),
        "med_ise": [float(v) for v in res.med_ise],
        "bandwidths": [float(v) for v in res.bandwidths],
        "slope": float(res.slope),
        "slope_band": [float(res.slope_band[0]), float(res.slope_band[1])],
        "n_failed": list(res.n_failed),
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def write_rate_csv(res: RateResult, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "med_ise", "bandwidth", "n_failed"])
        for n, m, h, f in zip(res.n_values, res.med_ise, res.bandwidths, res.n_failed):
            writer.writerow([str(n), _fmt(m), _fmt(h), str(f)])
    return path


def write_overpool_json(rows: list[OverpoolRow], path) -> Path:
    path = Path(path)
    payload = {
        "schema": OVERPOOL_SCHEMA,
        "rows": [
            {
                "nu": r.nu,
                "med_ise_e4": float(r.med_ise_e4),
                "iqr_ise_e4": float(r.iqr_ise_e4),
                "n_failed": r.n_failed,
                "n_all_positive": r.n_all_positive,
                "lambda_mid": float(r.lambda_mid),
            }
            for r in rows
        ],
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def write_overpool_csv(rows: list[OverpoolRow], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["nu", "med_ise_e4", "iqr_ise_e4", "n_failed", "n_all_positive",
             "lambda_mid"]
        )
        for r in rows:
            writer.writerow(
                [str(r.nu), _fmt(r.med_ise_e4), _fmt(r.iqr_ise_e4),
                 str(r.n_failed), str(r.n_all_positive), _fmt(r.lambda_mid)]
            )
    return path


def write_diagnostics_csv(diag: AsymptoticDiagnostics, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "A", "B", "A1", "B1", "lambda_n", "v"])
        for i in range(np.asarray(diag.x).shape[0]):
            writer.writerow(
                [_fmt(diag.x[i]), _fmt(diag.A[i]), _fmt(diag.B[i]),
                 _fmt(diag.A1[i]), _fmt(diag.B1[i]), _fmt(diag.lambda_n[i]),
                 _fmt(diag.v[i])]
            )
    return path


def write_diagnostics_json(diag: AsymptoticDiagnostics, path) -> Path:
    path = Path(path)
    payload = {
        "schema": DIAGNOSTICS_SCHEMA,
        "q": float(diag.q),
        "b_const": float(diag.b_const),
        "x": [float(v) for v in np.asarray(diag.x)],
        "A": [float(v) for v in np.asarray(diag.A)],
        "B": [float(v) for v in np.asarray(diag.B)],
        "A1": [float(v) for v in np.asarray(diag.A1)],
        "B1": [float(v) for v in np.asarray(diag.B1)],
        "lambda_n": [float(v) for v in np.asarray(diag.lambda_n)],
        "v": [float(v) for v in np.asarray(diag.v)],
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


# ---------------------------------------------------------------------------
# dispatching writer


_WRITERS = {
    "csv": {
        EstimateResult: write_estimate_csv,
        RateResult: write_rate_csv,
        AsymptoticDiagnostics: write_diagnostics_csv,
    },
    "json": {
        EstimateResult: write_estimate_json,
        RateResult: write_rate_json,
        AsymptoticDiagnostics: write_diagnostics_json,
    },
}


def emit_results(obj, formats, outdir, stem: str) -> list[Path]:
    """Write an estimate/table/experiment object in each requested format."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise DataFormatError(f"unknown output format {fmt!r}")
        target = outdir / f"{stem}.{fmt}"
        if isinstance(obj, EstimateResult) or isinstance(obj, RateResult) or isinstance(
            obj, AsymptoticDiagnostics
        ):
            written.append(_WRITERS[fmt][type(obj)](obj, target))
        elif isinstance(obj, list) and obj and isinstance(obj[0], TableRow):
            writer = write_table_csv if fmt == "csv" else write_table_json
            written.append(writer(obj, target))
        elif isinstance(obj, list) and obj and isinstance(obj[0], OverpoolRow):
            writer = write_overpool_csv if fmt == "csv" else write_overpool_json
            written.append(writer(obj, target))
        else:
            raise DataFormatError(f"no writer for object of type {type(obj).__name__}")
    return written
