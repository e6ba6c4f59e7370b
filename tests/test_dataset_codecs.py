"""Individual and pooled CSV codecs: one table of faulty files, exact round trips.

Every file in ``FAULTS`` holds a single fault, and ingest must name it with
the path and, for a bad cell, its row and column.  The round trips write
generated datasets, ingest them and write them again: the arrays come back
bit for bit and the second file is byte-identical to the first.  Pools that
ingest re-orders by center come back re-ordered, and their second file is
that of the re-ordered pools.
"""

import csv
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from poolreg import PooledDataset, RawDataset, pool_binned, pool_homogeneous, pool_random
from poolreg import io as pio
from poolreg.cli import main
from poolreg.io import (
    DataFormatError,
    ingest_individual_csv,
    ingest_pooled_csv,
    write_individual_csv,
    write_pooled_csv,
)
from poolreg.pooling import _pool_means

IND, POOL = "individual", "pooled"
INGEST = {IND: ingest_individual_csv, POOL: ingest_pooled_csv}
POOL_HEADER = "group_id,x1,group_result\n"

# case: (format, file text, message pattern)
FAULTS = {
    "individual empty file": (IND, "", "empty file"),
    "individual header": (IND, "covariate,y\n0.1,0\n",
                          r"covariate header must be \['x'\], got \['covariate'\]"),
    "individual header gap": (IND, "x,x3,y\n0.1,0.2,0\n",
                              r"covariate header must be \['x', 'x2'\], got \['x', 'x3'\]"),
    "individual blank header": (IND, "\nx,y\n0.1,0\n",
                                r"covariate header must be \['x'\], got \[\]"),
    "individual short row": (IND, "x,y\n0.1,0\n0.5\n", "row 3 has 1 cells, expected 2"),
    "individual long row": (IND, "x\n0.1\n0.5,1\n", "row 3 has 2 cells, expected 1"),
    "individual malformed covariate": (
        IND, "x,y\n0.1,0\noops,1\n", "malformed numeric cell at row 3, column 'x': 'oops'"),
    "individual non-finite covariate": (
        IND, "x,x2,y\n0.1,0.2,0\n0.5,inf,1\n",
        "non-finite value at row 3, column 'x2': 'inf'"),
    "individual y of 2": (IND, "x,y\n0.1,2\n",
                          "test result must be 0 or 1 at row 2, column 'y': '2'"),
    "individual y of 1.0": (IND, "x,y\n0.1,0\n0.2,1.0\n",
                            "test result must be 0 or 1 at row 3, column 'y': '1.0'"),
    "individual no data rows": (IND, "x,y\n", "no data rows"),
    "individual only blank rows": (IND, "x,y\n\n\n", "no data rows"),
    "individual fault after a blank row": (
        IND, "x,y\n0.1,0\n\noops,1\n", "malformed numeric cell at row 4, column 'x'"),
    "pooled empty file": (POOL, "", "empty file"),
    "pooled header ends": (POOL, "id,x1,group_result\na,0.1,0\n",
                           r"pooled header must be group_id,x1\[,...,xd\],group_result"),
    "pooled header no covariate": (
        POOL, "group_id,group_result\na,0\n",
        r"pooled header must be group_id,x1\[,...,xd\],group_result"),
    "pooled covariate columns": (POOL, "group_id,x2,group_result\na,0.1,0\n",
                                 r"covariate columns must be \['x1'\], got \['x2'\]"),
    "pooled short row": (POOL, POOL_HEADER + "a,0.1,0\na,0.2\n",
                         "row 3 has 2 cells, expected 3"),
    "pooled malformed covariate": (POOL, POOL_HEADER + "a,abc,0\n",
                                   "malformed numeric cell at row 2, column 'x1': 'abc'"),
    "pooled non-finite covariate": (POOL, POOL_HEADER + "a,0.1,0\nb,nan,1\n",
                                    "non-finite value at row 3, column 'x1': 'nan'"),
    "pooled group_result of 2": (
        POOL, POOL_HEADER + "a,0.1,2\n",
        "test result must be 0 or 1 at row 2, column 'group_result': '2'"),
    "pooled empty group_id": (POOL, POOL_HEADER + "a,0.1,0\n ,0.2,0\n",
                              "empty group_id at row 3"),
    "pooled inconsistent group": (
        POOL, POOL_HEADER + "lab7,0.1,0\nb,0.5,1\nlab7,0.2,1\n",
        "inconsistent group_result within group 'lab7'"),
    "pooled no data rows": (POOL, POOL_HEADER, "no data rows"),
    "pooled fault after a blank row": (POOL, POOL_HEADER + "a,0.1,0\n\na,0.2\n",
                                       "row 4 has 2 cells, expected 3"),
}


@pytest.mark.parametrize("case", FAULTS)
def test_single_fault_is_named(case, tmp_path):
    fmt, text, message = FAULTS[case]
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=message) as err:
        INGEST[fmt](path)
    assert str(err.value).startswith(f"{path}: ")


def test_blank_rows_are_skipped(tmp_path):
    ind = tmp_path / "ind.csv"
    ind.write_text("x,y\n\n0.1,0\n\n\n0.5,1\n\n")
    raw = ingest_individual_csv(ind)
    assert raw.covariates.tolist() == [0.1, 0.5]
    assert raw.responses.tolist() == [0, 1]

    pooled_path = tmp_path / "pool.csv"
    pooled_path.write_text(POOL_HEADER + "\na,0.1,0\n\na,0.2,0\nb,0.7,1\n\n")
    pooled = ingest_pooled_csv(pooled_path)
    assert pooled.member_covariates.tolist() == [0.1, 0.2, 0.7]
    assert pooled.sizes().tolist() == [2, 1]
    assert pooled.y_star.tolist() == [0, 1]


# files the csv module cannot read or that are not UTF-8: (format, bytes, message)
UNREADABLE = {
    "cell past the csv field limit": (
        IND, f"x,y\n0.5,1\n{'0' * 131_073},0\n".encode(),
        "unreadable row 3: field larger than field limit (131072)"),
    "pooled cell past the csv field limit": (
        POOL, f"{POOL_HEADER}a,0.5,1\n\nb,0.25,0\n{'b' * 131_073},0.5,0\n".encode(),
        "unreadable row 5: field larger than field limit (131072)"),
    "byte that is not UTF-8": (IND, b"x,y\n0.5,1\n0.\xff5,0\n",
                               "not UTF-8 text: byte 0xff cannot be decoded"),
    "pooled byte that is not UTF-8": (POOL, POOL_HEADER.encode() + b"a\xfe,0.5,1\n",
                                      "not UTF-8 text: byte 0xfe cannot be decoded"),
    "header byte that is not UTF-8": (IND, b"\xffx,y\n0.5,1\n",
                                      "not UTF-8 text: byte 0xff cannot be decoded"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_file_is_named_and_exits_2(case, tmp_path, caplog):
    fmt, data, message = UNREADABLE[case]
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with pytest.raises(DataFormatError) as err:
        INGEST[fmt](path)
    assert str(err.value) == f"{path}: {message}"

    argv = ["estimate", "--input", str(path), "--estimator", "dh",
            "--out", str(tmp_path / "out")] + ["--nu", "1"] * (fmt == IND)
    with caplog.at_level(logging.ERROR, logger="poolreg"):
        assert main(argv) == 2
    assert f"{path}: {message}" in caplog.text


# ---------------------------------------------------------------------------
# round trips

# -0.0, the smallest subnormal and other awkward finite covariates
SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                           1e-300, 0.1, 1 / 3, 1.0 - 2**-53])
COVARIATE = SPECIAL | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
UNIT = SPECIAL.filter(lambda v: v >= 0.0) | st.floats(0.0, 1.0, exclude_max=True)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def individual_datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(COVARIATE, min_size=n * d, max_size=n * d)))
    x = x if d == 1 else x.reshape(n, d)
    y = None
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=np.int8)
    return RawDataset(x, y)


@st.composite
def pooled_datasets(draw):
    strategy = draw(st.sampled_from(["homogeneous", "random", "binned"]))
    if strategy == "binned":
        d = draw(st.integers(1, 2))
        bins = draw(st.integers(1, 4))  # per axis
        nu = draw(st.integers(1, 3))
        n = nu * bins**d
        x = np.array(draw(st.lists(UNIT, min_size=n * d, max_size=n * d)))
    else:
        d, nu = 1, draw(st.integers(1, 4))
        n = nu * draw(st.integers(1, 5))
        x = np.array(draw(st.lists(COVARIATE, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    raw = RawDataset(x if d == 1 else x.reshape(n, d), y)
    if strategy == "homogeneous":
        return pool_homogeneous(raw, nu)
    if strategy == "random":
        return pool_random(raw, nu, draw(st.integers(0, 2**32 - 1)))
    return pool_binned(raw, float(nu))


def as_ingested(pooled: PooledDataset, strategy: str) -> tuple[PooledDataset, bool]:
    """The pools as ingest builds them, and whether their order is unchanged.

    Ingest keeps the groups and their members, and orders the groups by
    center (the members' mean) when it found their ranges contiguous.
    """
    sizes = pooled.sizes()
    means = _pool_means(pooled.member_covariates, sizes)
    order = np.arange(sizes.size)
    if strategy == "homogeneous_sorted":
        order = np.argsort(means, kind="stable")
    groups = np.split(pooled.member_covariates, np.cumsum(sizes)[:-1])
    members = np.concatenate([groups[j] for j in order])
    want = PooledDataset(members, sizes[order], means[order], pooled.y_star[order],
                         strategy, pooled.nu, pooled.dimension)
    return want, bool((order == np.arange(sizes.size)).all())


SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_individual_round_trip_is_exact(tmp_path):
    @SETTINGS
    @given(individual_datasets())
    def check(raw):
        first = write_individual_csv(raw, tmp_path / "a.csv")
        back = ingest_individual_csv(first)
        assert same_bits(back.covariates, raw.covariates)
        if raw.responses is None:
            assert back.responses is None
        else:
            assert same_bits(back.responses, raw.responses)
        second = write_individual_csv(back, tmp_path / "b.csv")
        assert second.read_bytes() == first.read_bytes()

    check()


# singletons in shuffled order: contiguous, so ingest re-orders them by center
SHUFFLED_SINGLETONS = pool_random(
    RawDataset(np.array([0.1, 0.2, 0.3, -0.0, 5e-324]), np.array([0, 1, 0, 1, 1])), 1, 5)


def test_pooled_round_trip_is_exact(tmp_path):
    @SETTINGS
    @given(pooled_datasets())
    @example(SHUFFLED_SINGLETONS)
    def check(pooled):
        first = write_pooled_csv(pooled, tmp_path / "a.csv")
        back = ingest_pooled_csv(first)
        if pooled.strategy == "homogeneous_sorted":
            assert back.strategy == "homogeneous_sorted"
        if pooled.dimension > 1:
            assert back.strategy == "generic"
        want, kept_order = as_ingested(pooled, back.strategy)
        assert back.dimension == pooled.dimension
        for name in ("member_covariates", "group_sizes", "group_centers", "y_star"):
            assert same_bits(getattr(back, name), getattr(want, name)), name
        second = write_pooled_csv(back, tmp_path / "b.csv")
        expected = first if kept_order else write_pooled_csv(want, tmp_path / "c.csv")
        assert second.read_bytes() == expected.read_bytes()

    check()


def reference_individual(raw: RawDataset, path) -> bytes:
    """The individual file as ``csv.writer`` writes it, one cell at a time."""
    d = raw.dimension
    header = ["x"] + [f"x{i}" for i in range(2, d + 1)]
    rows = [[f"{v:.17g}" for v in xi] for xi in raw.covariates.reshape(raw.n, d)]
    if raw.responses is not None:
        header.append("y")
        rows = [[*cells, str(int(y))] for cells, y in zip(rows, raw.responses)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path.read_bytes()


def reference_pooled(pooled: PooledDataset, path) -> bytes:
    """The pooled file as ``csv.writer`` writes it, one cell at a time."""
    d = pooled.dimension
    header = ["group_id"] + [f"x{i}" for i in range(1, d + 1)] + ["group_result"]
    width = max(4, len(str(pooled.n_groups)))
    row_group = np.repeat(np.arange(pooled.n_groups), pooled.group_sizes)
    rows = [[f"g{j:0{width}d}", *(f"{v:.17g}" for v in xi), str(int(pooled.y_star[j]))]
            for j, xi in zip(row_group, pooled.member_covariates.reshape(-1, d))]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path.read_bytes()


# 12,000 rows of about 2,000 distinct values, -0.0 and 0.0 among them: ids
# five digits wide and heavy repeats
_RNG = np.random.default_rng(8)
BIG_RAW = RawDataset(np.round(_RNG.uniform(-1, 1, 12_000), 3), _RNG.integers(0, 2, 12_000))


def test_data_files_are_written_as_csv_writer_writes_them(tmp_path):
    @SETTINGS
    @given(st.one_of(individual_datasets(), pooled_datasets()))
    @example(BIG_RAW)
    @example(pool_homogeneous(BIG_RAW, 1))
    @example(RawDataset(np.round(_RNG.uniform(size=(3000, 3)), 1)))
    def check(data):
        if isinstance(data, RawDataset):
            got = write_individual_csv(data, tmp_path / "got.csv").read_bytes()
            assert got == reference_individual(data, tmp_path / "want.csv")
        else:
            got = write_pooled_csv(data, tmp_path / "got.csv").read_bytes()
            assert got == reference_pooled(data, tmp_path / "want.csv")

    check()


# ---------------------------------------------------------------------------
# the vectorised parse against the row loop
#
# Ingest reads a data file's body in one numpy parse and hands it to the row
# loop wherever that parse is in doubt.  On any file, ingest must give the
# row loop's arrays bit for bit, or raise the row loop's exact error.

LONG_CELL = "0" * 131_072 + ".5"  # past the csv field limit, but a number to numpy
X_HAZARDS = ["nan", "inf", "-inf", "NaN", "1e999", "1e-400", "1_0", "١", "0x10", "",
             " ", "abc", " 0.5", "0.5 ", "\t0.5", "+0.5", "#0.5", '"0.5"', "0.5\x00",
             "\x1c0.5", "0.5\x1c", "0.5\x0b", LONG_CELL]
RESULT_HAZARDS = ["+1", "01", " 1", "1 ", "1.0", "1\x00", "\x001", "2", "10", "-0", "",
                  "١", '"1"', "#1", "0\t", "\x1c1", "True"]
ID_HAZARDS = ["", " ", " a", "a ", "\ta", "a\x1c", "\x1fa", '"a"', "#a", "a\x00", "é",
              "x" * 32 + "a", "x" * 32 + "b", "x" * 31, "x" * 32, "a b", "g000001 "]
LINE_HAZARDS = ["", " ", "\t", "#", "# a comment", ",", ",,", "\x00"]
IDS = (st.sampled_from(["a", "b", "lab7", "g000001", "g000002", "G1", "x" * 31])
       | st.sampled_from(ID_HAZARDS))
# a prefix that makes every id of a file longer than any fixed width, so that
# a read at such a width would merge its groups
ID_PREFIX = st.sampled_from(["", "", "x" * 32, "y" * 1000])


def float_cell(v: float, style: int) -> str:
    return (f"{v:.17g}", repr(v), f"{v}", f"{v:.3e}")[style]


@st.composite
def data_files(draw):
    """(format, file bytes): a well-formed file, then up to two hazards."""
    fmt = draw(st.sampled_from([IND, POOL]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    x = [draw(st.lists(COVARIATE, min_size=d, max_size=d)) for _ in range(n)]
    style = draw(st.integers(0, 3))
    if fmt == IND:
        has_y = draw(st.booleans())
        header = ["x"] + [f"x{k}" for k in range(2, d + 1)] + ["y"] * has_y
        rows = [[float_cell(v, style) for v in xi]
                + [str(draw(st.integers(0, 1)))] * has_y for xi in x]
        hazards = {"x": X_HAZARDS, "result": RESULT_HAZARDS}
    else:
        header = ["group_id"] + [f"x{k}" for k in range(1, d + 1)] + ["group_result"]
        prefix = draw(ID_PREFIX)
        ids = [prefix + i for i in draw(st.lists(IDS, min_size=1, max_size=4, unique=True))]
        results = draw(st.sampled_from([[0] * len(ids), [1] * len(ids)])
                       | st.lists(st.integers(0, 1), min_size=len(ids), max_size=len(ids)))
        group = draw(st.lists(st.integers(0, len(ids) - 1), min_size=n, max_size=n))
        if draw(st.booleans()):  # contiguous groups in shuffled order: sortable
            x.sort()
            blocks = draw(st.permutations(range(len(ids))))
            group = sorted(group)
            x = [xi for b in blocks for xi, g in zip(x, group) if g == b]
            group = [g for b in blocks for g in group if g == b]
        rows = [[ids[g]] + [float_cell(v, style) for v in xi] + [str(results[g])]
                for xi, g in zip(x, group)]
        hazards = {"x": X_HAZARDS, "result": RESULT_HAZARDS, "id": ID_HAZARDS}
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["cell", "line", "width", "flip"]))
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 1
        if kind == "line":
            lines.insert(i, draw(st.sampled_from(LINE_HAZARDS)))
        elif i < len(lines) and kind == "width":
            lines[i] += draw(st.sampled_from([",0", ",", ""]))
            lines[i] = lines[i].rsplit(",", draw(st.integers(0, 1)))[0]
        elif i < len(lines) and kind == "flip" and fmt == POOL:
            cells = lines[i].split(",")
            cells[-1] = "1" if cells[-1] == "0" else "0"
            lines[i] = ",".join(cells)
        elif i < len(lines) and kind == "cell":
            cells = lines[i].split(",")
            column = draw(st.sampled_from(sorted(hazards)))
            j = {"id": 0, "result": len(cells) - 1}.get(
                column, draw(st.integers(int(fmt == POOL), d - int(fmt == IND))))
            # a line an earlier hazard made short takes it in its last cell
            cells[min(j, len(cells) - 1)] = draw(st.sampled_from(hazards[column]))
            lines[i] = ",".join(cells)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    body = "".join(line + draw(st.sampled_from([ending] * 6 + ["\n", "\r\n", "\r"]))
                   for line in lines[:-1]) + lines[-1] + draw(st.sampled_from([ending, ""]))
    data = body.encode("utf-8")
    if draw(st.integers(0, 15)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return fmt, data


def same_dataset(got, want) -> bool:
    if isinstance(want, RawDataset):
        if want.responses is None:
            return got.responses is None and same_bits(got.covariates, want.covariates)
        return (same_bits(got.covariates, want.covariates)
                and same_bits(got.responses, want.responses))
    tags = ("strategy", "nu", "dimension")
    arrays = ("member_covariates", "group_sizes", "group_centers", "y_star")
    return (all(getattr(got, k) == getattr(want, k) for k in tags)
            and all(same_bits(getattr(got, k), getattr(want, k)) for k in arrays))


def row_loop_ingest(fmt, path):
    """Ingest with the vectorised parse switched off: the row loop reads the body."""
    with mock.patch.object(pio, "_parse_body", return_value=None):
        return INGEST[fmt](path)


def test_vectorised_parse_matches_the_row_loop(tmp_path):
    outcomes = {"vectorised": 0, "row loop": 0, "error": 0}

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data_files())
    @example((IND, f"x,y\n0.5,1\n{LONG_CELL},0\n".encode()))
    @example((POOL, ("group_id,x1,group_result\n" + "x" * 32 + "a,0.1,0\n"
                     + "x" * 32 + "b,0.2,0\n").encode()))
    @example((POOL, b"group_id,x1,group_result\na,0.1,1\x00\nb,0.2,1\n"))
    @example((IND, b"x,y\n0.1,+1\n0.2,01\n"))
    def check(case):
        fmt, data = case
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        try:
            want = row_loop_ingest(fmt, path)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as err:
                INGEST[fmt](path)
            assert str(err.value) == str(exc)
            outcomes["error"] += 1
            return
        with mock.patch.object(pio, "_parse_float", wraps=pio._parse_float) as parse:
            got = INGEST[fmt](path)
        assert same_dataset(got, want)
        outcomes["row loop" if parse.called else "vectorised"] += 1

    check()
    # the comparison must not be vacuous: each outcome is common
    assert min(outcomes.values()) >= 25, outcomes


def write_screen_files(tmp_path, n: int = 2000, nu: int = 5):
    """An individual and a pooled file as the screen_csv benchmark writes them."""
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = (rng.random(n) < x * x / 8.0).astype(int)
    ind, pooled = tmp_path / "individual.csv", tmp_path / "pooled.csv"
    ind.write_text("x,y\n" + "".join(f"{v:.17g},{r}\n" for v, r in zip(x, y)))
    z = y.reshape(-1, nu).max(axis=1)
    pooled.write_text("group_id,x1,group_result\n" + "".join(
        f"g{i // nu:06d},{v:.17g},{z[i // nu]}\n" for i, v in enumerate(x)))
    return ind, pooled


def test_benchmark_shaped_files_take_the_vectorised_parse(tmp_path):
    ind, pooled = write_screen_files(tmp_path)
    want_raw, want_pools = ingest_individual_csv(ind), ingest_pooled_csv(pooled)
    with mock.patch.object(pio, "_parse_float", side_effect=AssertionError("row loop")):
        raw = ingest_individual_csv(ind)
        pools = ingest_pooled_csv(pooled)
    assert same_dataset(raw, want_raw) and raw.n == 2000
    assert same_dataset(pools, want_pools)
    assert pools.strategy == "homogeneous_sorted" and pools.nu == 5.0
    assert pools.n_groups == 400
