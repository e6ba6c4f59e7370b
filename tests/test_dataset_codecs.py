"""Individual and pooled CSV codecs: one table of faulty files, exact round trips.

Every file in ``FAULTS`` holds a single fault, and ingest must name it with
the path and, for a bad cell, its row and column.  The round trips write
generated datasets, ingest them and write them again: the arrays come back
bit for bit and the second file is byte-identical to the first.  Pools that
ingest re-orders by center come back re-ordered, and their second file is
that of the re-ordered pools.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from poolreg import PooledDataset, RawDataset, pool_binned, pool_homogeneous, pool_random
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

