"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each criterion writes one pass/fail line into the pytest terminal summary
(see conftest).  The Monte Carlo cells reuse a fixed master seed; cells
shared between criteria are computed once at 200 replicates, the remaining
cells at 100.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import record_criterion
from poolreg import (
    BandwidthRule,
    EPANECHNIKOV,
    GAUSSIAN,
    RawDataset,
    SimulationSpec,
    SmootherSpec,
    asymptotic_diagnostics,
    constant_model,
    estimate_dh,
    estimate_dm,
    estimate_ll,
    local_poly_fit,
    make_model,
    overpooling_experiment,
    pool_binned,
    pool_homogeneous,
    pool_random,
    pooled_negative_probability,
    rate_experiment,
    run_cell,
    sample_replicate,
    seed_stream,
)
from poolreg.io import (
    ingest_individual_csv,
    ingest_pooled_csv,
    read_estimate_json,
    write_estimate_json,
    write_individual_csv,
    write_pooled_csv,
)
from poolreg.smoothing import effective_weight_moments

pytestmark = pytest.mark.acceptance

SEED = 20250809


def check(name: str, passed: bool, detail: str) -> None:
    record_criterion(name, passed, detail)
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared Monte Carlo cells


@pytest.fixture(scope="module")
def cell_iii_nu5():
    spec = SimulationSpec(
        make_model("iii"), 5000, 5, ("DH", "LL"), replicates=200, seed=SEED
    )
    return run_cell(spec, cell_index=0)


@pytest.fixture(scope="module")
def cell_i_nu10():
    spec = SimulationSpec(
        make_model("i"), 5000, 10, ("DH", "DM"), replicates=200, seed=SEED
    )
    return run_cell(spec, cell_index=1)


@pytest.fixture(scope="module")
def cells_nu10_rest():
    out = {}
    for i, mid in enumerate(("ii", "iii", "iv")):
        spec = SimulationSpec(
            make_model(mid), 5000, 10, ("DH", "DM"), replicates=100, seed=SEED
        )
        out[mid] = run_cell(spec, cell_index=2 + i)
    return out


@pytest.fixture(scope="module")
def cells_nu5_rest():
    out = {}
    for i, mid in enumerate(("i", "ii", "iv")):
        spec = SimulationSpec(
            make_model(mid), 5000, 5, ("DH", "LL"), replicates=100, seed=SEED
        )
        out[mid] = run_cell(spec, cell_index=5 + i)
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_exact_coincidence_nu_one():
    raw = sample_replicate(make_model("iii"), 400, seed_stream(SEED, 100))
    grid = np.linspace(raw.covariates.min(), raw.covariates.max(), 201)
    worst = 0.0
    for spec in (
        SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.15)),
        SmootherSpec(EPANECHNIKOV, 2, BandwidthRule.fixed(0.35)),
        SmootherSpec(GAUSSIAN, 1, BandwidthRule.cv()),
    ):
        dh = estimate_dh(pool_homogeneous(raw, 1), spec, grid)
        ll = estimate_ll(raw, spec, grid)
        dm = estimate_dm(pool_random(raw, 1, 7), spec, grid)
        worst = max(
            worst,
            float(np.nanmax(np.abs(dh.p_hat - ll.p_hat))),
            float(np.nanmax(np.abs(dm.p_hat - ll.p_hat))),
        )
    check(
        "criterion 1 (nu=1 coincidence)",
        worst <= 1e-12,
        f"max pointwise |DH-LL|, |DM-LL| = {worst:.2e} (tol 1e-12)",
    )


def test_criterion_2_table_reproduction(cell_iii_nu5, cell_i_nu10):
    dh3 = cell_iii_nu5["DH"].med_ise_e4
    ll3 = cell_iii_nu5["LL"].med_ise_e4
    dh1 = cell_i_nu10["DH"].med_ise_e4
    dm1 = cell_i_nu10["DM"].med_ise_e4
    ok = (
        0.083 <= dh3 <= 0.332
        and 0.088 <= ll3 <= 0.352
        and 1.65 <= dh1 <= 6.60
        and 7.05 <= dm1 <= 28.2
    )
    check(
        "criterion 2 (table reproduction, factor-2 bands)",
        ok,
        f"iii nu=5: DH {dh3:.3f} in [0.083,0.332], LL {ll3:.3f} in [0.088,0.352]; "
        f"i nu=10: DH {dh1:.2f} in [1.65,6.60], DM {dm1:.2f} in [7.05,28.2]",
    )


def test_criterion_3_dh_dominates_dm(cell_i_nu10, cells_nu10_rest):
    ratios = {"i": cell_i_nu10["DH"].med_ise_e4 / cell_i_nu10["DM"].med_ise_e4}
    for mid, cells in cells_nu10_rest.items():
        ratios[mid] = cells["DH"].med_ise_e4 / cells["DM"].med_ise_e4
    worst = max(ratios.values())
    check(
        "criterion 3 (ordering DH <= 0.6 DM at nu=10)",
        worst <= 0.6,
        "med ISE ratios DH/DM: "
        + ", ".join(f"{m}={r:.3f}" for m, r in sorted(ratios.items()))
        + " (need <= 0.6)",
    )


def test_criterion_4_pooling_is_cheap(cell_iii_nu5, cells_nu5_rest):
    ratios = {"iii": cell_iii_nu5["DH"].med_ise_e4 / cell_iii_nu5["LL"].med_ise_e4}
    for mid, cells in cells_nu5_rest.items():
        ratios[mid] = cells["DH"].med_ise_e4 / cells["LL"].med_ise_e4
    worst = max(ratios.values())
    check(
        "criterion 4 (pooling cheap: DH <= 1.5 LL at nu=5)",
        worst <= 1.5,
        "med ISE ratios DH/LL: "
        + ", ".join(f"{m}={r:.3f}" for m, r in sorted(ratios.items()))
        + " (need <= 1.5)",
    )


def test_criterion_5_convergence_rate():
    res = rate_experiment(
        make_model("iii"), 5, [1000, 4000, 16000], replicates=100, seed=SEED
    )
    ok = -1.0 <= res.slope <= -0.6
    check(
        "criterion 5 (rate slope in [-1.0, -0.6])",
        ok,
        f"log-log slope {res.slope:.3f} (theory -0.8), "
        f"bootstrap band [{res.slope_band[0]:.3f}, {res.slope_band[1]:.3f}], "
        f"med 1e4*ISE: " + ", ".join(
            f"N={n}: {m * 1e4:.3f}" for n, m in zip(res.n_values, res.med_ise)
        ),
    )


def test_criterion_6_variance_formula():
    model = make_model("iii")
    spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2))
    vals = np.empty(500)
    for r in range(500):
        raw = sample_replicate(model, 10_000, seed_stream(SEED, 200, r))
        est = estimate_dh(pool_homogeneous(raw, 5), spec, np.array([0.5]))
        vals[r] = est.p_hat[0]
    emp_var = float(np.var(vals, ddof=1))
    diag = asymptotic_diagnostics(model, spec, 5, 10_000, 0.2, 0.5)
    a_sq = float(diag.A[0] ** 2)
    # local linear gaussian constants at a uniform design: b = 1, v = 1/(2 sqrt(pi))
    assert diag.b_const == 1.0
    np.testing.assert_allclose(diag.v[0], 1.0 / (2.0 * np.sqrt(np.pi)), rtol=1e-12)
    ok = abs(emp_var - a_sq) <= 0.30 * a_sq
    check(
        "criterion 6 (variance formula vs Monte Carlo)",
        ok,
        f"empirical var {emp_var:.3e} vs A^2 {a_sq:.3e} "
        f"(ratio {emp_var / a_sq:.3f}, need within 30%)",
    )


def test_criterion_7_overpooling_degradation():
    rows = overpooling_experiment(
        constant_model(0.1), 10_000, [5, 40], replicates=100, seed=SEED
    )
    med5, med40 = rows[0].med_ise_e4, rows[1].med_ise_e4
    ok = med40 >= 4.0 * med5
    check(
        "criterion 7 (over-pooling: ISE(nu=40) >= 4x ISE(nu=5))",
        ok,
        f"med 1e4*ISE: nu=5 {med5:.3f}, nu=40 {med40:.3f} "
        f"(ratio {med40 / med5:.1f}, lambda(0.5) = {rows[1].lambda_mid:.2f})",
    )


def test_criterion_8_property_suites_under_a_minute(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(SEED)

    # polynomial reproduction, degree <= l, error < 1e-10
    for degree in (1, 2, 3):
        u = np.sort(rng.uniform(0, 1, 60))
        coef = rng.uniform(-1, 1, degree + 1)
        z = np.polyval(coef, u)
        spec = SmootherSpec(GAUSSIAN, degree, BandwidthRule.fixed(0.4))
        for x in (0.2, 0.5, 0.8):
            fit = local_poly_fit(np.column_stack([u, z]), spec, x)
            truth = np.polyval(coef, x)
            assert abs(fit.value - truth) <= 1e-10 * max(1.0, abs(truth))

    # moment annihilation up to the fit degree
    u = np.sort(rng.uniform(0, 1, 80))
    z = rng.normal(size=80)
    design = np.column_stack([u, z])
    for degree in (1, 2):
        spec = SmootherSpec(GAUSSIAN, degree, BandwidthRule.fixed(0.3))
        fit = local_poly_fit(design, spec, 0.5)
        for k in range(degree + 1):
            want = 1.0 if k == 0 else 0.0
            assert abs(effective_weight_moments(fit, design, 0.5, k) - want) < 1e-10

    # pooled-probability exhaustive oracle for nu <= 10
    for nu in range(1, 11):
        p = rng.uniform(0.0, 0.5, nu)
        total = 0.0
        for bits in itertools.product((0, 1), repeat=nu):
            prob = 1.0
            for b, pi in zip(bits, p):
                prob *= pi if b else 1.0 - pi
            if max(bits) == 0:
                total += prob
        assert abs(pooled_negative_probability(p) - total) < 1e-12

    # partition and contiguity invariants
    x = rng.normal(size=120)
    y = (rng.random(120) < 0.3).astype(int)
    hom = pool_homogeneous(RawDataset(x, y), 6)
    back = np.sort(hom.member_covariates)
    np.testing.assert_array_equal(back, np.sort(x))
    members = np.split(hom.member_covariates, np.cumsum(hom.sizes())[:-1])
    for a, b in zip(members[:-1], members[1:]):
        assert a.max() <= b.min()
    rnd = pool_random(RawDataset(x, y), 6, 3)
    back = np.sort(rnd.member_covariates)
    np.testing.assert_array_equal(back, np.sort(x))
    xb = rng.uniform(0, 1, 200)
    binned = pool_binned(RawDataset(xb, (rng.random(200) < 0.2).astype(int)), 8.0)
    assert sum(binned.sizes()) == 200

    # p_hat within [0, 1] for every estimator
    raw = sample_replicate(make_model("iii"), 1000, seed_stream(SEED, 300))
    grid = np.linspace(0.05, 0.95, 101)
    spec = SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.15))
    for est in (
        estimate_dh(pool_homogeneous(raw, 5), spec, grid),
        estimate_dm(pool_random(raw, 5, 1), spec, grid),
        estimate_ll(raw, spec, grid),
    ):
        ok = est.failures == 0
        assert ((est.p_hat[ok] >= 0.0) & (est.p_hat[ok] <= 1.0)).all()

    # codec round-trips
    p_ind = write_individual_csv(raw, tmp_path / "raw.csv")
    back_raw = ingest_individual_csv(p_ind)
    np.testing.assert_array_equal(back_raw.covariates, raw.covariates)
    pooled = pool_homogeneous(raw, 5)
    p_pool = write_pooled_csv(pooled, tmp_path / "pool.csv")
    back_pool = ingest_pooled_csv(p_pool)
    np.testing.assert_array_equal(back_pool.centers(), pooled.centers())
    est = estimate_dh(pooled, spec, grid)
    assert read_estimate_json(write_estimate_json(est, tmp_path / "e.json")) == est

    # seeded determinism: bitwise-identical cells and files
    spec_sim = SimulationSpec(
        make_model("iii"), 300, 3, ("DH",),
        SmootherSpec(GAUSSIAN, 1, BandwidthRule.fixed(0.2)), 6, SEED,
    )
    c1 = run_cell(spec_sim, 0)
    c2 = run_cell(spec_sim, 0)
    assert c1["DH"].med_ise_e4 == c2["DH"].med_ise_e4
    e1 = write_estimate_json(est, tmp_path / "d1.json").read_bytes()
    e2 = write_estimate_json(est, tmp_path / "d2.json").read_bytes()
    assert e1 == e2

    elapsed = time.time() - t0
    check(
        "criterion 8 (property suites < 1 min)",
        elapsed < 60.0,
        f"reproduction, moments, exhaustive pooling oracle, partitions, "
        f"range, codecs, determinism all passed in {elapsed:.1f}s",
    )
