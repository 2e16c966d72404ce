"""Acceptance gate: one test per criterion, tolerances pinned inline.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 9 is expected to fail: the target accuracy lies
beyond the Cramer-Rao bound of the fitted family at the stated sample
size (see CHANGES.md); the assertion is kept faithful and the
test is marked strict-xfail so an unexpected pass would itself fail.
"""

import math
import time

import numpy as np
import pytest

from qgraph.ensemble import plan_from_manifest, run_campaign
from qgraph.graphs import Edge, MetricGraph, negate_phases
from qgraph.presets import preset
from qgraph.solver import drop_levels, solve_spectra, solve_spectrum
from qgraph.stats import (
    SpacingSample,
    fit_xi,
    ks_distance,
    sample_transition,
    transition_pdf,
    wigner_pdf,
)
from qgraph.units import k_from_ghz
from qgraph import io as qio

from conftest import (
    fd_oracle_spectrum,
    gue_numerics_manifest,
    interval_graph,
    loop_graph,
    random_k4,
)

WORKERS = 4

# pinned tolerances
ANALYTIC_RTOL = 1e-9                 # criterion 1
GOE_COUNT_RANGE = (35, 38)           # criterion 2: 36-37 with +/-1
GUE_COUNT_RANGE = (32, 35)           # criterion 2: 33-34 with +/-1
SOLVE_TIME_LIMIT = 30.0              # criterion 2, per solve
NFL_BOUND = 3.0                      # criterion 3
GOE_CAMPAIGN_TIME_LIMIT = 300.0      # criterion 4
GUE_POOL_TARGET = 5960               # criterion 6
GUE_POOL_REL_TOL = 0.05
MEAN_SPACING_TOL = 0.02
GUE_CAMPAIGN_TIME_LIMIT = 900.0      # criterion 6
PHASE_REVERSAL_TOL = 2e-10           # criterion 7
GOE_LIMIT_SUP = 1e-2                 # criterion 8
GUE_LIMIT_SUP = 2e-2
NORMALIZATION_TOL = 1e-6
XI_BAND = (0.85, 1.15)               # criterion 9
XI_REPS = 50
XI_MIN_HITS = 45
ORACLE_POINTS = 2000                 # criterion 10
ORACLE_TIME_LIMIT = 120.0


def report(criterion: int, detail: str, passed: bool = True) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def goe_campaign():
    t0 = time.time()
    result = run_campaign(plan_from_manifest({"presets": ["goe_a", "goe_b"]}), workers=WORKERS)
    return result, time.time() - t0


@pytest.fixture(scope="module")
def gue_sweep_campaign():
    return run_campaign(plan_from_manifest({"presets": ["gue"]}), workers=WORKERS)


@pytest.fixture(scope="module")
def gue_numerics_campaign():
    t0 = time.time()
    result = run_campaign(plan_from_manifest(gue_numerics_manifest()), workers=WORKERS)
    return result, time.time() - t0


def test_criterion_1_analytic_spectra():
    t0 = time.time()
    spec = solve_spectrum(interval_graph(1.0), (0.1, 30.5 * math.pi))
    expect = math.pi * np.arange(1, spec.count + 1)
    rel = np.abs(spec.expanded() / expect - 1.0).max()
    assert spec.count >= 30
    assert rel < ANALYTIC_RTOL

    loop = solve_spectrum(loop_graph(1.0), (0.1, 15.5 * 2 * math.pi))
    expect_loop = 2 * math.pi * np.arange(1, loop.wavenumbers.size + 1)
    assert np.all(loop.multiplicities == 2)
    rel_loop = np.abs(loop.wavenumbers / expect_loop - 1.0).max()
    assert rel_loop < ANALYTIC_RTOL
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"interval rel err {rel:.2e}, loop rel err {rel_loop:.2e}, {elapsed:.2f}s")


def test_criterion_2_weyl_count_reproduction():
    t0 = time.time()
    goe = solve_spectrum(preset("goe_a").graph, (k_from_ghz(0.01), k_from_ghz(2.5)))
    t_goe = time.time() - t0
    assert GOE_COUNT_RANGE[0] <= goe.count <= GOE_COUNT_RANGE[1]
    assert t_goe < SOLVE_TIME_LIMIT

    t0 = time.time()
    gue = solve_spectrum(preset("gue").graph, (k_from_ghz(0.8), k_from_ghz(2.5)))
    t_gue = time.time() - t0
    assert GUE_COUNT_RANGE[0] <= gue.count <= GUE_COUNT_RANGE[1]
    assert t_gue < SOLVE_TIME_LIMIT
    report(
        2,
        f"goe_a count {goe.count} (Weyl 37.5), gue count {gue.count} (Weyl 33.1); "
        f"{t_goe:.2f}s / {t_gue:.2f}s",
    )


def test_criterion_3_completeness_and_fault_injection(goe_campaign):
    result, _ = goe_campaign
    worst = 0.0
    for pair in result.pairs:
        for spec in (pair.before, pair.after):
            worst = max(worst, spec.nfl_max)
            assert spec.nfl_max <= NFL_BOUND
            assert spec.complete
    # fault injection: dropping a root ahead of the deepest N_fl excursion
    # must push the envelope past the bound and trip the flag
    spec = result.pairs[0].before
    ks = spec.expanded()
    nfl = np.arange(1, ks.size + 1) - spec.total_length * (ks - spec.window[0]) / math.pi
    assert nfl.min() < -(NFL_BOUND - 1.0)
    victim = int(np.argmin(nfl))  # 0-based position of the deepest excursion
    faulted = drop_levels(spec, [victim])
    assert faulted.nfl_max > NFL_BOUND
    assert not faulted.complete
    report(3, f"max |N_fl| over campaign {worst:.2f} <= 3; dropped root trips the flag")


def test_criterion_4_interlacing_all_pairs(
    goe_campaign, gue_sweep_campaign, gue_numerics_campaign
):
    goe_result, goe_elapsed = goe_campaign
    assert len(goe_result.pairs) == 22
    assert goe_elapsed < GOE_CAMPAIGN_TIME_LIMIT
    assert all(d == 1 for d in goe_result.interlacing_degrees)

    gue_result = gue_sweep_campaign
    assert len(gue_result.pairs) == 8
    assert all(d == 1 for d in gue_result.interlacing_degrees)

    gue_numerics, _ = gue_numerics_campaign
    assert all(d == 1 for d in gue_numerics.interlacing_degrees)

    for result in (goe_result, gue_result, gue_numerics):
        assert all(abs(m) <= 1 for m in result.shift.support)
    report(
        4,
        f"22 GOE pairs + {len(gue_result.pairs)} GUE sweep pairs + "
        f"{len(gue_numerics.pairs)} GUE numerics pairs all degree 1; "
        f"P(|dN|>=2) = 0; GOE campaign {goe_elapsed:.1f}s",
    )


def test_criterion_5_shift_distribution_structure(goe_campaign, gue_numerics_campaign):
    for label, result in (
        ("GOE", goe_campaign[0]),
        ("GUE", gue_numerics_campaign[0]),
    ):
        shift = result.shift
        assert set(shift.support) <= {-1, 0, 1}
        p0 = shift.probability(0)
        assert p0 > shift.probability(1)
        assert p0 > shift.probability(-1)
    report(5, "P(0) strictly greatest, support within {-1, 0, +1} for both classes")


def test_criterion_6_gue_statistics(gue_numerics_campaign):
    result, elapsed = gue_numerics_campaign
    assert elapsed < GUE_CAMPAIGN_TIME_LIMIT
    lo = GUE_POOL_TARGET * (1 - GUE_POOL_REL_TOL)
    hi = GUE_POOL_TARGET * (1 + GUE_POOL_REL_TOL)
    # both readings of the published total are reported; each side must hit it
    assert lo <= result.levels_before <= hi
    assert lo <= result.levels_after <= hi
    ks_gue = ks_distance(result.spacings, "GUE")
    ks_goe = ks_distance(result.spacings, "GOE")
    assert ks_gue < ks_goe
    assert abs(result.spacings.mean - 1.0) <= MEAN_SPACING_TOL
    report(
        6,
        f"pooled levels before/after {result.levels_before}/{result.levels_after} "
        f"(target 5960 +/- 5%); KS(GUE) {ks_gue:.4f} < KS(GOE) {ks_goe:.4f}; "
        f"mean spacing {result.spacings.mean:.4f}; {elapsed:.1f}s",
    )


def test_criterion_7_phase_reversal():
    window = (k_from_ghz(0.8), k_from_ghz(2.5))
    graph = preset("gue").graph
    plus, minus = solve_spectra([graph, negate_phases(graph)], window)
    assert plus.count == minus.count
    gap = np.abs(plus.expanded() - minus.expanded()).max()
    assert gap <= PHASE_REVERSAL_TOL
    report(7, f"+A/-A spectra agree level-by-level to {gap:.2e} rad/m")


def test_criterion_8_transition_density_limits():
    s = np.linspace(0.0, 4.0, 4001)
    sup_goe = np.abs(transition_pdf(s, 1e-3) - wigner_pdf(s, "GOE")).max()
    sup_gue = np.abs(transition_pdf(s, 100.0) - wigner_pdf(s, "GUE")).max()
    assert sup_goe < GOE_LIMIT_SUP
    assert sup_gue < GUE_LIMIT_SUP
    from scipy.integrate import quad

    norms = []
    for xi in (0.5, 1.0, 2.0):
        norm, _ = quad(lambda t: transition_pdf(t, xi), 0.0, np.inf)
        norms.append(norm)
        assert abs(norm - 1.0) <= NORMALIZATION_TOL
    report(
        8,
        f"sup|P(s,1e-3)-GOE| {sup_goe:.2e}, sup|P(s,100)-GUE| {sup_gue:.2e}, "
        f"norms {['%.8f' % n for n in norms]}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the Cramer-Rao bound for xi at n = 2000 "
    "is sigma = 0.144, so no estimator reaches 90% coverage of [0.85, 1.15]; "
    "the near-efficient weighted fit lands at ~75-80%.  See CHANGES.md.",
)
def test_criterion_9_xi_recovery():
    hits = 0
    estimates = []
    for rep in range(XI_REPS):
        rng = np.random.default_rng(1000 + rep)
        sample = SpacingSample(np.sort(sample_transition(1.0, 2000, rng)))
        xi = fit_xi(sample).xi
        estimates.append(xi)
        hits += XI_BAND[0] <= xi <= XI_BAND[1]
    report(
        9,
        f"{hits}/{XI_REPS} fits inside [0.85, 1.15] "
        f"(mean {np.mean(estimates):.3f}, std {np.std(estimates):.3f}); "
        f"90% required - expected failure, see CHANGES.md",
        passed=hits >= XI_MIN_HITS,
    )
    assert hits >= XI_MIN_HITS


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(5):
        graph = random_k4(rng, phase_scale=1.0 if trial == 4 else 0.0)
        window = (0.05, 25.0)
        spec = solve_spectrum(graph, window)
        oracle = fd_oracle_spectrum(graph, ORACLE_POINTS, 14)
        oracle = oracle[oracle > window[0]][:10]
        mine = spec.expanded()[:10]
        assert mine.size == 10 and oracle.size == 10
        # O(h^2) oracle error: relative lambda error ~ (k h)^2 / 12
        h = max(e.length for e in graph.edges) / ORACLE_POINTS
        tol = np.maximum(1e-3 * oracle, oracle * (oracle * h) ** 2 / 12.0)
        gap = np.abs(mine - oracle)
        assert np.all(gap <= tol)
        worst = max(worst, float((gap / tol).max()))
    elapsed = time.time() - t0
    assert elapsed < ORACLE_TIME_LIMIT
    report(10, f"5 seeded graphs agree with the FD oracle (worst {worst:.2f} of tol), {elapsed:.1f}s")


def test_criterion_11_campaign_determinism(tmp_path):
    import hashlib

    plan = plan_from_manifest({"presets": ["goe_a"]})
    digests = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        result = run_campaign(plan, workers=workers)
        qio.emit_campaign_outputs(result, out, manifest={"workers": workers})
        digest = hashlib.sha256()
        for name in ("shift_distribution.csv", "spacings.csv", "spacing_histogram.csv", "interlacing.csv"):
            digest.update((out / name).read_bytes())
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1] == digests[2]
    report(11, f"aggregate CSVs bit-identical at workers 1/2/8 ({digests[0][:12]}...)")
