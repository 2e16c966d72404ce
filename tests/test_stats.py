import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from qgraph.solver import drop_levels, solve_spectrum
from qgraph.presets import preset
from qgraph import stats
from qgraph.stats import (
    BIN_WIDTH,
    S_MAX,
    XI_MAX,
    ShiftDistribution,
    SpacingSample,
    detect_missing_resonances,
    erf,
    fit_xi,
    interlacing_degree,
    ks_distance,
    pool_shift_distributions,
    sample_transition,
    shift_distribution,
    spacing_histogram,
    transition_pdf,
    unfold_spacings,
    weyl_count,
    wigner_pdf,
)
from qgraph.units import k_from_ghz

from conftest import least_squares_fit_xi, make_spectrum, sample_wigner


# --------------------------------------------------------------------------
# Weyl law and fluctuating count
# --------------------------------------------------------------------------


def test_weyl_count_goe_window():
    # 2.248 m over 0.01-2.5 GHz: about 37 levels
    n = weyl_count(2.248, k_from_ghz(2.5))
    assert n == pytest.approx(37.5, abs=0.2)


def test_weyl_count_gue_window():
    lo = weyl_count(2.918, k_from_ghz(0.8))
    hi = weyl_count(2.918, k_from_ghz(2.5))
    assert hi - lo == pytest.approx(33.1, abs=0.2)


def test_weyl_count_zero():
    assert weyl_count(2.248, 0.0) == 0.0
    with pytest.raises(ValueError):
        weyl_count(2.248, -1.0)


def test_fluctuating_count_regular_spectrum():
    length = 2.0
    ks = np.arange(1, 21) * math.pi / length
    spec = make_spectrum(ks, (0.0, 35.0), length)
    assert spec.nfl_max <= 1e-12


def test_fluctuating_count_detects_deletion():
    length = 2.0
    ks = np.arange(1, 41) * math.pi / length
    spec = make_spectrum(ks, (0.0, 70.0), length)
    faulted = drop_levels(spec, [20])
    # a lasting negative unit offset past the gap, on a spectrum that is
    # exact without it
    ks = faulted.expanded()
    nfl = np.arange(1, ks.size + 1) - faulted.total_length * (ks - faulted.window[0]) / math.pi
    assert np.all(nfl[20:] <= -0.9)
    assert spec.nfl_max <= 1e-12
    assert faulted.nfl_max == pytest.approx(1.0)


def test_fluctuating_count_goe_a_bound():
    spec = solve_spectrum(preset("goe_a").graph, (k_from_ghz(0.01), k_from_ghz(2.5)))
    assert spec.nfl_max <= 3.0


def test_counting_function_steps():
    # N(k) counts from the bottom of the spectrum and holds n[j] on
    # [ks[j], ks[j+1])
    spec = replace(make_spectrum([1.0, 2.0, 3.0], (0.0, 4.0), 1.0), levels_below=2)
    ks, n, _ = stats._shift_steps(spec, spec)
    rows = np.searchsorted(ks, [0.5, 1.0, 3.5], "right") - 1
    assert n[rows].tolist() == [2, 3, 5]  # 3 at k = 1.0: right-continuous


# --------------------------------------------------------------------------
# spectral shift
# --------------------------------------------------------------------------


def test_shift_identical_spectra():
    spec = make_spectrum([1.0, 2.0, 3.0], (0.0, 4.0), 1.0)
    d = shift_distribution(spec, spec)
    assert d.probabilities == {0: 1.0}


def test_shift_uniform_displacement_measure():
    # every level moved up by delta: P(+1) = n * delta / |window|
    window = (0.0, 10.0)
    ks = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    delta = 0.25
    before = make_spectrum(ks, window, 1.0)
    after = make_spectrum(ks + delta, window, 1.0)
    d = shift_distribution(before, after)
    expect_plus = ks.size * delta / (window[1] - window[0])
    assert d.probability(1) == pytest.approx(expect_plus, abs=1e-15)
    assert d.probability(0) == pytest.approx(1 - expect_plus, abs=1e-15)


def test_shift_masses_sum_to_one(rng):
    window = (0.0, 50.0)
    for _ in range(50):
        a = np.sort(rng.uniform(0.1, 49.9, size=rng.integers(5, 60)))
        b = np.sort(rng.uniform(0.1, 49.9, size=rng.integers(5, 60)))
        d = shift_distribution(
            make_spectrum(a, window, 2.0), make_spectrum(b, window, 2.0)
        )
        assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def _grid_side(rng, window):
    """Levels on a coarse grid whose last point is k_hi, so that the two sides
    share levels and a level can sit on the window's upper edge; each level
    has multiplicity 1 or 2.  Returns the spectrum and its expanded levels."""
    grid = np.linspace(window[0], window[1], 41)[1:]
    ks = np.unique(rng.choice(grid, size=rng.integers(1, 30)))
    mults = rng.integers(1, 3, size=ks.size)
    return make_spectrum(ks, window, 2.0, mults), np.repeat(ks, mults)


def _shift_masses(a, b, window):
    """Independent oracle: Delta N at the midpoint of every merged segment,
    weighted by the segment's share of the window."""
    cuts = np.unique(np.concatenate([window, a, b]))
    masses = {}
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        dn = int(np.sum(a <= mid) - np.sum(b <= mid))
        masses[dn] = masses.get(dn, 0.0) + (hi - lo) / (window[1] - window[0])
    return masses


def test_shift_matches_midpoint_oracle(rng):
    # shared levels, double levels and levels on k_hi
    window = (0.0, 100.0)
    for _ in range(300):
        (sa, a), (sb, b) = _grid_side(rng, window), _grid_side(rng, window)
        d = shift_distribution(sa, sb)
        want = _shift_masses(a, b, window)
        assert sorted(d.probabilities) == sorted(want)
        for m, p in want.items():
            assert d.probability(m) == pytest.approx(p, abs=1e-12)


def test_shift_window_mismatch_rejected():
    a = make_spectrum([1.0], (0.0, 4.0), 1.0)
    b = make_spectrum([1.0], (0.0, 5.0), 1.0)
    with pytest.raises(ValueError):
        shift_distribution(a, b)


def test_pooled_shift_weighting():
    a = ShiftDistribution({0: 0.8, 1: 0.2})
    b = ShiftDistribution({0: 0.6, -1: 0.4})
    pooled = pool_shift_distributions([a, b])
    assert pooled.probability(0) == pytest.approx(0.7)
    assert pooled.probability(1) == pytest.approx(0.1)
    assert pooled.probability(-1) == pytest.approx(0.2)
    assert pooled.std_errors[0] == pytest.approx(
        np.std([0.8, 0.6], ddof=1) / math.sqrt(2)
    )


# --------------------------------------------------------------------------
# interlacing
# --------------------------------------------------------------------------


def test_interlacing_identical_is_zero():
    spec = make_spectrum([1.0, 2.0, 3.0], (0.0, 4.0), 1.0)
    assert interlacing_degree(spec, spec) == 0


def test_interlacing_displaced_level():
    # second switched level beyond the fourth original one forces r >= 2
    before = make_spectrum([1.0, 2.0, 3.0, 4.0, 5.0], (0.0, 6.0), 1.0)
    after = make_spectrum([1.0, 4.5, 4.6, 4.7, 5.0], (0.0, 6.0), 1.0)
    assert after.expanded()[1] > before.expanded()[3]
    assert interlacing_degree(before, after) >= 2


def test_interlacing_empty_side():
    # Delta N counts from the bottom of the spectrum, so a side with no
    # level in the window still has a degree
    a = make_spectrum([], (0.0, 1.0), 1.0)
    b = make_spectrum([0.5], (0.0, 1.0), 1.0)
    assert interlacing_degree(a, b) == interlacing_degree(b, a) == 1
    assert interlacing_degree(a, a) == 0
    below = replace(a, levels_below=2)
    assert interlacing_degree(below, b) == 2
    assert interlacing_degree(below, replace(b, levels_below=1)) == 1


def _max_abs_shift(a, b, window):
    """Independent oracle: scan Delta N over all breakpoints."""
    merged = np.unique(np.concatenate([a, b]))
    best = 0
    for t in merged:
        dn = int(np.sum(a <= t) - np.sum(b <= t))
        best = max(best, abs(dn))
    return best


def test_interlacing_equals_max_shift(rng):
    window = (0.0, 100.0)
    for _ in range(100):
        a = np.sort(rng.uniform(0.5, 99.5, size=rng.integers(3, 80)))
        b = np.sort(rng.uniform(0.5, 99.5, size=rng.integers(3, 80)))
        sa = make_spectrum(a, window, 2.0)
        sb = make_spectrum(b, window, 2.0)
        r = interlacing_degree(sa, sb)
        assert r == interlacing_degree(sb, sa)
        assert r == _max_abs_shift(a, b, window)
    on_edge = 0
    for _ in range(300):
        (sa, a), (sb, b) = _grid_side(rng, window), _grid_side(rng, window)
        r = interlacing_degree(sa, sb)
        assert r == interlacing_degree(sb, sa)
        assert r == _max_abs_shift(a, b, window)
        on_edge += window[1] in a
    assert on_edge > 0


# --------------------------------------------------------------------------
# missing-resonance diagnostics
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _preset_pair(name="goe_a"):
    """The preset's graph and its switch image, solved over its window."""
    from qgraph.graphs import edge_switch

    p = preset(name)
    before = solve_spectrum(p.graph, p.window)
    after = solve_spectrum(edge_switch(p.graph, p.sweep.switch), p.window)
    return before, after


def test_missing_resonances_clean_pair():
    before, after = _preset_pair()
    report = detect_missing_resonances(before, after)
    assert report.clean
    assert report.suspect is None


def test_missing_resonances_locates_deletion():
    before, after = _preset_pair()
    victim = 18
    k_deleted = after.expanded()[victim - 1]
    faulted = drop_levels(after, [victim])
    report = detect_missing_resonances(before, faulted)
    assert not report.clean
    assert report.suspect == "after"
    assert all(k_start >= k_deleted for k_start, _, _ in report.flagged)


def test_missing_resonances_flags_before_side():
    before, after = _preset_pair()
    faulted = drop_levels(before, [12])
    report = detect_missing_resonances(faulted, after)
    assert not report.clean
    assert report.suspect == "before"


def test_missing_resonances_two_sided_drop_names_the_flagged_side():
    # goe_a before-level 5 and after-level 20 dropped: between the two
    # drops Delta N reaches -2, so the before side is the one shown short
    before, after = _preset_pair()
    report = detect_missing_resonances(drop_levels(before, [5]), drop_levels(after, [20]))
    assert report.flagged and all(dn == -2 for _, _, dn in report.flagged)
    assert report.suspect == "before"


@pytest.mark.parametrize("name", ["goe_a", "goe_b", "gue"])
def test_missing_resonances_single_drops_flag_above_the_drop(name):
    # every single-level drop on either side: a flagged report starts every
    # stretch at or above the dropped level and its Delta N signs name the
    # dropped side; only drops among the top two levels of a side go unseen
    before, after = _preset_pair(name)
    for side, spec in (("before", before), ("after", after)):
        ks = spec.expanded()
        for victim in range(1, spec.count + 1):
            faulted = drop_levels(spec, [victim])
            pair = (faulted, after) if side == "before" else (before, faulted)
            report = detect_missing_resonances(*pair)
            if report.clean:
                assert victim >= spec.count - 1, (side, victim)
                continue
            assert all(k_start >= ks[victim - 1] for k_start, _, _ in report.flagged)
            assert all((dn < 0) == (side == "before") for _, _, dn in report.flagged)
            assert report.suspect == side


def _missing_reference(a, b, window):
    """Loop reference: (flagged, suspect) from segments in order, the
    suspect named by the first flagged Delta N."""
    cuts = np.unique(np.concatenate([window, a, b])).tolist()
    segments = [
        (lo, hi, int(np.sum(a <= 0.5 * (lo + hi)) - np.sum(b <= 0.5 * (lo + hi))))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    flagged = tuple(s for s in segments if abs(s[2]) >= 2)
    if not flagged:
        return (), None
    return flagged, "after" if flagged[0][2] > 0 else "before"


def test_missing_resonances_match_loop_reference(rng):
    window = (0.0, 100.0)
    for _ in range(300):
        (sa, a), (sb, b) = _grid_side(rng, window), _grid_side(rng, window)
        report = detect_missing_resonances(sa, sb)
        assert (report.flagged, report.suspect) == _missing_reference(a, b, window)


def test_missing_resonances_window_mismatch_rejected():
    a = make_spectrum([1.0, 2.0, 3.0], (0.0, 4.0), 1.0)
    b = make_spectrum([1.0], (0.0, 5.0), 1.0)
    with pytest.raises(ValueError, match="windows differ"):
        detect_missing_resonances(a, b)


def test_missing_resonances_empty_side():
    # an empty side still has a counting function: the flag stands
    before = make_spectrum([], (0.0, 4.0), 1.0)
    after = make_spectrum([1.0, 2.0, 3.0], (0.0, 4.0), 1.0)
    report = detect_missing_resonances(before, after)
    assert not report.clean
    assert report.suspect == "before"


# --------------------------------------------------------------------------
# unfolding and spacing samples
# --------------------------------------------------------------------------


def test_unfold_single_gap():
    length = 2.0
    ks = [1.0, 1.0 + math.pi / length]
    sample = unfold_spacings(make_spectrum(ks, (0.0, 4.0), length))
    assert sample.spacings.tolist() == pytest.approx([1.0])


def test_unfold_mean_near_one(rng):
    length = 3.0
    n = 1000
    # Weyl-regular spectrum with jittered positions
    ks = (np.arange(1, n + 1) + rng.uniform(-0.3, 0.3, n)) * math.pi / length
    ks = np.sort(ks)
    sample = unfold_spacings(make_spectrum(ks, (0.0, ks[-1] + 1.0), length))
    assert abs(sample.mean - 1.0) <= 3 / math.sqrt(n) + 3 / n


def test_unfold_needs_two_levels():
    with pytest.raises(ValueError):
        unfold_spacings(make_spectrum([1.0], (0.0, 2.0), 1.0))


@pytest.mark.parametrize("mults", [[2, 1, 1], [1, 3, 1], [1, 1, 2]])
def test_unfold_refuses_a_multiple_level(mults):
    # a multiple level gives zero spacings
    spectrum = make_spectrum([1.0, 2.0, 3.0], (0.0, 4.0), 1.0, mults=mults)
    with pytest.raises(ValueError, match="degenerate levels produce zero spacings"):
        unfold_spacings(spectrum)


def test_spacing_sample_rejects_nonpositive():
    with pytest.raises(ValueError):
        SpacingSample(spacings=np.array([0.5, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spacing_sample_rejects_nonfinite(bad):
    # nan <= 0 is False, so a positivity check alone lets nan through
    with pytest.raises(ValueError):
        SpacingSample(spacings=np.array([0.5, 1.0, bad]))


def test_spacing_sample_sorts_a_copy():
    # ks_distance reads the spacings as order statistics, so a sample built
    # from shuffled spacings must give the sorted sample's distance; the
    # caller's array is left as it was, writable
    s = np.sort(sample_transition(1.0, 300, np.random.default_rng(5)))
    shuffled = np.random.default_rng(6).permutation(s)
    sample = SpacingSample(shuffled)
    assert np.array_equal(sample.spacings, s) and not sample.spacings.flags.writeable
    assert shuffled.flags.writeable and not np.array_equal(shuffled, s)
    for ensemble in ("GOE", "GUE"):
        assert ks_distance(sample, ensemble) == ks_distance(SpacingSample(s), ensemble)


# --------------------------------------------------------------------------
# reference densities
# --------------------------------------------------------------------------


def test_erf_matches_scipy():
    from scipy.special import erf as scipy_erf

    x = np.concatenate((np.linspace(-10.0, 10.0, 400001), np.geomspace(1e-300, 1.0, 3001)))
    ref = scipy_erf(x)
    got = erf(x)
    nonzero = ref != 0.0
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - ref)[nonzero] <= 4.0 * eps * np.abs(ref[nonzero]))
    assert np.array_equal(got[~nonzero], ref[~nonzero])
    special = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert np.array_equal(special[:4], [0.0, 0.0, 1.0, -1.0])
    assert np.signbit(special[1]) and np.isnan(special[4])
    assert erf(0.0) == 0.0 and erf(-np.inf) == -1.0 and math.isnan(erf(math.nan))
    assert erf(np.full((2, 3), 0.5)).shape == (2, 3)


def test_samplers_use_the_trapezoid_cdf():
    # the inverse-transform CDF is scipy's cumulative trapezoid bit for bit,
    # so every draw is what it was when scipy computed it
    from scipy.integrate import cumulative_trapezoid

    grid = np.linspace(0.0, 10.0, 20001)
    for sampler, pdf in (
        (lambda n, rng: sample_wigner("GUE", n, rng), wigner_pdf(grid, "GUE")),
        (lambda n, rng: sample_transition(1.0, n, rng), transition_pdf(grid, 1.0)),
    ):
        cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
        cdf /= cdf[-1]
        expected = np.interp(np.random.default_rng(3).random(5000), cdf, grid)
        assert np.array_equal(sampler(5000, np.random.default_rng(3)), expected)


@pytest.mark.parametrize(
    "sampler, density, parameter",
    [
        (sample_transition, transition_pdf, 0.0),
        (sample_transition, transition_pdf, 1.0),
        (sample_transition, transition_pdf, 100.0),
        (sample_wigner, wigner_pdf, "GUE"),
    ],
    ids=["xi0", "xi1", "xi100", "GUE"],
)
def test_sampler_tables_are_built_once_and_draw_as_uncached(sampler, density, parameter):
    # the uncached formula: the 20001-point grid, the trapezoid rule summed
    # in order, then np.interp of uniform draws
    grid = np.linspace(0.0, 10.0, 20001)
    values = density(grid, parameter)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (values[1:] + values[:-1]) / 2.0)))
    cdf /= cdf[-1]
    expected = np.interp(np.random.default_rng(11).random(3000), cdf, grid)

    stats._inverse_cdf.cache_clear()
    first = sampler(parameter, 3000, np.random.default_rng(11))
    second = sampler(parameter, 3000, np.random.default_rng(11))
    assert np.array_equal(first, expected) and np.array_equal(second, expected)
    info = stats._inverse_cdf.cache_info()
    assert (info.misses, info.hits) == (1, 1)

    for table in stats._inverse_cdf(density, parameter):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_wigner_level_repulsion_at_zero():
    assert wigner_pdf(0.0, "GOE") == 0.0
    assert wigner_pdf(0.0, "GUE") == 0.0


def test_wigner_normalization_and_mean():
    for ensemble in ("GOE", "GUE"):
        norm, _ = quad(lambda s: wigner_pdf(s, ensemble), 0, np.inf)
        mean, _ = quad(lambda s: s * wigner_pdf(s, ensemble), 0, np.inf)
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(1.0, abs=1e-8)


def test_wigner_gue_goe_ratio_at_one():
    lhs = wigner_pdf(1.0, "GUE") / wigner_pdf(1.0, "GOE")
    rhs = ((32 / math.pi**2) * math.exp(-4 / math.pi)) / (
        (math.pi / 2) * math.exp(-math.pi / 4)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_wigner_unknown_ensemble():
    with pytest.raises(ValueError):
        wigner_pdf(1.0, "GSE")


def test_transition_goe_branch_exact(rng):
    s = rng.uniform(0.0, 5.0, size=1000)
    assert np.abs(transition_pdf(s, 0.0) - wigner_pdf(s, "GOE")).max() < 1e-14


def test_transition_limits():
    s = np.linspace(0.0, 4.0, 2001)
    assert np.abs(transition_pdf(s, 1e-3) - wigner_pdf(s, "GOE")).max() < 1e-2
    assert np.abs(transition_pdf(s, 100.0) - wigner_pdf(s, "GUE")).max() < 2e-2


def test_transition_normalization():
    for xi in (0.5, 1.0, 2.0):
        norm, _ = quad(lambda s: transition_pdf(s, xi), 0, np.inf)
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_transition_nonnegative_vanishes_at_zero(rng):
    for xi in (0.0, 0.3, 1.0, 5.0):
        assert transition_pdf(0.0, xi) == 0.0
        s = rng.uniform(0, 6, size=200)
        assert np.all(transition_pdf(s, xi) >= 0.0)


def test_transition_rejects_negative_xi():
    with pytest.raises(ValueError):
        transition_pdf(1.0, -0.5)


# --------------------------------------------------------------------------
# xi fitting and KS distances
# --------------------------------------------------------------------------


def test_fit_xi_recovers_synthetic(rng):
    sample = SpacingSample(np.sort(sample_transition(1.0, 2000, rng)))
    result = fit_xi(sample)
    assert 0.6 <= result.xi <= 1.4
    assert result.xi_uncertainty > 0.0


def test_fit_xi_goe_sample(rng):
    sample = SpacingSample(np.sort(sample_wigner("GOE", 2000, rng)))
    assert fit_xi(sample).xi < 0.2


def test_fit_xi_gue_sample(rng):
    sample = SpacingSample(np.sort(sample_wigner("GUE", 2000, rng)))
    assert fit_xi(sample).xi > 3.0


def test_fit_xi_needs_enough_spacings(rng):
    with pytest.raises(ValueError):
        fit_xi(SpacingSample(np.sort(sample_wigner("GOE", 100, rng))))


def test_fit_xi_two_sigma_coverage(rng):
    # the reported curvature uncertainty is a usable 1-sigma scale: the
    # true value is inside +/- 2 sigma in at least 90% of repetitions
    hits = 0
    reps = 25
    for _ in range(reps):
        sample = SpacingSample(np.sort(sample_transition(1.0, 2000, rng)))
        r = fit_xi(sample)
        hits += abs(r.xi - 1.0) <= 2.0 * r.xi_uncertainty
    assert hits >= 0.9 * reps


def _fit_battery():
    """Transition samples at xi = 0.3, 1 and 2, GOE and GUE samples; n = 2000,
    eight seeds each."""
    for source in (0.3, 1.0, 2.0, "GOE", "GUE"):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            if isinstance(source, str):
                spacings = sample_wigner(source, 2000, rng)
            else:
                spacings = sample_transition(source, 2000, rng)
            yield source, seed, SpacingSample(np.sort(spacings))


def test_fit_xi_matches_least_squares_reference():
    # The reference stops once a step lowers its cost by less than 1e-8
    # relative and can stop in a local minimum of either pass; the weights
    # of the second pass carry any difference of the first.  Where the two
    # fits differ by more than the stated tolerance, they still agree to a
    # tenth of a standard error, or the new fit has the lower weighted
    # residual per degree of freedom.
    tight = 0
    for source, seed, sample in _fit_battery():
        ref, new = least_squares_fit_xi(sample), fit_xi(sample)
        if ref.xi > 10.0:
            # the objective keeps falling toward the GUE limit; the
            # reference drifts into that tail and the grid stops at its end
            assert new.xi == pytest.approx(XI_MAX, rel=1e-4), (source, seed)
            continue
        tol = 1e-4 * ref.xi if ref.xi >= 0.01 else 1e-6
        if abs(new.xi - ref.xi) <= tol and new.xi_uncertainty == pytest.approx(
            ref.xi_uncertainty, rel=1e-4
        ):
            tight += 1
        elif abs(new.xi - ref.xi) > 0.1 * ref.xi_uncertainty:
            assert new.goodness < ref.goodness, (source, seed)
    assert tight >= 20


def test_fit_xi_is_the_global_minimum():
    # each pass of the fit minimizes its sum of squares over [0, XI_MAX]:
    # no point of a dense grid does better
    dense = np.union1d(np.linspace(0.0, XI_MAX, 2001), np.geomspace(1e-4, XI_MAX, 2001))
    for source, seed, sample in _fit_battery():
        centers, density = spacing_histogram(sample)
        first = stats._minimize_xi(centers, density, 1.0)
        model = np.maximum(transition_pdf(centers, first), 1e-3)
        sigma = np.sqrt(model / (sample.spacings.size * BIN_WIDTH))
        xi = fit_xi(sample).xi
        for found, weight in ((first, 1.0), (xi, sigma)):
            cost = np.sum(stats._residuals(centers, density, weight, dense) ** 2, axis=1)
            best = np.sum(stats._residuals(centers, density, weight, found) ** 2)
            assert 0.0 <= found <= XI_MAX
            assert best <= cost.min() * (1.0 + 1e-12), (source, seed)


def test_ks_distance_identifies_gue(rng):
    sample = SpacingSample(np.sort(sample_wigner("GUE", 5000, rng)))
    assert ks_distance(sample, "GUE") < ks_distance(sample, "GOE")


def test_ks_distance_degenerate_sample():
    sample = SpacingSample(np.array([1.0, 1.0, 1.0]))
    for ensemble in ("GOE", "GUE"):
        d = ks_distance(sample, ensemble)
        assert 0.0 <= d <= 1.0
