import json
from dataclasses import replace

import numpy as np
import pytest

from qgraph.ensemble import (
    CampaignPlan,
    SweepSpec,
    generate_configurations,
    load_manifest,
    plan_from_manifest,
    randomized_ensemble,
    randomized_plan,
    run_campaign,
    sweep_plan,
)
from qgraph.graphs import SwitchDescriptor
from qgraph.presets import gue_numerics_plan, gue_numerics_window, preset
from qgraph.solver import SolverConfig
from qgraph.units import k_from_ghz

from conftest import random_k4


def small_window_sweep(name="goe_a", step_count=2):
    """Sweep spec with a reduced window so tests stay fast."""
    p = preset(name)
    return SweepSpec(
        base=p.sweep.base,
        grow_edge=p.sweep.grow_edge,
        shrink_edge=p.sweep.shrink_edge,
        step_delta=p.sweep.step_delta,
        step_count=step_count,
        switch=p.sweep.switch,
        solver=SolverConfig(k_from_ghz(0.01), k_from_ghz(1.0)),
        label=name,
    )


def test_generate_configurations_goe_a():
    pairs = generate_configurations(preset("goe_a").sweep)
    assert len(pairs) == 11
    lengths = [p[0].edge_by_id(1).length for p in pairs]
    assert lengths == pytest.approx(np.arange(0.697, 0.7475, 0.005).tolist(), abs=1e-12)
    total = pairs[0][0].total_length
    for before, after in pairs:
        assert before.total_length == total
        assert after.total_length == total


def test_generate_configurations_gue_count():
    pairs = generate_configurations(preset("gue").sweep)
    assert len(pairs) == 8  # phases 0..42 degrees in 6 degree steps


def test_switch_keeps_length_multiset():
    for before, after in generate_configurations(preset("goe_b").sweep):
        assert sorted(e.length for e in before.edges) == sorted(
            e.length for e in after.edges
        )


def test_sweep_spec_validation():
    p = preset("goe_a")
    with pytest.raises(ValueError):
        SweepSpec(
            base=p.graph,
            grow_edge=1,
            shrink_edge=2,
            step_delta=0.005,
            step_count=0,
            switch=p.sweep.switch,
            solver=p.sweep.solver,
        ).check()
    with pytest.raises(ValueError):
        SweepSpec(
            base=p.graph,
            grow_edge=1,
            shrink_edge=2,
            step_delta=0.1,
            step_count=10,  # would drain edge 2
            switch=p.sweep.switch,
            solver=p.sweep.solver,
        ).check()


def test_randomized_ensemble_identity():
    base = preset("gue").graph
    out = randomized_ensemble(base, count=1, length_jitter=0.0, seed=5)
    assert out == [base]


def test_randomized_ensemble_deterministic_and_distinct():
    base = preset("gue").graph
    a = randomized_ensemble(base, count=40, length_jitter=0.02, seed=11)
    b = randomized_ensemble(base, count=40, length_jitter=0.02, seed=11)
    assert all(
        ga.canonical_edges() == gb.canonical_edges() for ga, gb in zip(a, b)
    )
    vectors = {tuple(e.length for e in g.edges) for g in a}
    assert len(vectors) == 40
    assert all(g.total_length == base.total_length for g in a)


def test_randomized_ensemble_rejects_bad_input():
    base = preset("gue").graph
    with pytest.raises(ValueError):
        randomized_ensemble(base, count=3, length_jitter=0.0, seed=1)
    with pytest.raises(ValueError):
        randomized_ensemble(base, count=0, length_jitter=0.01, seed=1)


def test_campaign_small_goe():
    result = run_campaign(sweep_plan(small_window_sweep()), workers=1)
    assert len(result.pairs) == 3
    assert not result.degraded
    assert all(d >= 0 for d in result.interlacing_degrees)
    assert sum(result.shift.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_campaign_parallelism_bit_identical():
    plan = sweep_plan(small_window_sweep())
    r1 = run_campaign(plan, workers=1)
    r2 = run_campaign(plan, workers=2)
    assert r1.interlacing_degrees == r2.interlacing_degrees
    assert r1.shift.probabilities == r2.shift.probabilities
    assert np.array_equal(r1.spacings.spacings, r2.spacings.spacings)
    for p1, p2 in zip(r1.pairs, r2.pairs):
        assert np.array_equal(p1.before.wavenumbers, p2.before.wavenumbers)
        assert np.array_equal(p1.after.wavenumbers, p2.after.wavenumbers)


def test_campaign_combined_sweeps_pair_count():
    specs = [small_window_sweep("goe_a", 1), small_window_sweep("goe_b", 1)]
    result = run_campaign(sweep_plan(*specs), workers=1)
    assert len(result.pairs) == 4
    mixed = replace(specs[1], solver=preset("goe_b").sweep.solver)
    with pytest.raises(ValueError):
        sweep_plan(specs[0], mixed)


def test_campaign_pooled_shift_is_pair_average():
    result = run_campaign(sweep_plan(small_window_sweep()), workers=1)
    support = result.shift.support
    for m in support:
        mean = np.mean([p.shift.probability(m) for p in result.pairs])
        assert result.shift.probability(m) == pytest.approx(mean, abs=1e-12)


def test_campaign_degenerate_levels_degrade_pair():
    # a regular tetrahedron has multiple levels on both sides of the switch:
    # zero spacings cannot be unfolded, so the pair is degraded, keeps its
    # spectra and leaves the spacing pool, and the campaign still completes
    p = preset("goe_a")
    regular = p.graph.with_edges(
        tuple(replace(e, length=0.5, phase_per_m=0.0) for e in p.graph.edges)
    )
    plan = randomized_plan(
        regular, p.sweep.switch, SolverConfig(0.1, 30.0), 1, 0.0, 1, "regular"
    )
    result = run_campaign(plan, workers=1)
    assert result.degraded and result.degraded_pairs == (0,)
    pair = result.pairs[0]
    for spec in (pair.before, pair.after):
        assert spec.status == "ok" and spec.complete
        assert spec.multiplicities.max() > 1
    assert result.levels_before == pair.before.count == result.levels_after
    assert result.spacings.spacings.size == 0
    assert sum(result.shift.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k_max, levels", [(4.867, 1), (3.0, 0)])
def test_campaign_sparse_window_degrades_pair(k_max, levels):
    # a side with fewer than two levels has no spacing to unfold (and an
    # empty one no interlacing partner): the pair is degraded, keeps its
    # spectra and leaves the spacing pool, and the campaign still completes
    p = preset("goe_a")
    plan = randomized_plan(
        p.graph, p.sweep.switch, SolverConfig(0.1, k_max), 1, 0.0, 1, "goe_a"
    )
    result = run_campaign(plan, workers=1)
    assert result.degraded and result.degraded_pairs == (0,)
    pair = result.pairs[0]
    for spec in (pair.before, pair.after):
        assert spec.status == "ok" and spec.complete
        assert spec.count == levels
    assert result.levels_before == levels == result.levels_after
    assert result.interlacing_degrees == (levels,)
    assert result.spacings.spacings.size == 0
    assert sum(result.shift.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_total_length_constant_across_campaign():
    plan_pairs = generate_configurations(preset("goe_a").sweep)
    totals = {g.total_length for pair in plan_pairs for g in pair}
    assert len(totals) == 1


def test_plan_from_manifest_presets(tmp_path):
    manifest = {"presets": ["goe_a", "goe_b"], "window_ghz": [0.01, 1.0]}
    plan = plan_from_manifest(manifest)
    assert len(plan.pairs) == 22
    assert plan.solver.k_max == pytest.approx(k_from_ghz(1.0))


def test_plan_from_manifest_randomized():
    manifest = {
        "preset": "gue",
        "randomized": {"count": 4, "jitter": 0.02},
        "seed": 3,
        "window_ghz": [0.01, 1.0],
    }
    plan = plan_from_manifest(manifest)
    assert len(plan.pairs) == 4
    assert plan.provenance["mode"] == "randomized"
    # same manifest, same plan
    again = plan_from_manifest(manifest)
    assert all(
        a[0].canonical_edges() == b[0].canonical_edges()
        for a, b in zip(plan.pairs, again.pairs)
    )


def test_gue_numerics_plan_matches_manifest():
    plan = gue_numerics_plan(count=6, seed=5)
    manifest = {
        "preset": "gue",
        "randomized": {"count": 6, "jitter": 0.02},
        "seed": 5,
        "window_k": list(gue_numerics_window()),
    }
    again = plan_from_manifest(manifest)
    assert [(b.canonical_edges(), a.canonical_edges()) for b, a in plan.pairs] == [
        (b.canonical_edges(), a.canonical_edges()) for b, a in again.pairs
    ]
    assert plan.solver == again.solver
    assert plan.provenance == again.provenance


def test_plan_from_manifest_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        plan_from_manifest({"nonsense": 1})
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ValueError):
        load_manifest(empty)
