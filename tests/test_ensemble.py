import json
import os
import re
import signal
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qgraph import ensemble
from qgraph.cli import main
from qgraph.ensemble import (
    CampaignPlan,
    load_manifest,
    plan_from_manifest,
    randomized_ensemble,
    run_campaign,
)
from qgraph.graphs import SweepSpec, edge_switch, generate_configurations, save_graph
from qgraph.presets import gue_numerics_window, preset
from qgraph.units import k_from_ghz

from conftest import canonical_edges, gue_numerics_manifest, random_k4, three_star


def small_sweep_plan(names=("goe_a",), step_count=2):
    """The presets' sweeps, shortened, over a reduced window so tests stay fast."""
    pairs = []
    for name in names:
        p = preset(name)
        pairs += generate_configurations(p.graph, replace(p.sweep, step_count=step_count))
    return CampaignPlan(tuple(pairs), (k_from_ghz(0.01), k_from_ghz(1.0)))


def test_generate_configurations_goe_a():
    p = preset("goe_a")
    pairs = generate_configurations(p.graph, p.sweep)
    assert len(pairs) == 11
    lengths = [p[0].edge_by_id(1).length for p in pairs]
    assert lengths == pytest.approx(np.arange(0.697, 0.7475, 0.005).tolist(), abs=1e-12)
    total = pairs[0][0].total_length
    for before, after in pairs:
        assert before.total_length == total
        assert after.total_length == total


def test_generate_configurations_gue_count():
    p = preset("gue")
    pairs = generate_configurations(p.graph, p.sweep)
    assert len(pairs) == 8  # phases 0..42 degrees in 6 degree steps


def test_switch_keeps_length_multiset():
    p = preset("goe_b")
    for before, after in generate_configurations(p.graph, p.sweep):
        assert sorted(e.length for e in before.edges) == sorted(
            e.length for e in after.edges
        )


def test_sweep_spec_validation():
    p = preset("goe_a")
    with pytest.raises(ValueError):
        replace(p.sweep, step_count=0).check(p.graph)
    with pytest.raises(ValueError):
        replace(p.sweep, step_delta=0.1).check(p.graph)  # would drain edge 2


def test_sweep_spec_is_the_manifest_sweep_block():
    assert [f.name for f in fields(SweepSpec)] == list(ensemble._FIELDS["sweep"])


def test_randomized_ensemble_identity():
    base = preset("gue").graph
    out = randomized_ensemble(base, count=1, length_jitter=0.0, seed=5)
    assert out == [base]


def test_randomized_ensemble_deterministic_and_distinct():
    base = preset("gue").graph
    a = randomized_ensemble(base, count=40, length_jitter=0.02, seed=11)
    b = randomized_ensemble(base, count=40, length_jitter=0.02, seed=11)
    assert all(
        canonical_edges(ga) == canonical_edges(gb) for ga, gb in zip(a, b)
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
    for jitter in (1.0, 1e308):
        with pytest.raises(ValueError, match="length_jitter must lie in"):
            randomized_ensemble(base, count=2, length_jitter=jitter, seed=1)


def test_randomized_ensemble_refuses_a_non_positive_compensation_edge():
    # below unit jitter every other edge stays positive, but eight arms
    # grown together outweigh the barely longest one that compensates
    base = three_star((1.01,) + (1.0,) * 8)
    with pytest.raises(ValueError, match="jitter 0.9 infeasible: compensation edge 1"):
        randomized_ensemble(base, count=10, length_jitter=0.9, seed=1)


def test_campaign_small_goe():
    result = run_campaign(small_sweep_plan(), workers=1)
    assert len(result.pairs) == 3
    assert not result.degraded
    assert all(d >= 0 for d in result.interlacing_degrees)
    assert sum(result.shift.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_campaign_parallelism_bit_identical():
    plan = small_sweep_plan()
    r1 = run_campaign(plan, workers=1)
    r2 = run_campaign(plan, workers=2)
    assert r1.interlacing_degrees == r2.interlacing_degrees
    assert r1.shift.probabilities == r2.shift.probabilities
    assert np.array_equal(r1.spacings.spacings, r2.spacings.spacings)
    for p1, p2 in zip(r1.pairs, r2.pairs):
        assert np.array_equal(p1.before.wavenumbers, p2.before.wavenumbers)
        assert np.array_equal(p1.after.wavenumbers, p2.after.wavenumbers)
    assert_no_children()


def assert_no_children():
    """No child of this process is left running, and none is a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def break_chunk(monkeypatch, plan, start, action):
    """Patch ensemble.solve_spectra so that the chunk beginning at side
    `start` runs `action` first; forked workers inherit the patch."""
    sides = [graph for pair in plan.pairs for graph in pair]
    solve = ensemble.solve_spectra

    def patched(chunk, window):
        if chunk[0] == sides[start]:
            action()
        return solve(chunk, window)

    monkeypatch.setattr(ensemble, "solve_spectra", patched)


def boom():
    raise ValueError("boom")


def test_campaign_worker_exception_keeps_its_type(monkeypatch):
    # the first chunk fails: the parent re-raises at once, and kills and
    # reaps the worker still solving the second
    plan = small_sweep_plan()
    break_chunk(monkeypatch, plan, 0, boom)
    with pytest.raises(ValueError) as raised:
        run_campaign(plan, workers=2)
    assert str(raised.value) == "boom"
    assert "in boom" in raised.value.__notes__[-1]  # the worker's traceback
    assert_no_children()


def test_campaign_worker_exception_exits_2(tmp_path, monkeypatch, capsys):
    manifest = {"presets": ["goe_a"], "window_ghz": [0.01, 1.0]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    break_chunk(monkeypatch, plan_from_manifest(manifest), 0, boom)
    argv = ["campaign", str(tmp_path / "m.json"), "--workers", "2", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "boom" in capsys.readouterr().err
    assert_no_children()


def test_campaign_killed_worker_names_its_sides_and_signal(monkeypatch):
    plan = small_sweep_plan()  # 6 sides: chunks 0-2 and 3-5 at two workers
    break_chunk(monkeypatch, plan, 3, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match="sides 3-5 left no result: killed by signal 9$"):
        run_campaign(plan, workers=2)
    assert_no_children()


def test_campaign_killed_worker_exits_2(tmp_path, monkeypatch, capsys):
    # a dead worker is an error, not a degraded result (exit 1), and is
    # reported without a traceback
    manifest = {"presets": ["goe_a"], "window_ghz": [0.01, 1.0]}  # 22 sides
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    plan = plan_from_manifest(manifest)
    break_chunk(monkeypatch, plan, 11, lambda: os.kill(os.getpid(), signal.SIGKILL))
    argv = ["campaign", str(tmp_path / "m.json"), "--workers", "2", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the worker for sides 11-21 left no result: killed by signal 9\n"
    )
    assert_no_children()


def test_campaign_unpicklable_worker_exception_carries_its_traceback(monkeypatch):
    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def fail():
        raise Unpicklable("lost")

    plan = small_sweep_plan()
    break_chunk(monkeypatch, plan, 3, fail)
    with pytest.raises(RuntimeError, match="(?s)Traceback.*Unpicklable: lost"):
        run_campaign(plan, workers=2)
    assert_no_children()


def test_interrupted_campaign_leaves_no_worker(monkeypatch):
    # both workers would sleep a minute; an exception raised in the parent
    # while it waits for them kills and reaps them
    plan = small_sweep_plan()
    for start in (0, 3):
        break_chunk(monkeypatch, plan, start, lambda: time.sleep(60.0))

    def interrupt(signum, frame):
        raise TimeoutError("interrupted")

    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(TimeoutError, match="interrupted"):
            run_campaign(plan, workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 30.0
    assert_no_children()


def test_campaign_without_fork_solves_in_process(monkeypatch):
    plan = small_sweep_plan()
    r1 = run_campaign(plan, workers=1)
    monkeypatch.delattr(os, "fork")
    r2 = run_campaign(plan, workers=2)
    for p1, p2 in zip(r1.pairs, r2.pairs):
        assert np.array_equal(p1.before.wavenumbers, p2.before.wavenumbers)
        assert np.array_equal(p1.after.wavenumbers, p2.after.wavenumbers)


def test_campaign_combined_sweeps_pair_count():
    result = run_campaign(small_sweep_plan(("goe_a", "goe_b"), step_count=1), workers=1)
    assert len(result.pairs) == 4


def test_plan_from_manifest_window_holds_for_every_preset():
    # presets with different windows run together under the manifest's
    plan = plan_from_manifest({"presets": ["goe_a", "gue"], "window_ghz": [0.8, 2.5]})
    assert plan.window == preset("gue").window and len(plan.pairs) == 19


def test_campaign_pooled_shift_is_pair_average():
    result = run_campaign(small_sweep_plan(), workers=1)
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
    plan = CampaignPlan(((regular, edge_switch(regular, p.sweep.switch)),), (0.1, 30.0))
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
    plan = plan_from_manifest({
        "preset": "goe_a", "randomized": {"count": 1, "jitter": 0.0}, "window_k": [0.1, k_max],
    })
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
    p = preset("goe_a")
    plan_pairs = generate_configurations(p.graph, p.sweep)
    totals = {g.total_length for pair in plan_pairs for g in pair}
    assert len(totals) == 1


def test_plan_from_manifest_presets(tmp_path):
    manifest = {"presets": ["goe_a", "goe_b"], "window_ghz": [0.01, 1.0]}
    plan = plan_from_manifest(manifest)
    assert len(plan.pairs) == 22
    assert plan.window[1] == pytest.approx(k_from_ghz(1.0))


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
        canonical_edges(a[0]) == canonical_edges(b[0])
        for a, b in zip(plan.pairs, again.pairs)
    )


def test_plan_from_manifest_graph_file_sweep(tmp_path):
    # a graph file with a sweep gives step_count + 1 pairs, the sweep's own,
    # over the graph-file default window of 0.01-2.5 GHz
    p = preset("goe_a")
    sweep = replace(p.sweep, step_count=3)
    gpath = tmp_path / "goe_a.json"
    save_graph(p.graph, gpath)
    switch = sweep.switch
    manifest = {
        "graph_file": str(gpath),
        "sweep": {
            "grow_edge": sweep.grow_edge,
            "shrink_edge": sweep.shrink_edge,
            "step_delta": sweep.step_delta,
            "step_count": sweep.step_count,
            "switch": {"pivot": switch.pivot, "edge_a": switch.edge_a, "edge_b": switch.edge_b},
        },
    }
    plan = plan_from_manifest(manifest)
    assert len(plan.pairs) == sweep.step_count + 1
    assert plan.window == (k_from_ghz(0.01), k_from_ghz(2.5))
    assert plan.provenance["mode"] == "sweep"
    assert [(canonical_edges(b), canonical_edges(a)) for b, a in plan.pairs] == [
        (canonical_edges(b), canonical_edges(a))
        for b, a in generate_configurations(p.graph, sweep)
    ]


def test_gue_numerics_plan_matches_manifest():
    # the manifest route gives the jittered gue preset itself, each copy
    # paired with its switch image
    plan = plan_from_manifest(gue_numerics_manifest(count=6, seed=5))
    p = preset("gue")
    again = randomized_ensemble(p.graph, 6, 0.02, 5)
    assert [(canonical_edges(b), canonical_edges(a)) for b, a in plan.pairs] == [
        (canonical_edges(g), canonical_edges(edge_switch(g, p.sweep.switch))) for g in again
    ]
    assert plan.window == gue_numerics_window()
    assert plan.provenance == {
        "source": "gue", "mode": "randomized", "count": 6, "jitter": 0.02, "seed": 5,
    }


def test_campaign_plan_refuses_a_repeated_pair():
    # pairs are compared by value: equal edges in separate objects, with
    # other metadata, are the same pair; a pair and its reverse are not
    p = preset("goe_a")
    before = p.graph
    after = edge_switch(before, p.sweep.switch)
    again = replace(before, edges=tuple(replace(e) for e in before.edges), metadata={"x": 1})
    window = (k_from_ghz(0.01), k_from_ghz(1.0))
    assert len(CampaignPlan(((before, after), (after, before)), window).pairs) == 2
    with pytest.raises(ValueError, match=r"^pairs 1 and 2 are the same switch pair$"):
        CampaignPlan(((after, before), (before, after), (again, after), (before, after)), window)


def test_randomized_plan_refuses_coinciding_copies():
    # a jitter below the lengths' ulp gives equal copies; the plan, not the
    # ensemble, refuses them
    a, b, c = randomized_ensemble(preset("gue").graph, count=3, length_jitter=1e-300, seed=1)
    assert a == b == c
    with pytest.raises(ValueError, match=r"^pairs 0 and 1 are the same switch pair$"):
        plan_from_manifest({"preset": "gue", "randomized": {"count": 3, "jitter": 1e-300}})


def test_plan_from_manifest_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        plan_from_manifest({"nonsense": 1})
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ValueError):
        load_manifest(empty)


def test_readme_manifests_follow_the_grammar(tmp_path, monkeypatch):
    # every manifest the README shows builds a plan, so the docs cannot
    # drift from the grammar
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Campaign manifests", 1)[1].split("\n#", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(blocks) == 4
    monkeypatch.chdir(tmp_path)
    save_graph(preset("gue").graph, "g.json")
    modes = set()
    for block in blocks:
        plan = plan_from_manifest(json.loads(block))
        assert plan.pairs
        modes.add(plan.provenance["mode"])
    assert modes == {"sweep", "randomized"}
