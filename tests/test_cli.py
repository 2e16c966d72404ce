import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qgraph
from qgraph import cli
from qgraph.cli import main
from qgraph.ensemble import plan_from_manifest, run_campaign
from qgraph.graphs import (
    Edge, MetricGraph, SwitchDescriptor, edge_switch, load_graph, save_graph
)
from qgraph.presets import preset
from qgraph.solver import solve_spectrum
from qgraph.stats import SpacingSample, fit_xi, sample_transition
from qgraph import io as qio
from qgraph.units import k_from_ghz

from conftest import gue_numerics_manifest


@pytest.fixture
def goe_a_file(tmp_path):
    path = tmp_path / "goe_a.json"
    save_graph(preset("goe_a").graph, path)
    return str(path)


def test_validate_ok(goe_a_file, capsys):
    assert main(["validate", goe_a_file]) == 0
    assert "graph ok" in capsys.readouterr().out


def test_validate_negative_length(tmp_path, capsys):
    g = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, 1.0),))
    path = tmp_path / "bad.json"
    save_graph(g, path)
    data = json.loads(path.read_text())
    data["edges"][0]["length_m"] = -0.5
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("phase", [float("nan"), float("inf")])
def test_validate_and_solve_reject_non_finite_phase(tmp_path, capsys, phase):
    g = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, 1.0),))
    path = tmp_path / "bad.json"
    save_graph(g, path)
    data = json.loads(path.read_text())
    data["edges"][0]["phase_per_m"] = phase
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert "phase_per_m" in capsys.readouterr().out
    out = tmp_path / "spec.csv"
    assert main(["solve", str(path), "--window-k", "0.1:10", "--out", str(out)]) == 2
    assert "error: invalid graph" in capsys.readouterr().err


def _edit_edge(key, value):
    def edit(data):
        data["edges"][0][key] = value
        return data
    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda data: [1, 2], "a graph file"),
        (lambda data: {**data, "edges": [5]}, "an edge entry"),
        (lambda data: {**data, "metadata": [1]}, "metadata"),
        (lambda data: {**data, "version": True}, "version"),
        (lambda data: {**data, "vertices": [0, True]}, "a vertex"),
        (_edit_edge("id", 1.7), "edge id"),
        (_edit_edge("u", "0"), "edge end u"),
        (_edit_edge("length_m", True), "length_m"),
        (_edit_edge("length_m", "1.0"), "length_m"),
        (_edit_edge("phase_per_m", None), "phase_per_m"),
    ],
    ids=["list", "edge-entry", "metadata", "version-bool", "vertex-bool", "id-fraction", "end-string",
         "length-bool", "length-string", "phase-null"],
)
def test_validate_refuses_wrong_json_types(tmp_path, capsys, edit, named):
    # a graph file's values are checked as a manifest's are: the wrong JSON
    # type is an input error, never a traceback or a silent conversion
    path = tmp_path / "bad.json"
    save_graph(MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, 1.0),)), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


# a one-edge graph file as text, so that a key can be repeated
EDGE = '{"id": 1, "u": 0, "v": 1, "length_m": 1.0%s}'
GRAPH = '{"version": 1, "vertices": [0, 1], "edges": [%s]%s}'


@pytest.mark.parametrize(
    "text, named",
    [
        (GRAPH % (EDGE % ', "phase": 2.0', ""), "an edge entry: unexpected key(s) ['phase']"),
        (GRAPH % (EDGE % "", ', "label": "x"'), "a graph file: unexpected key(s) ['label']"),
        (GRAPH % ('{"id": 1, "u": 0, "v": 1}', ""), "an edge entry: missing key(s) ['length_m']"),
        ('{"version": 1, "vertices": [0, 1]}', "a graph file: missing key(s) ['edges']"),
        (GRAPH % (EDGE % ', "phase_per_m": 2.0, "phase_per_m": 0.0', ""),
         "graph file repeats key 'phase_per_m'"),
        (GRAPH % (EDGE % "", ', "edges": []'), "graph file repeats key 'edges'"),
    ],
    ids=["edge-unknown", "top-unknown", "edge-missing", "top-missing", "edge-repeat", "top-repeat"],
)
def test_graph_file_refuses_unknown_missing_and_repeated_keys(tmp_path, capsys, text, named):
    # a misspelt "phase" for phase_per_m would load a broken-time-reversal
    # graph as time-reversal invariant, and json keeps the last of repeated
    # keys: both are input errors for validate and solve alike
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert main(["solve", str(path), "--window-k", "0.1:10", "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "s.csv").exists()


def test_validate_and_solve_report_an_overflowing_total_length(tmp_path, capsys):
    # each length is finite, but their sum is not a float
    edges = (Edge(1, 0, 1, 1e308), Edge(2, 1, 0, 1e308))
    path = tmp_path / "huge.json"
    save_graph(MetricGraph(vertices=(0, 1), edges=edges), path)
    assert main(["validate", str(path)]) == 2
    assert "total length overflows a float" in capsys.readouterr().out
    assert main(["solve", str(path), "--window-k", "0.1:10", "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid graph") and "total length overflows a float" in err


def test_validate_disconnected(tmp_path):
    g = MetricGraph(
        vertices=(0, 1, 2, 3), edges=(Edge(1, 0, 1, 1.0), Edge(2, 2, 3, 1.0))
    )
    path = tmp_path / "disc.json"
    save_graph(g, path)
    assert main(["validate", str(path)]) == 2


def test_validate_unreadable_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_solve_goe_a(goe_a_file, tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = main(
        ["solve", goe_a_file, "--window-ghz", "0.01:2.5", "--out", str(out)]
    )
    assert code == 0
    rows = qio.read_spectrum_csv(out)
    assert 35 <= rows["k_rad_per_m"].size <= 38
    assert "Weyl estimate" in capsys.readouterr().out


def test_solve_single_edge(tmp_path):
    g = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, 1.0),))
    gpath = tmp_path / "edge.json"
    save_graph(g, gpath)
    out = tmp_path / "spec.csv"
    assert main(["solve", str(gpath), "--window-k", "0.1:10", "--out", str(out)]) == 0
    ks = qio.read_spectrum_csv(out)["k_rad_per_m"]
    assert np.allclose(ks, np.pi * np.arange(1, 4), rtol=1e-9)


def test_solve_bad_window(goe_a_file, tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = main(["solve", goe_a_file, "--window-ghz", "2.5:0.01", "--out", str(out)])
    assert code == 2
    # an infinite window is an input error, not an overflow in the scan grid
    assert main(["solve", goe_a_file, "--window-k", "0.1:inf", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_preset_switch(goe_a_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            goe_a_file,
            "--pivot",
            "0",
            "--edges",
            "3,5",
            "--window-ghz",
            "0.01:2.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "interlacing degree: 1" in capsys.readouterr().out
    assert (out / "counting.csv").exists()
    assert (out / "shift_distribution.csv").exists()


@pytest.mark.parametrize("name, pivot, edges", [("goe_a", 0, "3,5"), ("goe_b", 1, "3,2")])
def test_compare_counting_csv_differences_are_the_shift(name, pivot, edges, tmp_path, capsys):
    # goe_b's sides differ by one level below 0.8 GHz, which each row's
    # counts must include for their difference to be Delta N
    save_graph(preset(name).graph, tmp_path / "g.json")
    out = tmp_path / "cmp"
    argv = ["compare", str(tmp_path / "g.json"), "--pivot", str(pivot), "--edges", edges,
            "--window-ghz", "0.8:2.5", "--out", str(out)]
    assert main(argv) == 0
    degree = int(capsys.readouterr().out.splitlines()[0].removeprefix("interlacing degree: "))
    rows = (out / "counting.csv").read_text().splitlines()[1:]
    counts = [row.split(",")[2:] for row in rows]
    assert all(c.isdigit() for row in counts for c in row), "counts are integer literals"
    dn = [int(b) - int(a) for b, a in counts]
    assert set(dn) <= set(qio.read_shift_csv(out / "shift_distribution.csv"))
    assert max(map(abs, dn)) == degree == 1


def test_compare_parallel_edges_degree_zero(tmp_path, capsys):
    g = MetricGraph(
        vertices=(0, 1), edges=(Edge(1, 0, 1, 0.8), Edge(2, 0, 1, 1.1))
    )
    gpath = tmp_path / "par.json"
    save_graph(g, gpath)
    code = main(
        [
            "compare",
            str(gpath),
            "--pivot",
            "0",
            "--edges",
            "1,2",
            "--window-k",
            "0.5:20",
            "--out",
            str(tmp_path / "cmp"),
        ]
    )
    assert code == 0
    assert "interlacing degree: 0" in capsys.readouterr().out


def _phased_k4_file(tmp_path) -> str:
    """A phased K4 whose switch at vertex 0 of edges 1 and 2 moves the
    ground state from 0.295 rad/m to below 0.1 rad/m."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    lengths = [0.49, 0.52, 0.6, 0.71, 0.37, 0.98]
    phases = [0.2, -0.4, -0.8, 0.5, -0.7, -0.7]
    g = MetricGraph(
        vertices=(0, 1, 2, 3),
        edges=tuple(
            Edge(i + 1, u, v, length, a)
            for i, ((u, v), length, a) in enumerate(zip(pairs, lengths, phases))
        ),
    )
    gpath = tmp_path / "k4.json"
    save_graph(g, gpath)
    return str(gpath)


def test_compare_counts_from_the_bottom_of_the_spectrum(tmp_path, capsys):
    # counted from k_min = 0.1 the pair reads Delta N = 2 on (2.72, 2.81),
    # counted from k = 0 it is level-1 interlaced
    out = tmp_path / "cmp"
    code = main(
        ["compare", _phased_k4_file(tmp_path), "--pivot", "0", "--edges", "1,2",
         "--window-k", "0.1:12", "--out", str(out)]
    )
    assert code == 0
    assert "interlacing degree: 1" in capsys.readouterr().out
    # counting.csv counts from k = 0 too: the after side's ground state lies
    # below the window, and each row's difference is the level-1 Delta N
    back = qio.read_counting_csv(out / "counting.csv")
    assert (back["n_before"][0], back["n_after"][0]) == (0, 1)
    assert np.abs(back["n_before"] - back["n_after"]).max() == 1


def test_compare_empty_window(tmp_path, capsys):
    # no level of either side lies in (0.1, 0.29]: the after side's ground
    # state lies below the window, so Delta N = -1 throughout and the
    # degree is 1, where an empty side once ended in exit 2 after the CSVs
    out = tmp_path / "cmp"
    code = main(
        ["compare", _phased_k4_file(tmp_path), "--pivot", "0", "--edges", "1,2",
         "--window-k", "0.1:0.29", "--out", str(out)]
    )
    assert code == 0
    assert "interlacing degree: 1" in capsys.readouterr().out
    for side in ("before", "after"):
        assert qio.read_spectrum_csv(out / f"spectrum_{side}.csv")["k_rad_per_m"].size == 0


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_window_flags_exclusive(goe_a_file, tmp_path, capsys, command):
    # both windows, or none, are usage errors: argparse exits 2
    extra = ["--pivot", "0", "--edges", "3,5"] if command == "compare" else []
    base = [command, goe_a_file, *extra, "--out", str(tmp_path / "out")]
    for window in (["--window-k", "0.1:10", "--window-ghz", "0.01:2.5"], []):
        with pytest.raises(SystemExit) as exit_info:
            main(base + window)
        assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("compare", "--edges", "3"),
        ("compare", "--edges", "3,5,7"),
        ("compare", "--edges", "3,x"),
        ("solve", "--window-ghz", "0.01"),
        ("solve", "--window-k", "0.1:x"),
    ],
)
def test_malformed_pair_flags_name_the_flag(goe_a_file, tmp_path, capsys, command, flag, value):
    # a flag that takes two values reports its name and form, exit 2
    switch = {"--pivot": "0", "--edges": "3,5"} if command == "compare" else {}
    window = {} if flag.startswith("--window") else {"--window-ghz": "0.01:2.5"}
    options = itertools.chain.from_iterable({**switch, **window, flag: value}.items())
    argv = [command, goe_a_file, *options, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    sep = "," if flag == "--edges" else ":"
    assert capsys.readouterr().err == (
        f"error: {flag} expects two values written A{sep}B, got {value!r}\n"
    )
    assert not (tmp_path / "o").exists()


def test_compare_invalid_switch(goe_a_file, tmp_path):
    code = main(
        [
            "compare",
            goe_a_file,
            "--pivot",
            "0",
            "--edges",
            "3,2",  # edge 2 does not touch vertex 0
            "--window-ghz",
            "0.01:2.5",
            "--out",
            str(tmp_path / "cmp"),
        ]
    )
    assert code == 2


def test_compare_unknown_edge_prints_bare_text(goe_a_file, tmp_path, capsys):
    argv = ["compare", goe_a_file, "--pivot", "0", "--edges", "3,9",
            "--window-ghz", "0.01:2.5", "--out", str(tmp_path / "cmp")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: no edge with id 9\n"


def test_compare_drop_level_fault(goe_a_file, tmp_path, capsys):
    code = main(
        [
            "compare",
            goe_a_file,
            "--pivot",
            "0",
            "--edges",
            "3,5",
            "--window-ghz",
            "0.01:2.5",
            "--out",
            str(tmp_path / "cmp"),
            "--drop-level",
            "18",
        ]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    # the exact verification judges the side: its status, then the dropped
    # level's index and k
    switched = edge_switch(preset("goe_a").graph, SwitchDescriptor(pivot=0, edge_a=3, edge_b=5))
    after = solve_spectrum(switched, (k_from_ghz(0.01), k_from_ghz(2.5)))
    i = lines.index("after: status fault-injected")
    assert lines[i + 1] == f"  dropped level(s) 18 at k = {after.expanded()[17]:.9g} rad/m"
    # the levels kept keep their residuals
    written = qio.read_spectrum_csv(tmp_path / "cmp" / "spectrum_after.csv")["residual"]
    assert np.array_equal(written, np.delete(after.residuals, 17)) and written.any()


@pytest.mark.parametrize("name, levels", [("goe_a", 35), ("goe_b", 35), ("gue", 33)])
def test_compare_exits_1_for_every_dropped_level(name, levels, tmp_path, monkeypatch, capsys):
    # a fault-injected side is never complete, however small its N_fl swing:
    # no single dropped level of the switched spectrum leaves compare clean
    p = preset(name)
    save_graph(p.graph, tmp_path / "g.json")
    solve, solved = cli.solve_spectra, {}

    def solve_once(graphs, window):  # every compare below solves the same pair
        if not solved:
            solved.update(args=(graphs, window), spectra=solve(graphs, window))
        assert (graphs, window) == solved["args"]
        return solved["spectra"]

    monkeypatch.setattr(cli, "solve_spectra", solve_once)
    switch = p.sweep.switch
    argv = ["compare", str(tmp_path / "g.json"), "--pivot", str(switch.pivot),
            "--edges", f"{switch.edge_a},{switch.edge_b}",
            "--window-k", "{!r}:{!r}".format(*p.window), "--out", str(tmp_path / "cmp")]
    assert main(argv) == 0
    capsys.readouterr()
    assert solved["spectra"][1].count == levels
    # dropping goe_a's level 34 or 35 leaves the interlacing degree at 1, so
    # the status line and the level's name must mark every drop
    ks = solved["spectra"][1].expanded()
    for n in range(1, levels + 1):
        assert main(argv + ["--drop-level", str(n)]) == 1, f"--drop-level {n}"
        lines = capsys.readouterr().out.splitlines()
        i = lines.index("after: status fault-injected")
        assert lines[i + 1] == f"  dropped level(s) {n} at k = {ks[n - 1]:.9g} rad/m"


def test_campaign_manifest(tmp_path, capsys):
    manifest = {
        "presets": ["goe_a"],
        "window_ghz": [0.01, 1.0],
        "out_dir": str(tmp_path / "run"),
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    assert main(["campaign", str(mpath), "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "11 pairs solved" in out
    assert (tmp_path / "run" / "shift_distribution.csv").exists()


def test_campaign_graph_file_randomized_default_window(goe_a_file, tmp_path, capsys):
    # no window in the manifest: the graph-file default must hold levels
    manifest = {
        "graph_file": goe_a_file,
        "switch": {"pivot": 0, "edge_a": 3, "edge_b": 5},
        "randomized": {"count": 2, "jitter": 0.02},
        "seed": 1,
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    assert main(["campaign", str(mpath), "--out", str(tmp_path / "run")]) == 0
    assert "2 pairs solved" in capsys.readouterr().out


def test_campaign_graph_file_degenerate_levels(tmp_path, capsys):
    # multiple levels of a regular tetrahedron degrade the pair (exit 1)
    # instead of aborting the campaign (exit 2)
    g = preset("goe_a").graph
    regular = g.with_edges(tuple(Edge(e.id, e.u, e.v, 0.5) for e in g.edges))
    gpath = tmp_path / "regular.json"
    save_graph(regular, gpath)
    manifest = {
        "graph_file": str(gpath),
        "switch": {"pivot": 0, "edge_a": 3, "edge_b": 5},
        "randomized": {"count": 1, "jitter": 0.0},
        "window_k": [0.1, 30.0],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    run = tmp_path / "run"
    assert main(["campaign", str(mpath), "--out", str(run)]) == 1
    assert "DEGRADED pairs: [0]" in capsys.readouterr().out
    echo = json.loads((run / "manifest_echo.json").read_text())
    assert echo["degraded_pairs"] == [0]
    spectrum = qio.read_spectrum_csv(run / "spectra" / "pair000_before.csv")
    assert spectrum["multiplicity"].max() > 1
    assert qio.read_spacings_csv(run / "spacings.csv").spacings.size == 0


@pytest.mark.parametrize("k_max, levels", [(4.867, 1), (3.0, 0)])
def test_campaign_sparse_window(goe_a_file, tmp_path, capsys, k_max, levels):
    # one level or none per side degrades the pair (exit 1) instead of
    # aborting the campaign (exit 2)
    manifest = {
        "graph_file": goe_a_file,
        "switch": {"pivot": 0, "edge_a": 3, "edge_b": 5},
        "randomized": {"count": 1, "jitter": 0.0},
        "window_k": [0.1, k_max],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    run = tmp_path / "run"
    assert main(["campaign", str(mpath), "--out", str(run)]) == 1
    assert "DEGRADED pairs: [0]" in capsys.readouterr().out
    echo = json.loads((run / "manifest_echo.json").read_text())
    assert echo["degraded_pairs"] == [0]
    assert echo["levels_before"] == levels == echo["levels_after"]
    spectrum = qio.read_spectrum_csv(run / "spectra" / "pair000_after.csv")
    assert spectrum["k_rad_per_m"].size == levels
    assert qio.read_spacings_csv(run / "spacings.csv").spacings.size == 0
    assert qio.read_interlacing_csv(run / "interlacing.csv") == [(0, levels, 0)]


@pytest.mark.parametrize(
    "extra, reason",
    [({"window_k": [0.1, float("inf")]}, "k_min < k_max"),
     ({"solver": {"root_tolerance": 1e-8}}, "['solver']"),
     ({"window_k": [524000.0, 524300.0]}, "k_max below 2^19 = 524288 rad/m")],
)
def test_campaign_refuses_bad_solver_settings(goe_a_file, tmp_path, capsys, extra, reason):
    # an infinite window, a solver block and a window past the k the root
    # tolerance resolves are input errors (exit 2), not degraded results or
    # silently ignored
    manifest = {
        "graph_file": goe_a_file,
        "switch": {"pivot": 0, "edge_a": 3, "edge_b": 5},
        "randomized": {"count": 1, "jitter": 0.0},
        **extra,
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    assert main(["campaign", str(mpath), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


GOE_A_SWITCH = {"pivot": 0, "edge_a": 3, "edge_b": 5}
RANDOMIZED = {"count": 3, "jitter": 0.02}
SWEEP = {"grow_edge": 1, "shrink_edge": 2, "step_delta": 0.005, "step_count": 2,
         "switch": GOE_A_SWITCH}


@pytest.mark.parametrize(
    "manifest, named",
    [
        ({"presets": ["gue"], "randomized": RANDOMIZED}, "['randomized']"),
        ({"presets": ["gue"], "randomised": RANDOMIZED}, "['randomised']"),
        ({"preset": "gue", "randomized": {**RANDOMIZED, "seed": 4}}, "['seed']"),
        ({"preset": "gue", "graph_file": "g.json", "randomized": RANDOMIZED},
         "['graph_file']"),
        ({"graph_file": "g.json", "switch": GOE_A_SWITCH, "randomized": RANDOMIZED,
          "sweep": SWEEP}, "['sweep']"),
        ({"graph_file": "g.json", "sweep": {**SWEEP, "label": "x"}}, "['label']"),
        ({"graph_file": "g.json", "sweep": {**SWEEP, "switch": {"pivot": 0}}},
         "['edge_a', 'edge_b']"),
        ({"presets": ["gue"], "window_ghz": [0.8, 2.5], "window_k": [16.8, 52.4]},
         "window_ghz and window_k"),
        ({"presets": ["gue"], "window_k": 5}, "window_k"),
        ({"preset": "gue", "randomized": {"count": None, "jitter": 0.02}}, "count"),
        ({"presets": ["gue"], "seed": 1.5}, "seed"),
        ({"preset": "gue", "randomized": {"count": 2, "jitter": float("nan")}}, "jitter"),
        ({"graph_file": "g.json", "sweep": {**SWEEP, "step_delta": float("nan")}}, "step_delta"),
        ({"preset": "gue"}, "['randomized']"),
        ({"presets": "goe_a"}, "presets"),
        ({"presets": []}, "presets"),
        ({"presets": ["gue"], "solver": {"scan_step": 1e-9}}, "['solver']"),
        ({"presets": ["gue"], "label": "run"}, "['label']"),
        ({"presets": ["goe_a", "gue"]},
         "presets goe_a, gue have different windows; give window_ghz or window_k"),
        ({"graph_file": "g.json", "sweep": {**SWEEP, "grow_edge": 2}},
         "from_edge and to_edge must differ"),
        ({"preset": "gue", "randomized": {"count": 1, "jitter": 1.2}}, "jitter"),
        ({"preset": "gue", "randomized": {"count": 2, "jitter": 1e308}}, "jitter"),
        ({"preset": "gue", "randomized": {"count": 2, "jitter": 0.02}, "seed": -5}, "seed"),
    ],
)
def test_campaign_refuses_malformed_manifest(tmp_path, monkeypatch, capsys, manifest, named):
    # every manifest outside the grammar is an input error (exit 2) whose
    # message names what is wrong, never a sweep that drops a key and never
    # a traceback
    monkeypatch.chdir(tmp_path)
    save_graph(preset("goe_a").graph, "g.json")
    Path("manifest.json").write_text(json.dumps(manifest))
    assert main(["campaign", "manifest.json", "--out", "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err and not Path("run").exists()


@pytest.mark.parametrize(
    "manifest, pairs",
    [
        ({"presets": ["goe_a", "goe_a"]}, "pairs 0 and 11"),
        ({"graph_file": "g.json", "sweep": {**SWEEP, "step_delta": 0.0}}, "pairs 0 and 1"),
        ({"graph_file": "g.json", "sweep": {**SWEEP, "step_delta": 1e-20}}, "pairs 0 and 1"),
    ],
)
def test_campaign_refuses_a_repeated_switch_pair(tmp_path, monkeypatch, capsys, manifest, pairs):
    # a pair that enters a campaign twice would double its weight in the
    # pooled statistics: an input error (exit 2) naming both indices
    monkeypatch.chdir(tmp_path)
    save_graph(preset("goe_a").graph, "g.json")
    Path("manifest.json").write_text(json.dumps(manifest))
    assert main(["campaign", "manifest.json", "--out", "run"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {pairs} are the same switch pair\n"
    assert not Path("run").exists()


def test_campaign_reusing_an_output_directory_keeps_only_its_spectra(tmp_path, capsys):
    # a smaller campaign written over a larger one leaves no spectrum of the
    # larger one behind; files that are not spectra stay
    run = tmp_path / "run"
    (run / "spectra").mkdir(parents=True)
    (run / "spectra" / "notes.txt").write_text("kept")
    for count in (3, 1):
        mpath = tmp_path / f"gue{count}.json"
        mpath.write_text(json.dumps({**gue_numerics_manifest(count=count, seed=1),
                                     "window_k": [20.0, 30.0]}))
        assert main(["campaign", str(mpath), "--out", str(run)]) == 0
        assert capsys.readouterr().out.startswith(f"{count} pairs solved")
    assert sorted(os.listdir(run / "spectra")) == [
        "notes.txt", "pair000_after.csv", "pair000_before.csv",
    ]


@pytest.mark.parametrize("randomized", [[40, 0.02], "40, 0.02", 40])
def test_campaign_refuses_a_randomized_block_that_is_no_object(tmp_path, capsys, randomized):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"preset": "gue", "randomized": randomized}))
    assert main(["campaign", str(mpath), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: randomized must be an object with keys ['count', 'jitter']")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"presets": ["goe_a"], "presets": ["gue"]}', "'presets'"),
        ('{"preset": "gue", "randomized": {"count": 2, "jitter": 0.02, "count": 3}}', "'count'"),
    ],
)
def test_campaign_refuses_repeated_keys(tmp_path, capsys, text, key):
    # json keeps the last of repeated keys; a manifest that repeats one, at
    # the top or in a block, is refused instead of running the last
    mpath = tmp_path / "manifest.json"
    mpath.write_text(text)
    assert main(["campaign", str(mpath), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"repeats key {key}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_campaign_refuses_non_positive_workers(tmp_path, capsys, workers):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"presets": ["goe_a"]}))
    with pytest.raises(SystemExit) as exc:
        main(["campaign", str(mpath), "--workers", workers, "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_solve_equilateral_k5_is_complete(tmp_path, capsys):
    # levels of multiplicity up to 7 swing N_fl past NFL_BOUND on a correct
    # spectrum: the winding count, not N_fl, decides completeness
    ends = itertools.combinations(range(5), 2)
    edges = tuple(Edge(i, u, v, 0.3) for i, (u, v) in enumerate(ends, 1))
    path = tmp_path / "k5.json"
    save_graph(MetricGraph(vertices=tuple(range(5)), edges=edges), path)
    assert main(["solve", str(path), "--window-k", "0.5:40", "--out", str(tmp_path / "k5.csv")]) == 0
    out = capsys.readouterr().out
    assert "max |N_fl| = 5.52" in out and "status ok" in out


def test_campaign_needs_an_output_directory(tmp_path, monkeypatch, capsys):
    # neither --out nor out_dir: an input error before anything is solved or
    # written
    monkeypatch.chdir(tmp_path)
    Path("manifest.json").write_text(json.dumps({"presets": ["goe_a"]}))
    assert main(["campaign", "manifest.json"]) == 2
    assert capsys.readouterr().err.startswith("error: no output directory")
    assert sorted(os.listdir(tmp_path)) == ["manifest.json"]


def test_campaign_empty_manifest(tmp_path):
    mpath = tmp_path / "empty.json"
    mpath.write_text("{}")
    assert main(["campaign", str(mpath)]) == 2


def test_fit_xi_roundtrip(tmp_path, rng, capsys):
    sample = SpacingSample(np.sort(sample_transition(1.0, 2000, rng)))
    spath = tmp_path / "spacings.csv"
    qio.write_spacings_csv(sample, spath)
    assert main(["fit-xi", str(spath), "--out", str(tmp_path / "overlay.csv")]) == 0
    assert capsys.readouterr().out.startswith("xi = ")
    assert (tmp_path / "overlay.csv").exists()
    assert fit_xi(sample).identified


def test_fit_xi_says_when_the_sample_does_not_identify_xi(tmp_path, capsys):
    # the objective is flat toward the GUE end on this campaign's spacings:
    # the fit ends at XI_MAX with an uncertainty near 4e7
    result = run_campaign(plan_from_manifest(gue_numerics_manifest(count=6, seed=1)), workers=1)
    spath = tmp_path / "spacings.csv"
    qio.write_spacings_csv(result.spacings, spath)
    assert main(["fit-xi", str(spath), "--out", str(tmp_path / "overlay.csv")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("the sample does not identify xi: the fit gives xi = 100.0000 +/- ")
    assert "XI_MAX = 100" in out and f"n = {result.spacings.spacings.size}" in out
    assert qio.read_histogram_csv(tmp_path / "overlay.csv")["s_bin_center"].size > 0
    # the campaign's own overlay says the same in its echo
    assert not fit_xi(result.spacings).identified
    qio.emit_campaign_outputs(result, tmp_path / "run")
    echo = json.loads((tmp_path / "run" / "manifest_echo.json").read_text())
    assert echo["xi_overlay"]["identified"] is False
    assert echo["xi_overlay"]["xi"] == pytest.approx(100.0)


@pytest.mark.parametrize(
    "append, line",
    [
        ("\r\n301,0.5\r\n", 302),
        ("301\r\n", 302),
        ("301,0.5,9\r\n", 302),
        ('301,"0.5"\r\n', 302),
        (f"{2**63},0.5\r\n", 302),
    ],
    ids=["blank", "short", "extra", "quoted", "index-past-int64"],
)
def test_fit_xi_refuses_malformed_rows(tmp_path, rng, capsys, append, line):
    sample = SpacingSample(np.sort(sample_transition(1.0, 300, rng)))
    spath = tmp_path / "spacings.csv"
    qio.write_spacings_csv(sample, spath)
    with open(spath, "a", newline="", encoding="utf-8") as fh:
        fh.write(append)
    assert main(["fit-xi", str(spath)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {spath}, line {line}: ")


def test_fit_xi_names_the_line_of_a_malformed_row_past_the_first_block(tmp_path, rng, capsys):
    # the reader parses a long file block by block; line numbers run on across blocks
    sample = SpacingSample(np.sort(sample_transition(1.0, 3000, rng)))
    spath = tmp_path / "spacings.csv"
    qio.write_spacings_csv(sample, spath)
    assert spath.stat().st_size > 3 * qio._BLOCK_CHARS
    with open(spath, "a", newline="", encoding="utf-8") as fh:
        fh.write("3001,0.5\r\n3002,x\r\n")
    assert main(["fit-xi", str(spath)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {spath}, line 3003: ")


def test_fit_xi_reads_lf_files(tmp_path, rng, capsys):
    # users hand fit-xi their own files: LF line ends and no final newline
    sample = SpacingSample(np.sort(sample_transition(1.0, 2000, rng)))
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    qio.write_spacings_csv(sample, crlf)
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n").rstrip(b"\n"))
    outputs = []
    for path in (crlf, lf):
        assert main(["fit-xi", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("xi = ") and outputs[0] == outputs[1]


def test_fit_xi_too_few_rows(tmp_path, rng):
    sample = SpacingSample(np.sort(rng.uniform(0.5, 1.5, size=10)))
    spath = tmp_path / "short.csv"
    qio.write_spacings_csv(sample, spath)
    assert main(["fit-xi", str(spath)]) == 2


def test_fit_xi_rejects_nan_row(tmp_path, rng, capsys):
    # a nan spacing is an input error, not a sample to fit around
    sample = SpacingSample(np.sort(sample_transition(1.0, 300, rng)))
    spath = tmp_path / "spacings.csv"
    qio.write_spacings_csv(sample, spath)
    with open(spath, "a", newline="", encoding="utf-8") as fh:
        fh.write("301,nan\r\n")
    assert main(["fit-xi", str(spath)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_preset_unknown(tmp_path):
    assert main(["preset", "dump", "nope", "--out", str(tmp_path / "x.json")]) == 2


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.partition(":")[0] for line in lines] == ["goe_a", "goe_b", "gue"]
    assert lines[0].startswith(f"goe_a: total length {preset('goe_a').graph.total_length:.4f} m; ")


def test_preset_list_refuses_a_name(capsys):
    # `list` shares the optional NAME positional with `dump`, and takes none
    assert main(["preset", "list", "gue"]) == 2
    assert capsys.readouterr() == ("", "error: preset list takes no NAME, got 'gue'\n")


def test_preset_dump_round_trips(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["preset", "dump", "goe_a", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote goe_a to {path}\n  wrote {path}\n"
    graph, back = preset("goe_a").graph, load_graph(path)
    # lengths and phases bit for bit: the file keeps every float's repr
    assert [(e.id, e.u, e.v, e.length, e.phase_per_m) for e in back.edges] == [
        (e.id, e.u, e.v, e.length, e.phase_per_m) for e in graph.edges
    ]
    assert back.vertices == graph.vertices and back.metadata == graph.metadata


def test_preset_dump_needs_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "dump", "goe_a"]) == 2
    assert capsys.readouterr().err == "error: preset dump needs --out FILE\n"
    assert os.listdir(tmp_path) == []



def test_preset_dump_needs_a_name(tmp_path, capsys):
    assert main(["preset", "dump", "--out", str(tmp_path / "g.json")]) == 2
    assert capsys.readouterr().err == (
        "error: preset dump needs a NAME; `qgraph preset list` lists them\n"
    )
    assert not (tmp_path / "g.json").exists()


def _run_fresh(cwd, script: str, *args: str) -> dict:
    """The JSON that `script` prints last, run with `args` in a new Python
    process in `cwd`, this checkout's qgraph first on its path."""
    src = str(Path(qgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: with it blocked, importing qgraph
    # and every runtime command work, including a campaign large enough to
    # fit xi
    script = textwrap.dedent(
        """
        import json, sys
        sys.modules["scipy"] = None
        from qgraph.cli import main
        from qgraph.graphs import save_graph
        from qgraph.presets import gue_numerics_window, preset

        save_graph(preset("goe_a").graph, "goe_a.json")
        manifest = {
            "preset": "gue",
            "randomized": {"count": 2, "jitter": 0.02},
            "seed": 1,
            "window_k": list(gue_numerics_window()),
        }
        with open("gue.json", "w") as fh:
            json.dump(manifest, fh)
        codes = [
            main(["solve", "goe_a.json", "--window-k", "0.1:20", "--out", "s.csv"]),
            main(["compare", "goe_a.json", "--pivot", "0", "--edges", "3,5",
                  "--window-k", "0.1:20", "--out", "cmp"]),
            main(["campaign", "gue.json", "--out", "run"]),
            main(["fit-xi", "run/spacings.csv", "--out", "overlay.csv"]),
        ]
        print(json.dumps({"codes": codes}))
        """
    )
    assert _run_fresh(tmp_path, script) == {"codes": [0, 0, 0, 0]}
    spacings = qio.read_spacings_csv(tmp_path / "run" / "spacings.csv")
    assert spacings.spacings.size >= 200


def test_solve_and_a_campaign_load_no_openssl_and_no_numpy_random(tmp_path):
    # hashlib loads OpenSSL (_hashlib, about 3.4 MB): a campaign's aggregate
    # digest takes CPython's built-in SHA-256 instead, and no command
    # loads it; the seeded jitter draws from random.Random, so a randomized
    # campaign never loads numpy.random (about 2.6 MB)
    script = textwrap.dedent(
        """
        import json, sys
        import numpy
        preloaded = [m for m in ("numpy.random", "_hashlib") if m in sys.modules]
        if preloaded:
            print(json.dumps({"preloaded": preloaded}))
            sys.exit(0)
        from qgraph.cli import main
        from qgraph.graphs import save_graph
        from qgraph.presets import gue_numerics_window, preset

        save_graph(preset("goe_a").graph, "goe_a.json")
        manifest = {
            "preset": "gue",
            "randomized": {"count": 2, "jitter": 0.02},
            "seed": 1,
            "window_k": list(gue_numerics_window()),
        }
        with open("gue.json", "w") as fh:
            json.dump(manifest, fh)
        solve = main(["solve", "goe_a.json", "--window-ghz", "0.01:2.5", "--out", "s.csv"])
        solve_hashlib = "_hashlib" in sys.modules
        campaign = main(["campaign", "gue.json", "--workers", "1", "--out", "run"])
        print(json.dumps({
            "codes": [solve, campaign],
            "_hashlib after solve": solve_hashlib,
            "_hashlib after campaign": "_hashlib" in sys.modules,
            "numpy.random after campaign": "numpy.random" in sys.modules,
        }))
        """
    )
    result = _run_fresh(tmp_path, script)
    if "preloaded" in result:
        pytest.skip(f"import numpy already loads {', '.join(result['preloaded'])}")
    assert result == {
        "codes": [0, 0],
        "_hashlib after solve": False,
        "_hashlib after campaign": False,
        "numpy.random after campaign": False,
    }


def test_a_build_without_the_builtin_sha256_digests_through_hashlib(tmp_path):
    # some builds leave CPython's built-in SHA-256 out (_sha2 from 3.12,
    # _sha256 before); with both blocked the campaign falls back to hashlib
    # and writes the digest the built-in writes
    manifest = {"presets": ["goe_a"], "window_ghz": [0.01, 1.0]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert main(["campaign", str(tmp_path / "m.json"), "--workers", "1", "--out", str(tmp_path / "run")]) == 0
    script = textwrap.dedent(
        """
        import json, sys
        sys.modules["_sha2"] = sys.modules["_sha256"] = None
        from qgraph.cli import main

        code = main(["campaign", "m.json", "--workers", "1", "--out", "fallback"])
        echo = json.load(open("fallback/manifest_echo.json"))
        print(json.dumps({"code": code, "digest": echo["aggregate_sha256"]}))
        """
    )
    echo = json.loads((tmp_path / "run" / "manifest_echo.json").read_text())
    assert _run_fresh(tmp_path, script) == {"code": 0, "digest": echo["aggregate_sha256"]}


# numpy loads numpy.ma lazily (np.unique does, for one), about 13 ms per
# process; no command needs it.  The script runs each argv of its argument
# through cli.main and reports the exit codes and whether numpy.ma loaded.
NUMPY_MA_PROBE = textwrap.dedent(
    """
    import json, sys
    import numpy
    if "numpy.ma" in sys.modules:
        print(json.dumps({"preloaded": True}))
        sys.exit(0)
    from qgraph.cli import main

    codes = [main(argv) for argv in json.loads(sys.argv[1])]
    print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
    """
)


def _assert_numpy_ma_unloaded(cwd, argvs: list[list[str]], codes: list[int]) -> None:
    result = _run_fresh(cwd, NUMPY_MA_PROBE, json.dumps(argvs))
    if result.get("preloaded"):
        pytest.skip("import numpy already loads numpy.ma")
    assert result == {"codes": codes, "numpy.ma": False}


def test_campaign_leaves_numpy_ma_unloaded(tmp_path):
    (tmp_path / "gue.json").write_text(json.dumps(gue_numerics_manifest(count=1, seed=1)))
    _assert_numpy_ma_unloaded(tmp_path, [["campaign", "gue.json", "--out", "run"]], [0])


def test_cli_import_leaves_process_pools_unloaded(tmp_path):
    # campaign workers are forked with os.fork: concurrent.futures.process
    # and multiprocessing (about 20 ms and 2 MB per process) stay unloaded
    script = textwrap.dedent(
        """
        import json, sys
        import qgraph.cli
        print(json.dumps([m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]))
        """
    )
    assert _run_fresh(tmp_path, script) == []


COMPARE_GOE_A = ["compare", "goe_a.json", "--pivot", "0", "--edges", "3,5",
                 "--window-ghz", "0.01:2.5", "--out", "cmp"]


@pytest.mark.parametrize(
    "argvs, codes",
    [
        ([["validate", "goe_a.json"]], [0]),
        ([["solve", "goe_a.json", "--window-ghz", "0.01:2.5", "--out", "s.csv"]], [0]),
        ([COMPARE_GOE_A], [0]),
        ([COMPARE_GOE_A + ["--drop-level", "10"]], [1]),
        ([["fit-xi", "spacings.csv", "--out", "overlay.csv"]], [0]),
        ([["preset", "list"], ["preset", "dump", "gue", "--out", "gue.json"]], [0, 0]),
    ],
    ids=["validate", "solve", "compare", "compare-drop-level", "fit-xi", "preset"],
)
def test_commands_leave_numpy_ma_unloaded(tmp_path, argvs, codes):
    # grouping and merging sorted levels (compare, --drop-level) included
    save_graph(preset("goe_a").graph, tmp_path / "goe_a.json")
    sample = SpacingSample(sample_transition(1.0, 300, np.random.default_rng(5)))
    qio.write_spacings_csv(sample, tmp_path / "spacings.csv")
    _assert_numpy_ma_unloaded(tmp_path, argvs, codes)
