import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qgraph
from qgraph.cli import main
from qgraph.graphs import Edge, MetricGraph, save_graph
from qgraph.presets import preset
from qgraph.stats import SpacingSample, sample_transition
from qgraph import io as qio


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


def test_solve_bad_window(goe_a_file, tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["solve", goe_a_file, "--window-ghz", "2.5:0.01", "--out", str(out)])
    assert code == 2


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
    out = capsys.readouterr().out
    assert "missing-resonance report" in out
    assert "suspect spectrum: after" in out


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


def test_campaign_empty_manifest(tmp_path):
    mpath = tmp_path / "empty.json"
    mpath.write_text("{}")
    assert main(["campaign", str(mpath)]) == 2


def test_fit_xi_roundtrip(tmp_path, rng, capsys):
    sample = SpacingSample(np.sort(sample_transition(1.0, 2000, rng)))
    spath = tmp_path / "spacings.csv"
    qio.write_spacings_csv(sample, spath)
    assert main(["fit-xi", str(spath), "--out", str(tmp_path / "overlay.csv")]) == 0
    assert "xi = " in capsys.readouterr().out
    assert (tmp_path / "overlay.csv").exists()


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


def test_runtime_needs_no_scipy(tmp_path):
    # scipy serves only the finite-difference oracle: with it blocked,
    # importing qgraph and every runtime command work, including a
    # campaign large enough to fit xi
    script = textwrap.dedent(
        """
        import json, sys
        sys.modules["scipy"] = None
        from qgraph import solver
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
        try:
            solver.fd_oracle_spectrum(preset("goe_a").graph, 100, 2)
            oracle = "ran"
        except ImportError:
            oracle = "ImportError"
        print(json.dumps({"codes": codes, "oracle": oracle}))
        """
    )
    src = str(Path(qgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "oracle": "ImportError"}
    spacings = qio.read_spacings_csv(tmp_path / "run" / "spacings.csv")
    assert spacings.spacings.size >= 200


def test_campaign_leaves_numpy_ma_unloaded(tmp_path):
    # numpy loads numpy.ma lazily (np.unique does, for one), about 13 ms
    # per process; a campaign needs none of it
    script = textwrap.dedent(
        """
        import json, sys
        import numpy
        if "numpy.ma" in sys.modules:
            print(json.dumps({"preloaded": True}))
            sys.exit(0)
        from qgraph.cli import main
        from qgraph.presets import gue_numerics_window

        manifest = {
            "preset": "gue",
            "randomized": {"count": 1, "jitter": 0.02},
            "seed": 1,
            "window_k": list(gue_numerics_window()),
        }
        with open("gue.json", "w") as fh:
            json.dump(manifest, fh)
        code = main(["campaign", "gue.json", "--out", "run"])
        print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
        """
    )
    src = str(Path(qgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    if result.get("preloaded"):
        pytest.skip("import numpy already loads numpy.ma")
    assert result == {"code": 0, "numpy.ma": False}
