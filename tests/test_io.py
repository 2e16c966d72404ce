from dataclasses import replace

import numpy as np
import pytest

from qgraph import io as qio
from qgraph.ensemble import CampaignPlan, run_campaign
from qgraph.graphs import generate_configurations
from qgraph.solver import SolverConfig, solve_spectrum
from qgraph.presets import preset
from qgraph.stats import (
    SpacingSample,
    pool_shift_distributions,
    shift_distribution,
    spacing_histogram,
    unfold_spacings,
)
from qgraph.stats import _shift_steps
from qgraph.units import ghz_from_k, k_from_ghz

from conftest import make_spectrum, three_star


@pytest.fixture(scope="module")
def spectrum():
    return solve_spectrum(three_star(), SolverConfig(0.1, 20.0))


def test_spectrum_csv_roundtrip(tmp_path, spectrum):
    path = tmp_path / "spec.csv"
    qio.write_spectrum_csv(spectrum, path)
    back = qio.read_spectrum_csv(path)
    assert np.array_equal(back["k_rad_per_m"], spectrum.wavenumbers)
    assert np.array_equal(back["multiplicity"], spectrum.multiplicities)
    assert np.array_equal(back["residual"], spectrum.residuals)
    assert np.array_equal(
        back["freq_GHz"], np.array([ghz_from_k(k) for k in spectrum.wavenumbers])
    )


def test_shift_csv_roundtrip(tmp_path, spectrum):
    other = solve_spectrum(three_star((1.02, 0.7, 0.48)), SolverConfig(0.1, 20.0))
    shift = pool_shift_distributions(
        [shift_distribution(spectrum, other), shift_distribution(other, spectrum)]
    )
    path = tmp_path / "shift.csv"
    qio.write_shift_csv(shift, path)
    back = qio.read_shift_csv(path)
    for m, p in shift.probabilities.items():
        assert back[m][0] == p
        assert back[m][1] == shift.std_errors[m]


def test_histogram_csv_roundtrip(tmp_path, spectrum, rng):
    sample = SpacingSample(np.sort(rng.uniform(0.05, 3.0, size=500)))
    centers, density = spacing_histogram(sample)
    path = tmp_path / "hist.csv"
    qio.write_histogram_csv(path, centers, density, xi=1.0)
    back = qio.read_histogram_csv(path)
    assert np.array_equal(back["s_bin_center"], centers)
    assert np.array_equal(back["density_empirical"], density)
    assert back["density_goe"].shape == centers.shape


def test_interlacing_csv_roundtrip(tmp_path):
    rows = [(0, 1, 0), (1, 1, 0), (2, 2, 3)]
    path = tmp_path / "inter.csv"
    qio.write_interlacing_csv(path, rows)
    assert qio.read_interlacing_csv(path) == rows


def test_spacings_csv_roundtrip(tmp_path, spectrum):
    sample = unfold_spacings(spectrum)
    path = tmp_path / "spacings.csv"
    qio.write_spacings_csv(sample, path)
    back = qio.read_spacings_csv(path)
    assert np.array_equal(back.spacings, sample.spacings)


def test_counting_csv_roundtrip(tmp_path, spectrum):
    other = solve_spectrum(three_star((1.02, 0.7, 0.48)), SolverConfig(0.1, 20.0))
    path = tmp_path / "counting.csv"
    qio.write_counting_csv(path, spectrum, other)
    back = qio.read_counting_csv(path)
    assert back["n_before"][-1] == spectrum.count
    assert back["n_after"][-1] == other.count
    assert np.all(np.diff(back["k_rad_per_m"]) > 0)


def test_counting_csv_matches_shift_steps(tmp_path):
    # levels outside (k_lo, k_hi] count on neither side of the shift, so
    # counting.csv keeps to the window and its N - N_tilde is Delta N on
    # every row, including a level on k_hi
    window = (0.1, 4.0)
    before = make_spectrum([0.05, 1.0, 2.0, 3.0, 4.5], window, 1.0)
    after = make_spectrum([0.1, 1.5, 2.5, 4.0, 5.0], window, 1.0, mults=[1, 2, 1, 1, 1])
    path = tmp_path / "counting.csv"
    qio.write_counting_csv(path, before, after)
    back = qio.read_counting_csv(path)
    ks = back["k_rad_per_m"]
    assert ks[0] == window[0] and ks[-1] == window[1]
    assert np.all(np.diff(ks) > 0)
    edges, dn = _shift_steps(before, after)
    seg = np.minimum(np.searchsorted(edges, ks, side="right") - 1, dn.size - 1)
    assert np.array_equal(back["n_before"] - back["n_after"], dn[seg])
    assert list(ks) == [0.1, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    assert list(back["n_before"]) == [0, 1, 1, 2, 2, 3, 3]
    assert list(back["n_after"]) == [0, 0, 2, 2, 3, 3, 4]


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        qio.read_spectrum_csv(path)


def test_emit_campaign_outputs(tmp_path):
    p = preset("goe_a")
    pairs = generate_configurations(p.graph, replace(p.sweep, step_count=1))
    plan = CampaignPlan(tuple(pairs), SolverConfig(k_from_ghz(0.01), k_from_ghz(1.0)))
    result = run_campaign(plan, workers=1)
    paths = qio.emit_campaign_outputs(result, tmp_path, manifest={"presets": ["goe_a"]})
    names = {p.split("/")[-1] for p in paths}
    assert "shift_distribution.csv" in names
    assert "spacing_histogram.csv" in names
    assert "interlacing.csv" in names
    assert "manifest_echo.json" in names
    assert (tmp_path / "spectra" / "pair000_before.csv").exists()
    import json

    echo = json.loads((tmp_path / "manifest_echo.json").read_text())
    assert "aggregate_sha256" in echo
    assert echo["degraded"] is False
