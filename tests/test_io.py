import numpy as np
import pytest

from qgraph import io as qio
from qgraph.ensemble import run_campaign, sweep_plan
from qgraph.solver import SolverConfig, solve_spectrum
from qgraph.presets import preset
from qgraph.stats import (
    SpacingSample,
    pool_shift_distributions,
    shift_distribution,
    spacing_histogram,
    unfold_spacings,
)
from qgraph.units import ghz_from_k, k_from_ghz

from conftest import three_star


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


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        qio.read_spectrum_csv(path)


def test_emit_campaign_outputs(tmp_path):
    from qgraph.ensemble import SweepSpec

    p = preset("goe_a")
    spec = SweepSpec(
        base=p.sweep.base,
        grow_edge=1,
        shrink_edge=2,
        step_delta=0.005,
        step_count=1,
        switch=p.sweep.switch,
        solver=SolverConfig(k_from_ghz(0.01), k_from_ghz(1.0)),
        label="tiny",
    )
    result = run_campaign(sweep_plan(spec), workers=1)
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
