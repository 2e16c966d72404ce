import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qgraph import io as qio
from qgraph.ensemble import CampaignPlan, run_campaign
from qgraph.graphs import generate_configurations
from qgraph.solver import Spectrum, solve_spectrum
from qgraph.presets import preset
from qgraph.stats import (
    MIN_FIT_SPACINGS,
    SpacingSample,
    interlacing_degree,
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
    return solve_spectrum(three_star(), (0.1, 20.0))


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
    other = solve_spectrum(three_star((1.02, 0.7, 0.48)), (0.1, 20.0))
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


def test_spacings_csv_roundtrip(tmp_path, spectrum, rng):
    # the long sample spans several of the reader's blocks
    for sample in (unfold_spacings(spectrum), SpacingSample(rng.exponential(size=5000))):
        path = tmp_path / "spacings.csv"
        qio.write_spacings_csv(sample, path)
        back = qio.read_spacings_csv(path)
        assert np.array_equal(back.spacings, sample.spacings)
    assert path.stat().st_size > 4 * qio._BLOCK_CHARS


def test_read_spacings_csv_sorts(tmp_path):
    # a hand-written file need not list its spacings in order
    path = tmp_path / "spacings.csv"
    path.write_text("index,s\n1,1.5\n2,0.25\n3,0.75\n", encoding="utf-8")
    assert qio.read_spacings_csv(path).spacings.tolist() == [0.25, 0.75, 1.5]


def test_counting_csv_roundtrip(tmp_path, spectrum):
    other = solve_spectrum(three_star((1.02, 0.7, 0.48)), (0.1, 20.0))
    path = tmp_path / "counting.csv"
    qio.write_counting_csv(path, spectrum, other)
    back = qio.read_counting_csv(path)
    assert back["n_before"].dtype == back["n_after"].dtype == np.int64
    assert back["n_before"][-1] == spectrum.levels_below + spectrum.count
    assert back["n_after"][-1] == other.levels_below + other.count
    assert np.all(np.diff(back["k_rad_per_m"]) > 0)


def test_counting_csv_matches_shift_steps(tmp_path):
    # a level in [0, k_lo] counts through levels_below alone and a level
    # above k_hi not at all, so counting.csv counts from the bottom of the
    # spectrum over the window, and its N - N_tilde is Delta N on every
    # row, including a level on k_hi
    window = (0.1, 4.0)
    before = make_spectrum([0.05, 1.0, 2.0, 3.0, 4.5], window, 1.0)
    after = make_spectrum([0.1, 1.5, 2.5, 4.0, 5.0], window, 1.0, mults=[1, 2, 1, 1, 1])
    before, after = replace(before, levels_below=1), replace(after, levels_below=1)
    path = tmp_path / "counting.csv"
    qio.write_counting_csv(path, before, after)
    back = qio.read_counting_csv(path)
    ks = back["k_rad_per_m"]
    assert ks[0] == window[0] and ks[-1] == window[1]
    assert np.all(np.diff(ks) > 0)
    edges, n_before, n_after = _shift_steps(before, after)
    assert np.array_equal(edges, ks)
    assert np.array_equal(back["n_before"], n_before)
    assert np.array_equal(back["n_after"], n_after)
    assert list(ks) == [0.1, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    assert list(back["n_before"]) == [1, 2, 2, 3, 3, 4, 4]
    assert list(back["n_after"]) == [1, 1, 3, 3, 4, 4, 5]


def test_counting_csv_refuses_different_windows(tmp_path):
    # the rows are the breakpoints of one window; counting one side's levels
    # against the other's window would mix two staircases
    before = make_spectrum([1.0, 2.0, 3.0], (0.1, 4.0), 1.0)
    after = make_spectrum([1.0, 2.0, 3.0, 4.5], (0.1, 5.0), 1.0)
    path = tmp_path / "counting.csv"
    with pytest.raises(ValueError, match="windows differ"):
        qio.write_counting_csv(path, before, after)
    assert not path.exists()


COUNTING_WINDOW = (0.5, 4.0)
# one side of a pair: distinct levels below, on the edges of, inside and above
# the window, each with a multiplicity, and a levels_below offset
COUNTING_SIDES = st.lists(
    st.sampled_from(COUNTING_WINDOW) | st.floats(0.0, 5.0), unique=True, max_size=8
).flatmap(
    lambda ks: st.tuples(
        st.just(sorted(ks)),
        st.lists(st.integers(1, 3), min_size=len(ks), max_size=len(ks)),
        st.integers(0, 3),
    )
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(before=COUNTING_SIDES, after=COUNTING_SIDES)
@example(before=([1.0, 2.0, 3.0], [1, 1, 1], 0), after=([], [], 0))  # right-continuous
@example(before=([0.5, 2.0, 4.0], [2, 1, 3], 1), after=([0.2, 2.0, 4.5], [1, 2, 1], 0))
def test_counting_csv_rows_and_counts(tmp_path_factory, before, after):
    # rows are k_lo, the distinct levels in (k_lo, k_hi], then k_hi once; each
    # side counts its levels_below and its window levels up to the row, and
    # n_before - n_after is the Delta N whose measure shift_distribution
    # gives and whose largest |.| is the interlacing degree
    k_lo, k_hi = COUNTING_WINDOW
    spectra = [
        replace(make_spectrum(ks, COUNTING_WINDOW, 1.0, mults), levels_below=below)
        for ks, mults, below in (before, after)
    ]
    path = tmp_path_factory.mktemp("counting") / "counting.csv"
    qio.write_counting_csv(path, *spectra)
    back = qio.read_counting_csv(path)
    ks = back["k_rad_per_m"]
    in_window = {k for k in before[0] + after[0] if k_lo < k <= k_hi}
    assert ks.tolist() == [k_lo, *sorted(in_window - {k_hi}), k_hi]
    for name, (levels, mults, below) in zip(("n_before", "n_after"), (before, after)):
        expanded = [k for k, m in zip(levels, mults) for _ in range(m) if k_lo < k <= k_hi]
        assert back[name].dtype == np.int64
        assert np.array_equal(back[name], below + np.searchsorted(expanded, ks, "right"))
    dn = back["n_before"] - back["n_after"]
    assert interlacing_degree(*spectra) == np.abs(dn).max()
    widths = np.diff(ks)
    measures = {m: widths[dn[:-1] == m].sum() / (k_hi - k_lo) for m in set(dn[:-1].tolist())}
    assert shift_distribution(*spectra).probabilities == pytest.approx(measures, abs=1e-12)


def _csv_module_table(path, header, rows):
    """The csv.writer emission the table writer replaced, kept as the
    reference for the byte format: repr floats, plain ints, CRLF, and
    quoting only where a cell needs it (none of these cells do)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _bare_spectrum(ks, mults, residuals) -> Spectrum:
    return Spectrum(
        wavenumbers=np.array(ks, dtype=float),
        multiplicities=np.array(mults, dtype=np.int64),
        window=(0.0, 1.0),
        total_length=1.0,
        residuals=np.array(residuals, dtype=float),
        complete=True,
        status="ok",
        nfl_max=0.0,
    )


EDGE_CELLS = [0.0, -0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, math.inf, -math.inf, math.nan]
TABLES = st.integers(1, 6).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.lists(
                st.one_of(st.floats(), st.integers(-(2**80), 2**80)),
                min_size=width,
                max_size=width,
            ),
            max_size=12,
        ),
    )
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=TABLES)
@example(table=(len(EDGE_CELLS) + 2, [EDGE_CELLS + [2**70, -(2**64)]]))
@example(table=(3, []))
def test_table_writer_matches_csv_module(tmp_path_factory, table):
    width, rows = table
    header = [f"c{j}" for j in range(width)]
    out = tmp_path_factory.mktemp("table")
    qio._write_table(out / "new.csv", header, list(zip(*rows)) or [()] * width)
    _csv_module_table(out / "ref.csv", header, rows)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


FINITE_K = st.floats(-1e290, 1e290)  # C k / 2 pi overflows past about 1e300


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    columns=st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.lists(FINITE_K | st.sampled_from(EDGE_CELLS), min_size=n, max_size=n),
            st.lists(st.integers(1, 2**62), min_size=n, max_size=n),
            st.lists(st.floats(), min_size=n, max_size=n),
        )
    )
)
@example(columns=(EDGE_CELLS, [1, 2**62, 3, 1, 1, 7, 1, 2, 1], EDGE_CELLS[::-1]))
def test_spectrum_writer_matches_csv_module(tmp_path_factory, columns):
    # numpy-array columns through the public writer, against the row-by-row
    # conversion the writer replaced
    spectrum = _bare_spectrum(*columns)
    rows = [
        (i + 1, float(k), ghz_from_k(float(k)), int(m), float(r))
        for i, (k, m, r) in enumerate(
            zip(spectrum.wavenumbers, spectrum.multiplicities, spectrum.residuals)
        )
    ]
    out = tmp_path_factory.mktemp("spectrum")
    qio.write_spectrum_csv(spectrum, out / "new.csv")
    _csv_module_table(out / "ref.csv", qio.SPECTRUM_HEADER, rows)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_header_only_spectrum_reads_typed_columns(tmp_path):
    path = tmp_path / "empty.csv"
    qio.write_spectrum_csv(_bare_spectrum([], [], []), path)
    assert path.read_bytes() == b"index,k_rad_per_m,freq_GHz,multiplicity,residual\r\n"
    back = qio.read_spectrum_csv(path)
    assert {name: col.dtype for name, col in back.items()} == {
        "index": np.int64,
        "k_rad_per_m": np.float64,
        "freq_GHz": np.float64,
        "multiplicity": np.int64,
        "residual": np.float64,
    }
    assert all(col.size == 0 for col in back.values())


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        qio.read_spectrum_csv(path)


def test_emit_campaign_outputs(tmp_path):
    p = preset("goe_a")
    pairs = generate_configurations(p.graph, replace(p.sweep, step_count=1))
    plan = CampaignPlan(tuple(pairs), (k_from_ghz(0.01), k_from_ghz(1.0)))
    result = run_campaign(plan, workers=1)
    paths = qio.emit_campaign_outputs(result, tmp_path, manifest={"presets": ["goe_a"]})
    names = {p.split("/")[-1] for p in paths}
    assert "shift_distribution.csv" in names
    assert "spacing_histogram.csv" in names
    assert "interlacing.csv" in names
    assert "manifest_echo.json" in names
    assert (tmp_path / "spectra" / "pair000_before.csv").exists()
    import hashlib
    import json

    echo = json.loads((tmp_path / "manifest_echo.json").read_text())
    # the digest README gives for recomputing: cat of the four aggregate
    # tables in sorted-path order piped to sha256sum
    aggregates = ["interlacing.csv", "shift_distribution.csv", "spacing_histogram.csv", "spacings.csv"]
    expected = hashlib.sha256(b"".join((tmp_path / name).read_bytes() for name in aggregates))
    assert echo["aggregate_sha256"] == expected.hexdigest()
    assert echo["degraded"] is False
    # too few spacings to fit: the overlay's xi = 1 is a placeholder
    assert result.spacings.spacings.size < MIN_FIT_SPACINGS
    assert echo["xi_overlay"] == {"xi": 1.0, "identified": False}
