"""CSV emission and parsing for spectra, statistics, and campaign output.

Floats are written with repr (shortest exact round trip) and a fixed
column order with '.' decimals, so files re-parse losslessly and are
locale independent.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .solver import Spectrum
from .stats import (
    MIN_FIT_SPACINGS,
    CountingFunction,
    ShiftDistribution,
    SpacingSample,
    detect_missing_resonances,
    fit_xi,
    spacing_histogram,
    transition_pdf,
    wigner_pdf,
)
from .units import ghz_from_k

__all__ = [
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_shift_csv",
    "read_shift_csv",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_interlacing_csv",
    "read_interlacing_csv",
    "write_spacings_csv",
    "read_spacings_csv",
    "write_counting_csv",
    "emit_campaign_outputs",
]


def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _read_rows(path, expected_header: list[str]) -> list[list[str]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != expected_header:
            raise ValueError(f"unexpected header in {path}: {header}")
        return [row for row in reader]


SPECTRUM_HEADER = ["index", "k_rad_per_m", "freq_GHz", "multiplicity", "residual"]


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    rows = [
        (i + 1, float(k), ghz_from_k(float(k)), int(m), float(r))
        for i, (k, m, r) in enumerate(
            zip(spectrum.wavenumbers, spectrum.multiplicities, spectrum.residuals)
        )
    ]
    _write_rows(path, SPECTRUM_HEADER, rows)


def read_spectrum_csv(path) -> dict[str, np.ndarray]:
    rows = _read_rows(path, SPECTRUM_HEADER)
    return {
        "index": np.array([int(r[0]) for r in rows]),
        "k_rad_per_m": np.array([float(r[1]) for r in rows]),
        "freq_GHz": np.array([float(r[2]) for r in rows]),
        "multiplicity": np.array([int(r[3]) for r in rows]),
        "residual": np.array([float(r[4]) for r in rows]),
    }


SHIFT_HEADER = ["delta_n", "probability", "std_error"]


def write_shift_csv(shift: ShiftDistribution, path) -> None:
    errors = shift.std_errors or {}
    rows = [
        (m, float(shift.probabilities[m]), float(errors.get(m, 0.0)))
        for m in sorted(shift.probabilities)
    ]
    _write_rows(path, SHIFT_HEADER, rows)


def read_shift_csv(path) -> dict[int, tuple[float, float]]:
    rows = _read_rows(path, SHIFT_HEADER)
    return {int(r[0]): (float(r[1]), float(r[2])) for r in rows}


HISTOGRAM_HEADER = [
    "s_bin_center",
    "density_empirical",
    "density_goe",
    "density_gue",
    "density_transition",
]


def write_histogram_csv(
    path, centers: np.ndarray, density: np.ndarray, xi: float
) -> None:
    goe = np.asarray(wigner_pdf(centers, "GOE"))
    gue = np.asarray(wigner_pdf(centers, "GUE"))
    tra = np.asarray(transition_pdf(centers, xi))
    rows = [
        (float(c), float(d), float(g1), float(g2), float(t))
        for c, d, g1, g2, t in zip(centers, density, goe, gue, tra)
    ]
    _write_rows(path, HISTOGRAM_HEADER, rows)


def read_histogram_csv(path) -> dict[str, np.ndarray]:
    rows = _read_rows(path, HISTOGRAM_HEADER)
    cols = list(zip(*rows)) if rows else [[]] * 5
    return {
        name: np.array([float(x) for x in col])
        for name, col in zip(HISTOGRAM_HEADER, cols)
    }


INTERLACING_HEADER = ["pair_id", "degree", "violations"]


def write_interlacing_csv(path, rows: list[tuple[int, int, int]]) -> None:
    _write_rows(path, INTERLACING_HEADER, rows)


def read_interlacing_csv(path) -> list[tuple[int, int, int]]:
    rows = _read_rows(path, INTERLACING_HEADER)
    return [(int(r[0]), int(r[1]), int(r[2])) for r in rows]


SPACINGS_HEADER = ["index", "s"]


def write_spacings_csv(sample: SpacingSample, path) -> None:
    rows = [(i + 1, float(s)) for i, s in enumerate(sample.spacings)]
    _write_rows(path, SPACINGS_HEADER, rows)


def read_spacings_csv(path) -> SpacingSample:
    rows = _read_rows(path, SPACINGS_HEADER)
    return SpacingSample(
        spacings=np.array([float(r[1]) for r in rows]), source=str(path)
    )


COUNTING_HEADER = ["k_rad_per_m", "freq_GHz", "n_before", "n_after"]


def write_counting_csv(path, before: Spectrum, after: Spectrum) -> None:
    """Merged staircase data of a before/after pair: one row at each window
    edge and at each level in the window, with both counting functions.

    The counts are window-relative, zero at k_min; add a side's
    `levels_below` to count from the bottom of the spectrum, as the
    spectral shift does."""
    nb, na = CountingFunction(before), CountingFunction(after)
    ks = np.unique(np.concatenate([[before.window[0]], nb.levels, na.levels, [before.window[1]]]))
    rows = zip(ks.tolist(), ghz_from_k(ks).tolist(), nb(ks).tolist(), na(ks).tolist())
    _write_rows(path, COUNTING_HEADER, rows)


def read_counting_csv(path) -> dict[str, np.ndarray]:
    rows = _read_rows(path, COUNTING_HEADER)
    cols = list(zip(*rows)) if rows else [[]] * 4
    return {
        name: np.array([float(x) for x in col])
        for name, col in zip(COUNTING_HEADER, cols)
    }


# ---------------------------------------------------------------------------
# campaign output bundle
# ---------------------------------------------------------------------------


def emit_campaign_outputs(result, out_dir, manifest: dict | None = None) -> list[str]:
    """Write per-configuration spectra plus the aggregate tables.

    Returns the emitted paths; a manifest echo with a content hash over
    the aggregate CSVs closes the provenance loop.
    """
    out = Path(out_dir)
    (out / "spectra").mkdir(parents=True, exist_ok=True)
    paths = []
    for pair in result.pairs:
        for side, spec in (("before", pair.before), ("after", pair.after)):
            p = out / "spectra" / f"pair{pair.index:03d}_{side}.csv"
            write_spectrum_csv(spec, p)
            paths.append(str(p))

    shift_path = out / "shift_distribution.csv"
    write_shift_csv(result.shift, shift_path)

    spacings_path = out / "spacings.csv"
    write_spacings_csv(result.spacings, spacings_path)

    centers, density = spacing_histogram(result.spacings)
    if result.spacings.spacings.size >= MIN_FIT_SPACINGS:
        xi = fit_xi(result.spacings).xi
    else:
        xi = 1.0
    hist_path = out / "spacing_histogram.csv"
    write_histogram_csv(hist_path, centers, density, xi)

    inter_path = out / "interlacing.csv"
    inter_rows = []
    for pair in result.pairs:
        violations = len(detect_missing_resonances(pair.before, pair.after).flagged)
        inter_rows.append((pair.index, pair.degree, violations))
    write_interlacing_csv(inter_path, inter_rows)

    aggregate = [shift_path, spacings_path, hist_path, inter_path]
    digest = hashlib.sha256()
    for p in sorted(str(a) for a in aggregate):
        digest.update(Path(p).read_bytes())
    echo = {
        "manifest": manifest or {},
        "provenance": result.provenance,
        "degraded": result.degraded,
        "degraded_pairs": list(result.degraded_pairs),
        "levels_before": result.levels_before,
        "levels_after": result.levels_after,
        "aggregate_sha256": digest.hexdigest(),
    }
    echo_path = out / "manifest_echo.json"
    with open(echo_path, "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")

    paths.extend(str(p) for p in aggregate)
    paths.append(str(echo_path))
    return paths
