"""CSV emission and parsing for spectra, statistics, and campaign output.

One writer writes every table from whole columns: a header line, then a row per
entry with cells joined by ',', no quoting and CRLF line ends; floats in repr
(shortest exact round trip, '.' decimals) and ints in plain decimal, so files
re-parse losslessly and are locale independent.  One reader parses every table
and also accepts LF line ends and no final newline; a row with a cell count other
than the header's, or a cell that does not parse (a quoted one included), is a
ValueError naming the file and line.
"""

from __future__ import annotations

import hashlib
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .solver import Spectrum
from .stats import (
    MIN_FIT_SPACINGS,
    ShiftDistribution,
    SpacingSample,
    _shift_steps,
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


def _write_table(path, header: list[str], columns) -> None:
    """Write `header`, then one row per entry of `columns`, lists of Python floats and ints
    streamed with no per-cell Python code (repr of a numpy float reads `np.float64(...)`)."""
    row = ",".join(["{!r}"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.format, *columns))


_DTYPES = {int: np.int64, float: np.float64}
_BLOCK_CHARS = 1 << 14  # text parsed at a time; bounds the cell strings alive at once


def _columns(path, first: int, types, columns) -> list[np.ndarray]:
    """`columns` of cells as int64 or float64 arrays, column j parsed by types[j]; a
    cell that does not parse is a ValueError naming `path` and its line, rows from `first`."""
    try:
        return [np.fromiter(map(t, col), _DTYPES[t], len(col)) for t, col in zip(types, columns)]
    except (ValueError, OverflowError):  # find the first bad cell, row by row
        for n, row in enumerate(zip(*columns), first):
            try:
                [_DTYPES[t](t(x)) for t, x in zip(types, row)]
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}, line {n}: {exc}") from None
        raise


def _read_table(path, header: list[str], types) -> list[np.ndarray]:
    """The columns under `header`, parsed a block of rows at a time, so the memory
    a read touches stays the same however long the file is."""
    width, n = len(header), 2  # n: the line number of the block's first row
    blocks = [_columns(path, n, types, [[]] * width)]
    with open(path, "r", newline="", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\r\n")
        if first.split(",") != header:
            raise ValueError(f"unexpected header in {path}: {first!r}")
        while lines := "".join(fh.readlines(_BLOCK_CHARS)).splitlines():
            if set(counts := list(map(str.count, lines, repeat(",")))) != {width - 1}:
                i, c = next((i, c) for i, c in enumerate(counts) if c != width - 1)
                raise ValueError(f"{path}, line {n + i}: expected {width} cells, got {c + 1}")
            cells = ",".join(lines).split(",")  # one split for the whole block
            blocks.append(_columns(path, n, types, [cells[j::width] for j in range(width)]))
            n += len(lines)
    return [np.concatenate(col) for col in zip(*blocks)]


SPECTRUM_HEADER = ["index", "k_rad_per_m", "freq_GHz", "multiplicity", "residual"]


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    ks = spectrum.wavenumbers
    columns = (range(1, ks.size + 1), ks.tolist(), ghz_from_k(ks).tolist())
    columns += (spectrum.multiplicities.tolist(), spectrum.residuals.tolist())
    _write_table(path, SPECTRUM_HEADER, columns)


def read_spectrum_csv(path) -> dict[str, np.ndarray]:
    types = (int, float, float, int, float)
    return dict(zip(SPECTRUM_HEADER, _read_table(path, SPECTRUM_HEADER, types)))


SHIFT_HEADER = ["delta_n", "probability", "std_error"]


def write_shift_csv(shift: ShiftDistribution, path) -> None:
    ms, errors = sorted(shift.probabilities), shift.std_errors or {}
    columns = ([int(m) for m in ms], [float(shift.probabilities[m]) for m in ms])
    columns += ([float(errors.get(m, 0.0)) for m in ms],)
    _write_table(path, SHIFT_HEADER, columns)


def read_shift_csv(path) -> dict[int, tuple[float, float]]:
    ms, probs, errors = (c.tolist() for c in _read_table(path, SHIFT_HEADER, (int, float, float)))
    return dict(zip(ms, zip(probs, errors)))


HISTOGRAM_HEADER = [
    "s_bin_center", "density_empirical", "density_goe", "density_gue", "density_transition"
]


def write_histogram_csv(path, centers: np.ndarray, density: np.ndarray, xi: float) -> None:
    overlays = (wigner_pdf(centers, "GOE"), wigner_pdf(centers, "GUE"), transition_pdf(centers, xi))
    columns = [np.asarray(c, dtype=float).tolist() for c in (centers, density, *overlays)]
    _write_table(path, HISTOGRAM_HEADER, columns)


def read_histogram_csv(path) -> dict[str, np.ndarray]:
    return dict(zip(HISTOGRAM_HEADER, _read_table(path, HISTOGRAM_HEADER, [float] * 5)))


INTERLACING_HEADER = ["pair_id", "degree", "violations"]


def write_interlacing_csv(path, rows: list[tuple[int, int, int]]) -> None:
    columns = [[int(x) for x in col] for col in zip(*rows)] or [[]] * 3
    _write_table(path, INTERLACING_HEADER, columns)


def read_interlacing_csv(path) -> list[tuple[int, int, int]]:
    return list(zip(*(c.tolist() for c in _read_table(path, INTERLACING_HEADER, (int,) * 3))))


SPACINGS_HEADER = ["index", "s"]


def write_spacings_csv(sample: SpacingSample, path) -> None:
    s = sample.spacings
    _write_table(path, SPACINGS_HEADER, (range(1, s.size + 1), s.tolist()))


def read_spacings_csv(path) -> SpacingSample:
    _, s = _read_table(path, SPACINGS_HEADER, (int, float))
    return SpacingSample(spacings=s, source=str(path))


COUNTING_HEADER = ["k_rad_per_m", "freq_GHz", "n_before", "n_after"]


def write_counting_csv(path, before: Spectrum, after: Spectrum) -> None:
    """Merged staircase data of a before/after pair over one window: one row at
    each breakpoint of the spectral shift, with both counting functions.

    The counts are window-relative, zero at k_min; add a side's
    `levels_below` to count from the bottom of the spectrum, as the
    spectral shift does."""
    ks, _, counts = _shift_steps(before, after)
    columns = (ks.tolist(), ghz_from_k(ks).tolist(), *(n.astype(float).tolist() for n in counts))
    _write_table(path, COUNTING_HEADER, columns)


def read_counting_csv(path) -> dict[str, np.ndarray]:
    return dict(zip(COUNTING_HEADER, _read_table(path, COUNTING_HEADER, [float] * 4)))


# ---------------------------------------------------------------------------
# campaign output bundle
# ---------------------------------------------------------------------------


def emit_campaign_outputs(result, out_dir, manifest: dict | None = None) -> list[str]:
    """Write per-configuration spectra plus the aggregate tables.

    Returns the emitted paths; a manifest echo with a content hash over
    the aggregate CSVs closes the provenance loop.  Spectrum files
    `spectra/pair*_*.csv` this call did not write, left by an earlier
    campaign in the same directory, are removed.  The echo's
    `xi_overlay` gives the xi the histogram overlay draws and whether the
    spacings identify it; below MIN_FIT_SPACINGS the overlay draws xi = 1
    unfitted, which identifies nothing.
    """
    out = Path(out_dir)
    (out / "spectra").mkdir(parents=True, exist_ok=True)
    paths = []
    for pair in result.pairs:
        for side, spec in (("before", pair.before), ("after", pair.after)):
            p = out / "spectra" / f"pair{pair.index:03d}_{side}.csv"
            write_spectrum_csv(spec, p)
            paths.append(str(p))
    written = set(paths)
    for p in (out / "spectra").glob("pair*_*.csv"):
        if str(p) not in written:
            p.unlink()

    shift_path = out / "shift_distribution.csv"
    write_shift_csv(result.shift, shift_path)

    spacings_path = out / "spacings.csv"
    write_spacings_csv(result.spacings, spacings_path)

    centers, density = spacing_histogram(result.spacings)
    if result.spacings.spacings.size >= MIN_FIT_SPACINGS:
        fit = fit_xi(result.spacings)
        xi, identified = fit.xi, fit.identified
    else:
        xi, identified = 1.0, False
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
        "xi_overlay": {"xi": xi, "identified": identified},
    }
    echo_path = out / "manifest_echo.json"
    with open(echo_path, "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")

    paths.extend(str(p) for p in aggregate)
    paths.append(str(echo_path))
    return paths
