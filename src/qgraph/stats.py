"""Spectral statistics: counting functions, interlacing, spacings.

Everything here is a pure function of immutable spectra.  Unfolding uses
the exact mean density L/pi of a metric graph (no polynomial fit), so an
unfolded spacing is s_i = (k_{i+1} - k_i) L / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import least_squares
from scipy.special import erf

from .solver import Spectrum

__all__ = [
    "CountingFunction",
    "ShiftDistribution",
    "SpacingSample",
    "TransitionFitResult",
    "MissingLevelReport",
    "weyl_count",
    "fluctuating_count",
    "shift_distribution",
    "pool_shift_distributions",
    "interlacing_degree",
    "detect_missing_resonances",
    "unfold_spacings",
    "pool_spacings",
    "spacing_histogram",
    "wigner_pdf",
    "wigner_cdf",
    "transition_pdf",
    "MIN_FIT_SPACINGS",
    "fit_xi",
    "ks_distance",
    "sample_wigner",
    "sample_transition",
]


def weyl_count(total_length: float, k: float) -> float:
    """Mean number of levels below k: L k / pi."""
    if k < 0.0:
        raise ValueError(f"k must be non-negative, got {k}")
    return total_length * k / math.pi


def fluctuating_count(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """N_fl(k_i) = i - L (k_i - k_min) / pi at each identified level.

    Levels are indexed from the window's lower edge; a missing level shows
    up as a persistent unit drop of the sequence.
    """
    ks = spectrum.expanded()
    if ks.size == 0:
        raise ValueError("spectrum is empty")
    idx = np.arange(1, ks.size + 1)
    weyl = spectrum.total_length * (ks - spectrum.window[0]) / math.pi
    return ks, idx - weyl


class CountingFunction:
    """Right-continuous step function N(k) of a spectrum over its window."""

    def __init__(self, spectrum: Spectrum):
        self.spectrum = spectrum
        self.window = spectrum.window
        self._ks = spectrum.expanded()

    def __call__(self, k) -> np.ndarray:
        return np.searchsorted(self._ks, np.asarray(k, dtype=float), side="right").astype(
            float
        )

    def step_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, N) pairs tracing the staircase, window edges included."""
        k_lo, k_hi = self.window
        ks = np.concatenate([[k_lo], self._ks, [k_hi]])
        ns = np.concatenate([[0.0], np.arange(1, self._ks.size + 1), [float(self._ks.size)]])
        return ks, ns


# ---------------------------------------------------------------------------
# spectral shift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftDistribution:
    """Probability of each integer shift Delta N = N - N_tilde over a window.

    Masses are exact Lebesgue measures of the piecewise-constant shift
    divided by the window length; support is kept exactly as observed.
    """

    probabilities: dict[int, float]
    window: tuple[float, float]
    pair_count: int = 1
    std_errors: dict[int, float] | None = None

    def __post_init__(self):
        total = sum(self.probabilities.values())
        if self.probabilities and abs(total - 1.0) > 1e-12:
            raise ValueError(f"shift masses must sum to 1, got {total!r}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(m for m, p in self.probabilities.items() if p > 0.0))

    def probability(self, m: int) -> float:
        return self.probabilities.get(m, 0.0)


def _shift_segments(
    before: Spectrum, after: Spectrum, window: tuple[float, float]
) -> list[tuple[float, float, int]]:
    """(k_start, k_end, Delta N) segments of the shift over the window."""
    k_lo, k_hi = window
    events: dict[float, int] = {}
    for spec, sign in ((before, 1), (after, -1)):
        for k, m in zip(spec.wavenumbers, spec.multiplicities):
            if k_lo < k <= k_hi:
                events[float(k)] = events.get(float(k), 0) + sign * int(m)
    segments = []
    current = 0
    prev = k_lo
    for k in sorted(events):
        if k > prev:
            segments.append((prev, k, current))
        current += events[k]
        prev = k
    if k_hi > prev:
        segments.append((prev, k_hi, current))
    return segments


def shift_distribution(
    before: Spectrum, after: Spectrum, window: tuple[float, float] | None = None
) -> ShiftDistribution:
    """Exact measure of each integer value of N(k) - N_tilde(k).

    The shift is piecewise constant with breakpoints at the merged level
    set; each integer's mass is the summed segment length divided by the
    window length (one normalization, no sampling grid).
    """
    if before.window != after.window:
        raise ValueError(f"windows differ: {before.window} vs {after.window}")
    if window is None:
        window = before.window
    if window[0] < before.window[0] or window[1] > before.window[1]:
        raise ValueError(f"window {window} not covered by spectra {before.window}")
    measures: dict[int, float] = {}
    for a, b, v in _shift_segments(before, after, window):
        measures[v] = measures.get(v, 0.0) + (b - a)
    total = sum(measures.values())
    probs = {m: v / total for m, v in measures.items()}
    return ShiftDistribution(probabilities=probs, window=window, pair_count=1)


def pool_shift_distributions(dists: list[ShiftDistribution]) -> ShiftDistribution:
    """Measure-weighted pooling with per-shift standard errors across pairs.

    The error bar on each shift value is the standard deviation of the
    per-pair probabilities divided by sqrt(pair count).
    """
    if not dists:
        raise ValueError("nothing to pool")
    support = sorted({m for d in dists for m in d.probabilities})
    weights = np.array([d.window[1] - d.window[0] for d in dists])
    table = np.array([[d.probability(m) for m in support] for d in dists])
    pooled = (weights[:, None] * table).sum(axis=0) / weights.sum()
    n = len(dists)
    if n > 1:
        err = table.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        err = np.zeros(len(support))
    window = (min(d.window[0] for d in dists), max(d.window[1] for d in dists))
    return ShiftDistribution(
        probabilities={m: float(p) for m, p in zip(support, pooled)},
        window=window,
        pair_count=n,
        std_errors={m: float(e) for m, e in zip(support, err)},
    )


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def _one_sided_degree(a: np.ndarray, b: np.ndarray) -> int:
    n = np.arange(1, b.size + 1)
    p = np.searchsorted(a, b, side="right")  # how many a-levels are <= b_n
    q = np.searchsorted(a, b, side="left")  # how many a-levels are < b_n
    r_lower = np.maximum(0, n - p)
    r_upper = np.maximum(0, q + 1 - n)
    return int(max(r_lower.max(), r_upper.max()))


def interlacing_degree(before: Spectrum, after: Spectrum) -> int:
    """Minimal r with nu_{n-r} <= nu~_n <= nu_{n+r} wherever both exist.

    Indices whose partner falls outside the window are skipped, not
    assumed satisfied; the constraint set is symmetrized over the two
    spectra, which makes the degree equal to the maximum |Delta N| of the
    pair's counting functions anchored at the window's lower edge.
    Identical spectra give r = 0.
    """
    if before.window != after.window:
        raise ValueError(f"windows differ: {before.window} vs {after.window}")
    a = before.expanded()
    b = after.expanded()
    if a.size == 0 or b.size == 0:
        raise ValueError("interlacing degree needs non-empty spectra")
    return max(_one_sided_degree(a, b), _one_sided_degree(b, a))


@dataclass(frozen=True)
class MissingLevelReport:
    """Where and on which side a level is likely missing from a switch pair."""

    flagged: tuple[tuple[float, float, int], ...]  # (k_start, k_end, Delta N)
    suspect: str | None  # "before" / "after"
    estimated_k: float | None
    drift_before: float | None
    drift_after: float | None
    mean_spacing: float

    @property
    def clean(self) -> bool:
        return not self.flagged


def detect_missing_resonances(before: Spectrum, after: Spectrum) -> MissingLevelReport:
    """Flag window regions where |Delta N| >= 2 and localize the fault.

    A switch pair with complete spectra keeps |Delta N| <= 1.  A missing
    level adds a persistent unit step to the shift; the step location is
    estimated from the extremum of the integrated centered shift, and the
    step sign identifies which spectrum lost the level (the loser also
    shows the extra N_fl drop, reported as the drift across the step).
    """
    window = before.window
    mean_spacing = math.pi / before.total_length
    segments = _shift_segments(before, after, window)
    flagged = tuple((a, b, v) for a, b, v in segments if abs(v) >= 2)
    if not flagged:
        return MissingLevelReport(
            flagged=(),
            suspect=None,
            estimated_k=None,
            drift_before=None,
            drift_after=None,
            mean_spacing=mean_spacing,
        )
    total = window[1] - window[0]
    mean_shift = sum(v * (b - a) for a, b, v in segments) / total
    # integrated centered shift: piecewise linear, extremal at the step
    best_k, best_g, g = window[0], 0.0, 0.0
    for a, b, v in segments:
        g += (v - mean_shift) * (b - a)
        if abs(g) > abs(best_g):
            best_g, best_k = g, b
    before_mean = _mean_shift(segments, window[0], best_k)
    after_mean = _mean_shift(segments, best_k, window[1])
    step = after_mean - before_mean
    suspect = "after" if step > 0 else "before"
    drift_b = _nfl_drift(before, best_k)
    drift_a = _nfl_drift(after, best_k)
    return MissingLevelReport(
        flagged=flagged,
        suspect=suspect,
        estimated_k=best_k,
        drift_before=drift_b,
        drift_after=drift_a,
        mean_spacing=mean_spacing,
    )


def _mean_shift(segments, lo: float, hi: float) -> float:
    num = 0.0
    den = 0.0
    for a, b, v in segments:
        aa, bb = max(a, lo), min(b, hi)
        if bb > aa:
            num += v * (bb - aa)
            den += bb - aa
    return num / den if den > 0 else 0.0


def _nfl_drift(spectrum: Spectrum, split_k: float) -> float:
    if spectrum.count == 0:
        return 0.0
    ks, nfl = fluctuating_count(spectrum)
    lo = nfl[ks <= split_k]
    hi = nfl[ks > split_k]
    if lo.size == 0 or hi.size == 0:
        return 0.0
    return float(hi.mean() - lo.mean())


# ---------------------------------------------------------------------------
# unfolded spacings and reference densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacingSample:
    """Unfolded nearest-neighbor spacings, stored sorted."""

    spacings: np.ndarray
    source: str = ""
    config_count: int = 1

    def __post_init__(self):
        self.spacings.setflags(write=False)
        if self.spacings.size and self.spacings.min() <= 0.0:
            raise ValueError("spacings must be positive")

    @property
    def mean(self) -> float:
        return float(self.spacings.mean())


def unfold_spacings(spectrum: Spectrum, source: str = "") -> SpacingSample:
    """s_i = (k_{i+1} - k_i) L / pi over the multiplicity-expanded levels."""
    ks = spectrum.expanded()
    if ks.size < 2:
        raise ValueError("need at least two levels to form spacings")
    s = np.diff(ks) * spectrum.total_length / math.pi
    if np.any(s <= 0.0):
        raise ValueError("degenerate levels produce zero spacings; cannot unfold")
    return SpacingSample(spacings=np.sort(s), source=source, config_count=1)


def pool_spacings(samples: list[SpacingSample], source: str = "pooled") -> SpacingSample:
    """All spacings of the samples in one sorted sample; empty when none."""
    parts = [s.spacings for s in samples]
    joined = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    return SpacingSample(
        spacings=joined, source=source, config_count=sum(s.config_count for s in samples)
    )


def spacing_histogram(
    sample: SpacingSample, bin_width: float = 0.1, s_max: float = 4.0
) -> tuple[np.ndarray, np.ndarray]:
    """Bin centers and empirical density, normalized by the full sample size
    so tail mass beyond s_max correctly lowers the in-range bins."""
    edges = np.arange(0.0, s_max + 0.5 * bin_width, bin_width)
    counts, _ = np.histogram(sample.spacings, bins=edges)
    density = counts / (max(sample.spacings.size, 1) * bin_width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def wigner_pdf(s, ensemble: str):
    """Wigner surmise: GOE (pi/2) s e^{-pi s^2/4}; GUE (32/pi^2) s^2 e^{-4 s^2/pi}."""
    s = np.asarray(s, dtype=float)
    if ensemble == "GOE":
        out = 0.5 * math.pi * s * np.exp(-0.25 * math.pi * s**2)
    elif ensemble == "GUE":
        out = (32.0 / math.pi**2) * s**2 * np.exp(-4.0 * s**2 / math.pi)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    return out if out.ndim else float(out)


def wigner_cdf(s, ensemble: str):
    s = np.asarray(s, dtype=float)
    if ensemble == "GOE":
        out = 1.0 - np.exp(-0.25 * math.pi * s**2)
    elif ensemble == "GUE":
        out = erf(2.0 * s / math.sqrt(math.pi)) - (4.0 * s / math.pi) * np.exp(
            -4.0 * s**2 / math.pi
        )
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    return out if out.ndim else float(out)


def _c_factor(xi: float) -> float:
    return math.sqrt(math.pi * (2.0 + xi**2) / 4.0) * (
        1.0
        - (2.0 / math.pi)
        * (math.atan(xi / math.sqrt(2.0)) - math.sqrt(2.0) * xi / (2.0 + xi**2))
    )


def transition_pdf(s, xi: float):
    """Spacing density interpolating GOE (xi = 0) to GUE (xi -> infinity).

    P(s, xi) = sqrt((2 + xi^2)/2) s c^2 erf(s c / xi) exp(-s^2 c^2 / 2)
    with c(xi) = sqrt(pi (2 + xi^2)/4) {1 - (2/pi)[atan(xi/sqrt(2))
    - sqrt(2) xi / (2 + xi^2)]}.  At xi = 0 the erf factor is taken at its
    limit value 1, which reduces the density to the GOE surmise.
    """
    if xi < 0.0:
        raise ValueError(f"xi must be non-negative, got {xi}")
    s = np.asarray(s, dtype=float)
    c = _c_factor(xi)
    body = math.sqrt((2.0 + xi**2) / 2.0) * s * c**2 * np.exp(-0.5 * (s * c) ** 2)
    if xi == 0.0:
        out = body
    else:
        out = body * erf(s * c / xi)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TransitionFitResult:
    xi: float
    xi_uncertainty: float
    goodness: float  # residual sum of squares per degree of freedom

    def __post_init__(self):
        if self.xi < 0.0:
            raise ValueError("fitted xi must be non-negative")


# Smallest spacing sample fit_xi accepts; campaign emission overlays
# xi = 1 on a smaller pooled sample instead of fitting.
MIN_FIT_SPACINGS = 200


def fit_xi(
    sample: SpacingSample, bin_width: float = 0.1, s_max: float = 4.0
) -> TransitionFitResult:
    """Least-squares fit of the transition density to a binned sample.

    The sample is binned here, zero-count bins included.  A first
    unweighted pass seeds Poisson weights estimated from the fitted model,
    and a second weighted pass gives a near-efficient estimate.  The
    uncertainty comes from the curvature of the weighted objective at the
    optimum.
    """
    n_samples = sample.spacings.size
    if n_samples < MIN_FIT_SPACINGS:
        raise ValueError(f"need at least {MIN_FIT_SPACINGS} spacings, got {n_samples}")
    centers, density = spacing_histogram(sample, bin_width, s_max)
    first = least_squares(
        lambda p: transition_pdf(centers, p[0]) - density, x0=[1.0], bounds=([0.0], [np.inf])
    )
    if not first.success:
        raise RuntimeError(
            f"xi fit did not converge: {first.message}; final cost {first.cost!r}"
        )
    model = np.maximum(transition_pdf(centers, float(first.x[0])), 1e-3)
    sigma = np.sqrt(model / (n_samples * bin_width))
    result = least_squares(
        lambda p: (transition_pdf(centers, p[0]) - density) / sigma,
        x0=first.x,
        bounds=([0.0], [np.inf]),
    )
    if not result.success:
        raise RuntimeError(
            f"xi fit did not converge: {result.message}; final cost {result.cost!r}"
        )
    xi = float(result.x[0])
    rss = 2.0 * result.cost
    dof = max(centers.size - 1, 1)
    jtj = float((result.jac.T @ result.jac).item())
    if jtj > 0.0:
        uncertainty = math.sqrt((rss / dof) / jtj)
    else:
        uncertainty = math.inf
    return TransitionFitResult(xi=xi, xi_uncertainty=uncertainty, goodness=rss / dof)


def ks_distance(sample: SpacingSample, ensemble: str) -> float:
    """Kolmogorov-Smirnov distance between the sample and a surmise CDF."""
    s = sample.spacings
    if s.size == 0:
        raise ValueError("empty sample")
    f = np.asarray(wigner_cdf(s, ensemble))
    i = np.arange(1, s.size + 1)
    return float(max(np.max(i / s.size - f), np.max(f - (i - 1) / s.size)))


# ---------------------------------------------------------------------------
# reference sampling (inverse transform from the closed-form densities)
# ---------------------------------------------------------------------------


def _inverse_transform(pdf_values: np.ndarray, grid: np.ndarray, n: int, rng) -> np.ndarray:
    cdf = cumulative_trapezoid(pdf_values, grid, initial=0.0)
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, grid)


def sample_wigner(ensemble: str, n: int, rng) -> np.ndarray:
    if ensemble == "GOE":
        u = rng.random(n)
        return np.sqrt(-4.0 * np.log1p(-u) / math.pi)
    grid = np.linspace(0.0, 10.0, 20001)
    return _inverse_transform(np.asarray(wigner_pdf(grid, ensemble)), grid, n, rng)


def sample_transition(xi: float, n: int, rng) -> np.ndarray:
    grid = np.linspace(0.0, 10.0, 20001)
    return _inverse_transform(np.asarray(transition_pdf(grid, xi)), grid, n, rng)
