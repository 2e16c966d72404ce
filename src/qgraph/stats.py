"""Spectral statistics: counting functions, interlacing, spacings.

Everything here is a pure function of immutable spectra.  Unfolding uses
the exact mean density L/pi of a metric graph (no polynomial fit), so an
unfolded spacing is s_i = (k_{i+1} - k_i) L / pi.

Only numpy is needed.  The error function is a Cephes rational
approximation, and fit_xi, the one-parameter fit of the GOE-GUE
transition density, takes the global minimum over a grid of xi in
[0, 100] and refines it; xi = 100 is the GUE limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import Spectrum, _merge_close

__all__ = [
    "ShiftDistribution",
    "SpacingSample",
    "TransitionFitResult",
    "MissingLevelReport",
    "weyl_count",
    "window_levels",
    "shift_distribution",
    "pool_shift_distributions",
    "interlacing_degree",
    "detect_missing_resonances",
    "unfold_spacings",
    "pool_spacings",
    "spacing_histogram",
    "erf",
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


def window_levels(spectrum: Spectrum) -> np.ndarray:
    """The levels in the window (k_lo, k_hi], repeated by multiplicity.

    Its `np.searchsorted(..., side="right")` is the right-continuous
    counting function N(k) of the window, as the spectral shift uses it.
    """
    k_lo, k_hi = spectrum.window
    ks = spectrum.expanded()
    return ks[(ks > k_lo) & (ks <= k_hi)]


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


def _shift_steps(before: Spectrum, after: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The spectral shift Delta N = N - N_tilde as a staircase over the window.

    `edges` is k_lo, every level of either side in (k_lo, k_hi], then k_hi;
    dn[j] is Delta N on [edges[j], edges[j+1]), each side counting its
    levels from the bottom of the spectrum: its `levels_below` plus its
    in-window levels up to edges[j].  A level on k_hi leaves one zero-width
    segment at the end, which carries Delta N(k_hi).
    """
    if before.window != after.window:
        raise ValueError(f"windows differ: {before.window} vs {after.window}")
    k_lo, k_hi = before.window
    a, b = window_levels(before), window_levels(after)
    merged = np.sort(np.concatenate((a, b)))
    first, _ = _merge_close(merged, np.ones(merged.size), 0.0)  # the distinct levels
    edges = np.concatenate(([k_lo], merged[first], [k_hi]))
    dn = np.searchsorted(a, edges[:-1], "right") - np.searchsorted(b, edges[:-1], "right")
    return edges, dn + (before.levels_below - after.levels_below)


def shift_distribution(before: Spectrum, after: Spectrum) -> ShiftDistribution:
    """Exact measure of each integer value of N(k) - N_tilde(k).

    The shift is piecewise constant with breakpoints at the merged level
    set; each integer's mass is the summed segment length divided by the
    window length (one normalization, no sampling grid).
    """
    edges, dn = _shift_steps(before, after)
    measures: dict[int, float] = {}
    for v, width in zip(dn.tolist(), np.diff(edges).tolist()):
        if width > 0.0:
            measures[v] = measures.get(v, 0.0) + width
    total = sum(measures.values())
    probs = {m: v / total for m, v in measures.items()}
    return ShiftDistribution(probabilities=probs, window=before.window)


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
        std_errors={m: float(e) for m, e in zip(support, err)},
    )


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def interlacing_degree(before: Spectrum, after: Spectrum) -> int:
    """Minimal r with nu_{n-r} <= nu~_n <= nu_{n+r}: the maximum |Delta N|.

    Two spectra are r-interlaced exactly when sup |N(k) - N_tilde(k)| <= r
    (Aizenman, Schanz, Smilansky & Warzel, Acta Phys. Pol. A 132, 1699
    (2017)), with both counting functions anchored at the bottom of the
    spectrum through `Spectrum.levels_below`, so a side with no level in
    the window has a degree too.  Identical spectra give r = 0.
    """
    return int(np.abs(_shift_steps(before, after)[1]).max())


@dataclass(frozen=True)
class MissingLevelReport:
    """Where and on which side a level is likely missing from a switch pair."""

    flagged: tuple[tuple[float, float, int], ...]  # (k_start, k_end, Delta N)
    suspect: str | None  # "before" / "after"
    estimated_k: float | None

    @property
    def clean(self) -> bool:
        return not self.flagged


def detect_missing_resonances(before: Spectrum, after: Spectrum) -> MissingLevelReport:
    """Flag window regions where |Delta N| >= 2 and localize the fault.

    A switch pair with complete spectra keeps |Delta N| <= 1.  A missing
    level adds a persistent unit step to the shift; the step location is
    estimated from the extremum of the integrated centered shift, and the
    step sign identifies which spectrum lost the level.
    """
    edges, dn = _shift_steps(before, after)
    widths = np.diff(edges)
    bad = (widths > 0.0) & (np.abs(dn) >= 2)
    if not bad.any():
        return MissingLevelReport(flagged=(), suspect=None, estimated_k=None)
    flagged = tuple(zip(edges[:-1][bad].tolist(), edges[1:][bad].tolist(), dn[bad].tolist()))

    def mean_shift(seg: slice) -> float:
        # np.cumsum adds in segment order, unlike np.sum's pairwise order
        num, den = np.cumsum(dn[seg] * widths[seg]), np.cumsum(widths[seg])
        return num[-1] / den[-1] if den.size and den[-1] > 0.0 else 0.0

    # integrated centered shift at each edge: piecewise linear, extremal at
    # the step; argmax keeps the first extremum
    centered = dn - np.cumsum(dn * widths)[-1] / (edges[-1] - edges[0])
    g = np.concatenate(([0.0], np.cumsum(centered * widths)))
    j = int(np.abs(g).argmax())
    best_k = float(edges[j])
    step = mean_shift(slice(j, None)) - mean_shift(slice(0, j))
    suspect = "after" if step > 0 else "before"
    return MissingLevelReport(flagged=flagged, suspect=suspect, estimated_k=best_k)


# ---------------------------------------------------------------------------
# unfolded spacings and reference densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacingSample:
    """Unfolded nearest-neighbor spacings, stored sorted."""

    spacings: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.spacings.setflags(write=False)
        if not np.all(np.isfinite(self.spacings) & (self.spacings > 0.0)):
            raise ValueError("spacings must be finite and positive")

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
    return SpacingSample(spacings=np.sort(s), source=source)


def pool_spacings(samples: list[SpacingSample], source: str = "pooled") -> SpacingSample:
    """All spacings of the samples in one sorted sample; empty when none."""
    parts = [s.spacings for s in samples]
    joined = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    return SpacingSample(spacings=joined, source=source)


# Spacing histogram bins: width BIN_WIDTH over [0, S_MAX].
BIN_WIDTH = 0.1
S_MAX = 4.0


def spacing_histogram(sample: SpacingSample) -> tuple[np.ndarray, np.ndarray]:
    """Bin centers and empirical density, normalized by the full sample size
    so tail mass beyond S_MAX correctly lowers the in-range bins."""
    edges = np.arange(0.0, S_MAX + 0.5 * BIN_WIDTH, BIN_WIDTH)
    counts, _ = np.histogram(sample.spacings, bins=edges)
    density = counts / (max(sample.spacings.size, 1) * BIN_WIDTH)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


# Cephes rational approximations (S. L. Moshier, ndtr.c), highest power
# first: erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and erfc(x) = exp(-x^2)
# P(x) / Q(x) for 1 < |x| < 6; erf(x) rounds to 1 for |x| >= 6.
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)


def _poly(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    acc = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
    return acc


def erf(x):
    """Error function, elementwise, within a few ulp of the C library's.

    nan stays nan and erf(+-inf) = +-1.
    """
    x = np.asarray(x, dtype=float)
    a = np.minimum(np.abs(x), 6.0)  # nan passes through to the erfc branch
    out = np.empty_like(a)
    small = a <= 1.0
    s = a[small]
    z = s * s
    out[small] = s * _poly(z, _ERF_T) / _poly(z, _ERF_U)
    b = a[~small]
    out[~small] = 1.0 - np.exp(-b * b) * _poly(b, _ERFC_P) / _poly(b, _ERFC_Q)
    out = np.copysign(out, x)
    return out if out.ndim else float(out)


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


def _transition(s: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """P(s, xi) broadcast over arrays s and xi >= 0 (see transition_pdf)."""
    c = np.sqrt(math.pi * (2.0 + xi**2) / 4.0) * (
        1.0
        - (2.0 / math.pi)
        * (np.arctan(xi / math.sqrt(2.0)) - math.sqrt(2.0) * xi / (2.0 + xi**2))
    )
    body = np.sqrt((2.0 + xi**2) / 2.0) * s * c**2 * np.exp(-0.5 * (s * c) ** 2)
    positive = xi > 0.0
    return body * np.where(positive, erf(s * c / np.where(positive, xi, 1.0)), 1.0)


def transition_pdf(s, xi: float):
    """Spacing density interpolating GOE (xi = 0) to GUE (xi -> infinity).

    P(s, xi) = sqrt((2 + xi^2)/2) s c^2 erf(s c / xi) exp(-s^2 c^2 / 2)
    with c(xi) = sqrt(pi (2 + xi^2)/4) {1 - (2/pi)[atan(xi/sqrt(2))
    - sqrt(2) xi / (2 + xi^2)]}.  At xi = 0 the erf factor is taken at its
    limit value 1, which reduces the density to the GOE surmise.
    """
    if xi < 0.0:
        raise ValueError(f"xi must be non-negative, got {xi}")
    out = _transition(np.asarray(s, dtype=float), xi)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TransitionFitResult:
    xi: float
    xi_uncertainty: float
    goodness: float  # residual sum of squares per degree of freedom

    def __post_init__(self):
        if self.xi < 0.0:
            raise ValueError("fitted xi must be non-negative")

    @property
    def identified(self) -> bool:
        """Whether the sample pins xi down: a finite uncertainty no wider
        than the searched range [0, XI_MAX]."""
        return math.isfinite(self.xi_uncertainty) and self.xi_uncertainty <= XI_MAX


# Smallest spacing sample fit_xi accepts; campaign emission overlays
# xi = 1 on a smaller pooled sample instead of fitting.
MIN_FIT_SPACINGS = 200

# fit_xi searches xi in [0, XI_MAX]; at XI_MAX the transition density is
# the GUE surmise to within 2e-2 (criterion 8).
XI_MAX = 100.0
_XI_GRID = np.concatenate(([0.0], np.geomspace(1e-3, XI_MAX, 161)))


def _residuals(centers, density, sigma, xi) -> np.ndarray:
    """Residuals of P(s, xi) against the histogram in units of sigma; one
    row per xi."""
    xi = np.asarray(xi, dtype=float)
    return (_transition(centers, xi[..., None]) - density) / sigma


def _minimize_xi(centers, density, sigma) -> float:
    """Global minimizer of the sum of squared residuals over [0, XI_MAX].

    The whole of _XI_GRID is evaluated in one call; the two cells around
    the best point are then refined by 33-point grids until they are
    narrower than 1e-8 xi + 1e-9.  A non-finite objective raises ValueError.
    """
    grid = _XI_GRID
    while True:
        cost = np.sum(_residuals(centers, density, sigma, grid) ** 2, axis=1)
        if not np.all(np.isfinite(cost)):
            raise ValueError("xi fit objective is not finite")
        i = int(np.argmin(cost))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        if hi - lo <= 1e-8 * hi + 1e-9:
            return float(grid[i])
        grid = np.linspace(lo, hi, 33)


def fit_xi(sample: SpacingSample) -> TransitionFitResult:
    """Least-squares fit of the transition density to a binned sample.

    The sample is binned here, zero-count bins included.  A first
    unweighted pass seeds Poisson weights estimated from the fitted model,
    and a second weighted pass gives a near-efficient estimate.  Each pass
    takes the global minimum of its sum of squares over xi in [0, XI_MAX]
    (the objective has several local minima): a grid of xi = 0 and 161
    log-spaced values from 1e-3 to XI_MAX, then finer grids around the best
    point.  The objective keeps falling slowly toward the GUE limit, so a
    GUE-like sample fits xi = XI_MAX, to within rounding.  The uncertainty
    comes from the curvature of the weighted objective at the optimum
    (Gauss-Newton, with a forward-difference derivative).
    """
    n_samples = sample.spacings.size
    if n_samples < MIN_FIT_SPACINGS:
        raise ValueError(f"need at least {MIN_FIT_SPACINGS} spacings, got {n_samples}")
    centers, density = spacing_histogram(sample)
    first = _minimize_xi(centers, density, 1.0)
    model = np.maximum(transition_pdf(centers, first), 1e-3)
    sigma = np.sqrt(model / (n_samples * BIN_WIDTH))
    xi = _minimize_xi(centers, density, sigma)
    r = _residuals(centers, density, sigma, xi)
    rss = float(np.sum(r**2))
    dof = max(centers.size - 1, 1)
    step = math.sqrt(np.finfo(float).eps) * max(1.0, xi)
    jac = (_residuals(centers, density, sigma, xi + step) - r) / step
    jtj = float(np.sum(jac**2))
    uncertainty = math.sqrt((rss / dof) / jtj) if jtj > 0.0 else math.inf
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
    # the trapezoid rule, summed in order
    cdf = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (pdf_values[1:] + pdf_values[:-1]) / 2.0))
    )
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
