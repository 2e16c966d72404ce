"""Spectral statistics: counting functions, interlacing, spacings.

Everything here is a pure function of immutable spectra.  Unfolding uses
the exact mean density L/pi of a metric graph (no polynomial fit), so an
unfolded spacing is s_i = (k_{i+1} - k_i) L / pi.

Only numpy is needed.  The error function is the C library's `math.erf`
mapped over arrays, and fit_xi, the one-parameter fit of the GOE-GUE
transition density, takes the global minimum over a grid of xi in
[0, 100] and refines it; xi = 100 is the GUE limit.
"""

from __future__ import annotations

import functools
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
    """Probability of each integer shift Delta N = N - N_tilde.

    For one pair the masses are exact Lebesgue measures of the
    piecewise-constant shift divided by the window length; pooled, they are
    the plain mean over pairs with per-shift standard errors.  Support is
    kept exactly as observed.
    """

    probabilities: dict[int, float]
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


def _shift_steps(
    before: Spectrum, after: Spectrum
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The spectral shift Delta N = N - N_tilde as a staircase over the window.

    `ks` is k_lo, every distinct level of either side in (k_lo, k_hi], then
    k_hi unless it is a level itself.  (n_before, n_after) count each side's
    in-window levels up to ks[j], zero at k_lo; dn[j] = Delta N(ks[j]), each
    side counting from the bottom of the spectrum by adding its
    `levels_below`.  Delta N holds dn[j] on [ks[j], ks[j+1]), and dn[-1] is
    its value at k_hi.
    """
    if before.window != after.window:
        raise ValueError(f"windows differ: {before.window} vs {after.window}")
    k_lo, k_hi = before.window
    a, b = window_levels(before), window_levels(after)
    merged = np.sort(np.concatenate((a, b, [k_hi])))
    first, _ = _merge_close(merged, np.ones(merged.size), 0.0)  # the distinct levels
    ks = np.concatenate(([k_lo], merged[first]))
    n_before, n_after = np.searchsorted(a, ks, "right"), np.searchsorted(b, ks, "right")
    dn = n_before - n_after + (before.levels_below - after.levels_below)
    return ks, dn, (n_before, n_after)


def shift_distribution(before: Spectrum, after: Spectrum) -> ShiftDistribution:
    """Exact measure of each integer value of N(k) - N_tilde(k).

    The shift is piecewise constant with breakpoints at the merged level
    set; each integer's mass is the summed segment length divided by the
    window length (one normalization, no sampling grid).
    """
    ks, dn, _ = _shift_steps(before, after)
    measures: dict[int, float] = {}
    for v, width in zip(dn[:-1].tolist(), np.diff(ks).tolist()):
        measures[v] = measures.get(v, 0.0) + width
    total = sum(measures.values())
    probs = {m: v / total for m, v in measures.items()}
    return ShiftDistribution(probabilities=probs)


def pool_shift_distributions(dists: list[ShiftDistribution]) -> ShiftDistribution:
    """The mean of the per-pair probabilities, with per-shift standard errors.

    Every pair counts once, as its error bar assumes: the standard
    deviation of the per-pair probabilities divided by sqrt(pair count).
    """
    if not dists:
        raise ValueError("nothing to pool")
    support = sorted({m for d in dists for m in d.probabilities})
    table = np.array([[d.probability(m) for m in support] for d in dists])
    n = len(dists)
    if n > 1:
        err = table.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        err = np.zeros(len(support))
    return ShiftDistribution(
        probabilities={m: float(p) for m, p in zip(support, table.mean(axis=0))},
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

    The degree is no completeness check: a level lost near the top of the
    window shifts Delta N by one only over the short stretch above it,
    where the pair's own shift may never lean the same way, so |Delta N|
    stays at most 1.  Dropping level 34 or 35 of 35 from goe_a's switched
    side (pivot 0, edges 3 and 5, 0.01-2.5 GHz) leaves degree 1.
    `Spectrum.status` is the completeness verdict.
    """
    return int(np.abs(_shift_steps(before, after)[1]).max())


@dataclass(frozen=True)
class MissingLevelReport:
    """The stretches of a switch pair where |Delta N| >= 2."""

    flagged: tuple[tuple[float, float, int], ...]  # (k_start, k_end, Delta N)

    @property
    def clean(self) -> bool:
        return not self.flagged

    @property
    def suspect(self) -> str | None:
        """The side the first flagged stretch shows short of levels: "after"
        where Delta N = N - N_tilde > 0, "before" where it is < 0, None when
        nothing is flagged."""
        if not self.flagged:
            return None
        return "after" if self.flagged[0][2] > 0 else "before"


def detect_missing_resonances(before: Spectrum, after: Spectrum) -> MissingLevelReport:
    """The stretches [k_start, k_end) of the window where |Delta N| >= 2.

    Complete switch pairs are level-1 interlaced, sup |Delta N| <= 1, so a
    flagged stretch is exact proof that a side is short of levels, and the
    sign of Delta N there names that side.  A lost level moves Delta N only
    from its own k upwards, so every flagged stretch starts at or above the
    lowest lost level.  A clean report proves nothing: a lost level pushes
    |Delta N| to 2 only where the pair's own shift already leans the same
    way, which a level lost near the top of the window may never reach
    (goe_a's switched side with level 34 or 35 of 35 dropped gives a clean
    report).  Where the graph is known, `Spectrum.status` is the
    completeness verdict.
    """
    ks, dn, _ = _shift_steps(before, after)
    dn = dn[:-1]  # dn[j] holds on [ks[j], ks[j+1])
    bad = np.abs(dn) >= 2
    return MissingLevelReport(
        flagged=tuple(zip(ks[:-1][bad].tolist(), ks[1:][bad].tolist(), dn[bad].tolist()))
    )


# ---------------------------------------------------------------------------
# unfolded spacings and reference densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacingSample:
    """Unfolded nearest-neighbor spacings, stored sorted."""

    spacings: np.ndarray
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "spacings", np.sort(self.spacings))
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
    return SpacingSample(spacings=s, source=source)


def pool_spacings(samples: list[SpacingSample], source: str = "pooled") -> SpacingSample:
    """All spacings of the samples in one sorted sample; empty when none."""
    parts = [s.spacings for s in samples]
    joined = np.concatenate(parts) if parts else np.empty(0)
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


def erf(x):
    """Error function, elementwise: the C library's `math.erf` mapped over
    the array, so nan stays nan and erf(+-inf) = +-1."""
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)
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
# reference sampling (inverse transform from the transition density)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _inverse_cdf(density, parameter) -> tuple[np.ndarray, np.ndarray]:
    """The inverse-transform table of `sample_transition`: the 20001-point
    grid on [0, 10] and the CDF there of density(s, parameter) by the
    trapezoid rule, summed in order; both read-only."""
    grid = np.linspace(0.0, 10.0, 20001)
    values = density(grid, parameter)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (values[1:] + values[:-1]) / 2.0)))
    cdf /= cdf[-1]
    grid.flags.writeable = cdf.flags.writeable = False
    return grid, cdf


def sample_transition(xi: float, n: int, rng) -> np.ndarray:
    """n spacings drawn from `transition_pdf` at xi, interpolating the
    inverse of its tabulated CDF (`_inverse_cdf`, built once per xi)."""
    grid, cdf = _inverse_cdf(transition_pdf, xi)
    return np.interp(rng.random(n), cdf, grid)
