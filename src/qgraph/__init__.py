"""Metric-graph spectra under the edge switch transformation.

Solver for the bond-scattering secular equation with optional magnetic
phases, interlacing and spectral-shift statistics, random-matrix spacing
references, and ensemble campaign tooling.
"""

from .graphs import (
    Edge,
    MetricGraph,
    SweepSpec,
    SwitchDescriptor,
    edge_switch,
    generate_configurations,
    load_graph,
    negate_phases,
    save_graph,
    transfer_length,
    validate,
)
from .solver import Spectrum, drop_levels, solve_spectrum
from .stats import (
    ShiftDistribution,
    SpacingSample,
    TransitionFitResult,
    detect_missing_resonances,
    fit_xi,
    interlacing_degree,
    ks_distance,
    shift_distribution,
    transition_pdf,
    unfold_spacings,
    weyl_count,
    wigner_pdf,
)
from .ensemble import (
    CampaignPlan,
    CampaignResult,
    plan_from_manifest,
    run_campaign,
)
from .presets import preset, preset_names

__version__ = "0.1.0"
