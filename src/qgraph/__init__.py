"""Metric-graph spectra under the edge switch transformation.

Solver for the bond-scattering secular equation with optional magnetic
phases, interlacing and spectral-shift statistics, random-matrix spacing
references, and ensemble campaign tooling.
"""

from .graphs import (
    Edge,
    MetricGraph,
    SwitchDescriptor,
    edge_switch,
    load_graph,
    negate_phases,
    save_graph,
    transfer_length,
    validate,
)
from .solver import (
    SolverConfig,
    Spectrum,
    bond_matrix,
    drop_levels,
    fd_oracle_spectrum,
    secular_residual,
    solve_spectrum,
    spectrum_under_phase_reversal,
)
from .stats import (
    ShiftDistribution,
    SpacingSample,
    TransitionFitResult,
    detect_missing_resonances,
    fit_xi,
    fluctuating_count,
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
    SweepSpec,
    generate_configurations,
    randomized_ensemble,
    run_campaign,
    sweep_plan,
)
from .presets import preset, preset_names

__version__ = "0.1.0"
