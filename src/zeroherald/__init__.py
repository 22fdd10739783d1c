"""Simulator and analysis toolkit for heralding on zero photons.

A pulsed photon-pair source feeding two click detectors can use the
*absence* of a click, announced by a reference clock, as a heralding
signal for vacuum. This package provides the closed-form probability
model for that scheme, a Monte Carlo engine that writes realistic
time-tag streams (dead time, dark counts, afterpulsing, jitter), the
tag-file formats, the post-processing pipeline (pulse reconstruction,
virtual gating, per-pulse event tables), and the analysis layer
(rates, Gaussian fits, center-to-wings ratios, visibility, efficiency
extraction).
"""

from .errors import (
    CapacityError,
    ClockGlitchError,
    ConfigError,
    DegenerateInputError,
    EmptyTableError,
    FitConvergenceError,
    FormatError,
    HeraldUndefinedError,
    InsufficientReferenceError,
    IntegrityError,
    NoSolutionError,
    NumericalError,
    OutputError,
    ValidationError,
    WrongShapeError,
    ZeroHeraldError,
)
from .model import (
    DetectorParams,
    IndistinguishabilityProfile,
    OutputDistribution,
    SourceParams,
    curve_grid,
    cwr_approx,
    heralded_fidelity,
    invert_cwr_for_eta1,
    invert_cwr_for_eta2_unheralded,
    output_distribution,
    p_c2_given_nc1_approx,
    p_c2_given_nc1_exact,
    p_click_single,
    p_coincidence,
    p_noclick_given_n,
    success_probability,
    write_curve_csv,
)
from .tags import Channel, TagStream, read_tags, read_tags_csv, write_tags, write_tags_csv
from .pipeline import (
    GateResult,
    PulseEventTable,
    PulseGrid,
    apply_dead_time,
    build_event_table,
    reconstruct_pulse_train,
    table_from_stream,
    virtual_gate,
)
from .sim import SimConfig, SimResult, SimTruth, run_simulation, scan_delays
from .analysis import (
    FitResult,
    ModelComparison,
    RateSummary,
    compare_to_model,
    compute_rates,
    estimate_efficiencies,
    gaussian_fit,
    scan_fit,
    scan_rates,
    series_points,
    visibility,
    write_fits_jsonl,
    write_rate_csv,
)
from .config import build_sim_config, config_dict, load_config, parse_config_text

__version__ = "0.1.0"
