"""Entangled-photon source toolkit.

Photon-number statistics of a squeezed-plus-coherent input split on a
balanced beam splitter, the 1D photonic-crystal band structure that slows
the pump to build the squeezing, the SI parameter chain from pump power to
squeeze magnitude, and a Monte Carlo BB84 session with a beam-splitting
eavesdropper.
"""

from .bands import (
    BandStructure,
    CrystalSpec,
    TuningReport,
    band_frequencies,
    dispersion_residual,
    sample_bands,
    scan_bands,
    solve_band,
    tune_to_group_velocity,
)
from .bb84 import (
    AttackModel,
    SessionReport,
    Verdict,
    detect_attack,
    sample_cells,
    simulate_session,
)
from .config import RunConfig, config_from_tree, load_config
from .errors import (
    ConfigError,
    DegeneratePointError,
    EmptySessionError,
    InsufficientScanError,
    NoHeraldError,
    PcbsError,
    TruncationError,
    UnachievableTargetError,
    UndefinedCdfError,
)
from .fock import (
    SqueezedInput,
    TruncationPolicy,
    box_probability,
    output_amplitudes,
    squeeze_matrix,
    suggest_n_max,
)
from .oracle import oracle_state
from .source import (
    CODATA,
    PhysicalConstants,
    PumpSpec,
    amplitude_for_target_squeeze,
    flux_to_amplitude,
    photon_number,
    pulse_volume,
    squeeze_parameter,
)
from .stats import (
    HeraldedStats,
    SweepPoint,
    ThresholdProbs,
    herald_marginal,
    heralded_stats,
    joint_distribution,
    locate_maximum,
    sweep_r,
    threshold_probs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fock
    "SqueezedInput", "TruncationPolicy", "squeeze_matrix", "output_amplitudes",
    "box_probability", "suggest_n_max", "oracle_state",
    # stats
    "HeraldedStats", "ThresholdProbs", "SweepPoint", "joint_distribution",
    "herald_marginal", "heralded_stats", "threshold_probs", "sweep_r", "locate_maximum",
    # bands
    "CrystalSpec", "BandStructure", "TuningReport", "dispersion_residual", "scan_bands",
    "band_frequencies", "sample_bands", "solve_band", "tune_to_group_velocity",
    # source
    "PhysicalConstants", "CODATA", "PumpSpec", "squeeze_parameter",
    "amplitude_for_target_squeeze", "flux_to_amplitude", "pulse_volume",
    "photon_number",
    # bb84
    "AttackModel", "Verdict", "SessionReport", "sample_cells",
    "simulate_session", "detect_attack",
    # config
    "RunConfig", "load_config", "config_from_tree",
    # errors
    "PcbsError", "TruncationError", "NoHeraldError",
    "InsufficientScanError", "DegeneratePointError", "UnachievableTargetError",
    "EmptySessionError", "ConfigError", "UndefinedCdfError",
]
