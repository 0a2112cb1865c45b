"""Pulsed QND entanglement between a nanomechanical oscillator and an atomic
spin ensemble over a light bus: Gaussian-state simulation, an independent
moment-propagation oracle, decoherence corrections, verification readout,
teleportation, and hardware feasibility planning.
"""

__version__ = "0.1.0"

from .gaussian import (
    EPRReport,
    GaussianState,
    InvalidChannelError,
    InvalidStateError,
    MeasurementRecord,
    ModeKind,
    ModeLabel,
    Provenance,
    apply_linear_map,
    atomic_mode,
    condition_on_homodyne,
    displace,
    epr_variance,
    light_mode,
    loss_channel,
    make_state,
    mechanical_mode,
    partial_trace,
    tensor,
    vacuum_state,
)
from .iomaps import (
    COS_MODE,
    SIN_MODE,
    MatchingError,
    ProtocolParams,
    PulseOutput,
    condition_on_readout,
    qnd_bigstep,
)
from .oracle import DriftNoiseModel, build_model, oracle_epr_after_measurement, propagate_moments
from .decoherence import (
    LossBudget,
    apply_budget,
    damping_penalty,
    mismatch_excess,
    mismatch_penalty,
    photon_loss_map,
)
from .protocols import (
    FeedbackConfig,
    FeedbackMode,
    TeleportConfig,
    feedback_ensemble_state,
    gaussian_overlap_fidelity,
    optimal_gain,
    predict_epr_variance,
    predicted_report,
    run_epr_generation,
    teleport,
    verify_epr,
)
from .planner import (
    AtomSpec,
    CavitySpec,
    CoherenceBudget,
    FeasibilityReport,
    MechanicalSpec,
    PhysicalSetup,
    coherence_budget,
    derive_params,
    membrane_setup,
    micromirror_setup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
