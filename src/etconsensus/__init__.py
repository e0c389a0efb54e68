"""Event-triggered communication and control for multi-agent average consensus.

Simulation library and experiment runner covering: graph spectral analysis,
six trigger laws (network-wide norm, exact-state decentralized,
time-threshold, broadcast state-dependent, its weighted directed form, and a
periodically evaluated variant), event-located closed-loop simulation, and a
single-plant event-triggered toolkit with a certified inter-event floor.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatch,
    EtConsensusError,
    InsufficientDecay,
    InvalidParameter,
    IsolatedAgent,
    NoRootFound,
    NotBalanced,
    NotConnected,
    NotHurwitz,
    NotSPD,
    ZenoAbort,
)
from .graph import (
    SpectralInfo,
    WeightedDigraph,
    is_strongly_connected,
    is_weight_balanced,
    laplacian,
    load_graph,
    parse_graph,
    random_balanced_digraph,
    random_connected_undirected,
    spectral_info,
    validate_graph,
)
from .triggers import (
    AgentView,
    CentralizedNorm,
    DecentralizedState,
    DirectedStateDependent,
    PeriodicStateDependent,
    StateDependent,
    TimeDependent,
    TriggerLaw,
    eval_centralized,
    eval_decentralized_state,
    eval_directed_state_dependent,
    eval_state_dependent,
    eval_time_dependent,
    max_admissible_period,
    per_agent_sigmas,
    validate_law,
)
from .engine import (
    ALL_AGENTS,
    EventRecord,
    SimConfig,
    Trace,
    convergence_radius_time_trigger,
    events_to_csv,
    min_inter_event_bound_centralized,
    sim_config,
    simulate_ideal,
    simulate_triggered,
    trace_to_csv,
)
from .metrics import (
    RunMetrics,
    compute_run_metrics,
    disagreement,
    fit_decay_rate,
    inter_event_stats,
    lyapunov_edge,
    metrics_csv_header,
    metrics_csv_row,
    metrics_kv_block,
)
from .linear_et import (
    LinearEtSystem,
    LyapunovData,
    SampleHoldTrace,
    default_t_max,
    design,
    gap_matrix,
    matrix_exponential,
    min_inter_event_time,
    next_event_time,
    simulate_sample_hold,
    solve_lyapunov,
    trigger_gap,
)
from .config import (
    ExperimentConfig,
    LinearEtConfig,
    Xorshift64Star,
    load_config,
    load_linear_et_config,
    random_x0,
)
