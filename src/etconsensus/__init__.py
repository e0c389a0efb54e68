"""Event-triggered communication and control for multi-agent average consensus.

Simulation library and experiment runner covering: graph spectral analysis,
six trigger laws (network-wide norm, exact-state decentralized,
time-threshold, broadcast state-dependent, its weighted directed form, and a
periodically evaluated variant), event-located closed-loop simulation, and a
single-plant event-triggered toolkit with a certified inter-event floor.

Importing the package loads none of its modules: each exported name is
resolved from its module on first access (PEP 562), so a program loads only
the modules it uses. A name is looked up on every access, never cached here,
so it is always the object its module holds.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "ConfigError", "DimensionMismatch", "EtConsensusError", "InsufficientDecay",
        "InvalidParameter", "IsolatedAgent", "NoRootFound", "NotBalanced",
        "NotConnected", "NotHurwitz", "NotSPD", "ZenoAbort",
    ), "errors"),
    **dict.fromkeys((
        "SpectralInfo", "WeightedDigraph", "is_strongly_connected", "is_weight_balanced",
        "laplacian", "load_graph", "parse_graph", "random_balanced_digraph",
        "random_connected_undirected", "spectral_info", "validate_graph",
    ), "graph"),
    **dict.fromkeys((
        "AgentView", "CentralizedNorm", "DecentralizedState", "DirectedStateDependent",
        "PeriodicStateDependent", "StateDependent", "TimeDependent", "TriggerLaw",
        "eval_centralized", "eval_decentralized_state", "eval_directed_state_dependent",
        "eval_state_dependent", "eval_time_dependent", "max_admissible_period",
        "per_agent_sigmas", "validate_law",
    ), "triggers"),
    **dict.fromkeys((
        "ALL_AGENTS", "EventRecord", "SimConfig", "Trace",
        "convergence_radius_time_trigger", "events_to_csv",
        "min_inter_event_bound_centralized", "sim_config", "simulate_ideal",
        "simulate_triggered", "trace_to_csv",
    ), "engine"),
    **dict.fromkeys((
        "RunMetrics", "compute_run_metrics", "disagreement", "fit_decay_rate",
        "inter_event_stats", "lyapunov_edge", "metrics_csv_header", "metrics_csv_row",
        "metrics_kv_block",
    ), "metrics"),
    **dict.fromkeys((
        "LinearEtSystem", "LyapunovData", "SampleHoldTrace", "default_t_max", "design",
        "gap_matrix", "matrix_exponential", "min_inter_event_time", "next_event_time",
        "simulate_sample_hold", "solve_lyapunov", "trigger_gap",
    ), "linear_et"),
    **dict.fromkeys((
        "ExperimentConfig", "LinearEtConfig", "Xorshift64Star", "load_config",
        "load_linear_et_config", "random_x0",
    ), "config"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
