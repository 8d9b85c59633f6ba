"""Heralded optical entanglement links between quantum processor modules.

Analytics for the four heralding protocols, on-demand delivery with storage
decay and timeout fallback, entanglement distillation, a seeded Monte Carlo
verifier, and architecture-level resource planning, wrapped in a JSON-driven
CLI (`translink`).

The package namespace is lazy (PEP 562): `import translink` loads no
submodule and no numpy; the first access to a public name imports the one
submodule that defines it.
"""

import importlib

# public name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "config_io": (
            "ParsedConfig", "RunManifest", "TOOL_VERSION", "build_manifest",
            "emit_csv", "emit_json", "parse_config", "parse_config_data",
            "resolved_config",
        ),
        "delivery": (
            "DeliveryCurve", "Link", "delivered_fidelity", "delivery_curve",
            "infidelity_breakdown", "infidelity_breakdown_curve",
            "min_time_to_fidelity", "optimal_delivery_time", "resolve",
        ),
        "distillation": (
            "BellDiagonalState", "DistillMode", "DistillationOutcome",
            "NestedDistillResult", "calibrated_distill", "nested_distill",
            "recurrence_ladder", "recurrence_round",
        ),
        "errors": (
            "ConfigError", "DegenerateInputError", "DivisionDomainError",
            "ModelDomainError", "NoOptimumError", "PresetNotFoundError",
            "SchemaError", "TranslinkError", "UnattainableError",
        ),
        "mcsim": (
            "MAX_TRIAL_DUMP", "MAX_TRIALS", "MCStats", "TrialColumns",
            "run_trials",
        ),
        "params": (
            "DEVICE_PRESETS", "QUBIT_PRESETS", "TRANSDUCER_PRESETS",
            "Architecture", "ArchitectureSpec", "DeliveryPolicy",
            "DeviceSummary", "FidelityModel", "LinkConfig", "LinkMetrics",
            "MAX_TRANSDUCER_BUDGET", "MAX_TRANSDUCERS_PER_MODULE", "MemoryKind",
            "MemoryParams", "PhotonBasis", "ProtocolSpec", "PumpMode",
            "StorageQubitParams", "TransducerParams", "preset", "validate",
            "validate_architecture",
        ),
        "planner": (
            "CircuitCutComparison", "CryostatCheck", "GAMMA_CLASSICAL",
            "LATTICE_SURGERY_LINK_ERROR_THRESHOLD", "PlanReport",
            "TradeoffPoint", "circuit_cut_comparison", "cryostat_budget_check",
            "edge_qubit_count", "graph_state_pipe_width",
            "lattice_surgery_plan", "tradeoff_surface",
        ),
        "protocols": (
            "ProtocolAnalytics", "analyze_protocol", "herald_probability",
            "herald_probability_with_memory", "heralded_fidelity",
            "protocol_infidelity", "thermal_infidelity",
        ),
    }.items()
    for name in names
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name == "__version__":
        name = "TOOL_VERSION"
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__, "__version__"})
