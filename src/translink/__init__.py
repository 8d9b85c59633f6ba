"""Heralded optical entanglement links between quantum processor modules.

Analytics for the four heralding protocols, on-demand delivery with storage
decay and timeout fallback, entanglement distillation, a seeded Monte Carlo
verifier, and architecture-level resource planning, wrapped in a JSON-driven
CLI (`translink`).
"""

from .config_io import (
    ParsedConfig,
    RunManifest,
    TOOL_VERSION,
    build_manifest,
    emit_csv,
    emit_json,
    format_float,
    parse_config,
    parse_config_data,
    resolved_config,
)
from .delivery import (
    DeliveryCurve,
    Link,
    delivered_fidelity,
    delivery_curve,
    delivery_point,
    infidelity_breakdown,
    infidelity_breakdown_curve,
    min_time_to_fidelity,
    optimal_delivery_time,
    resolve,
)
from .distillation import (
    BellDiagonalState,
    DistillMode,
    DistillationOutcome,
    NestedDistillResult,
    calibrated_distill,
    nested_distill,
    recurrence_ladder,
    recurrence_round,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DivisionDomainError,
    ModelDomainError,
    NoOptimumError,
    PresetNotFoundError,
    SchemaError,
    TranslinkError,
    UnattainableError,
)
from .mcsim import (
    MAX_TRIAL_DUMP,
    MAX_TRIALS,
    MCStats,
    TrialColumns,
    run_trials,
)
from .params import (
    DEVICE_PRESETS,
    QUBIT_PRESETS,
    TRANSDUCER_PRESETS,
    DeliveryPolicy,
    DeviceSummary,
    FidelityModel,
    LinkConfig,
    LinkMetrics,
    MAX_TRANSDUCERS_PER_MODULE,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    StorageQubitParams,
    TransducerParams,
    preset,
    validate,
)
from .planner import (
    Architecture,
    ArchitectureSpec,
    CircuitCutComparison,
    CryostatCheck,
    GAMMA_CLASSICAL,
    LATTICE_SURGERY_LINK_ERROR_THRESHOLD,
    MAX_TRANSDUCER_BUDGET,
    PlanReport,
    TradeoffPoint,
    circuit_cut_comparison,
    cryostat_budget_check,
    edge_qubit_count,
    graph_state_pipe_width,
    lattice_surgery_plan,
    tradeoff_surface,
    validate_architecture,
)
from .protocols import (
    ProtocolAnalytics,
    analyze_protocol,
    herald_probability,
    herald_probability_with_memory,
    heralded_fidelity,
    protocol_infidelity,
    thermal_infidelity,
)

__version__ = TOOL_VERSION
