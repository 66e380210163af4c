"""Trace-driven simulation and analysis of reduced-retention STTRAM caches.

Simulates set-associative write-back cache units whose blocks expire under
a per-block retention counter, composes them into single- or multicore
hierarchies, and provides the analyses built on top: workload
characterization, retention sweeps against an SRAM baseline, sampled
retention specialization, and asymmetric-retention thread assignment.
"""

__version__ = "0.1.0"

from .cache import (
    AccessOutcome,
    BlockState,
    CacheUnit,
    CacheUnitConfig,
    EvictionCause,
    ExpiredBlock,
    MissClass,
    Technology,
    tick_cycles,
)
from .characterize import (
    ExpirationCurvePoint,
    LifetimeHistogram,
    PersistenceReport,
    RwRatioReport,
    block_lifetimes,
    expiration_curve,
    persistence,
    read_write_ratio,
)
from .config import ExperimentConfig, load_experiment_config
from .energy import (
    EnergyBreakdown,
    TechParams,
    TechTable,
    load_tech_table,
    sample_tech_table,
    unit_energy,
)
from .errors import ConfigError, SttsimError, TraceParseError, TraceRecordsError, TraceValidationError
from .explore import (
    AssignmentResult,
    Objective,
    SpecializeResult,
    SweepResult,
    assign_asymmetric,
    specialize,
    sweep,
)
from .hierarchy import HierarchyConfig, SimReport, UnitStats, simulate, time_to_seconds
from .trace import (
    AccessKind,
    AccessRecord,
    ConstantGap,
    LogUniformGap,
    SequentialLoop,
    SyntheticTraceSpec,
    Trace,
    UniformRandom,
    Zipf,
    generate_trace,
    read_trace,
    write_trace,
)

__all__ = [
    "AccessKind",
    "AccessOutcome",
    "AccessRecord",
    "AssignmentResult",
    "BlockState",
    "CacheUnit",
    "CacheUnitConfig",
    "ConfigError",
    "ConstantGap",
    "EnergyBreakdown",
    "EvictionCause",
    "ExperimentConfig",
    "ExpirationCurvePoint",
    "ExpiredBlock",
    "HierarchyConfig",
    "LifetimeHistogram",
    "LogUniformGap",
    "MissClass",
    "Objective",
    "PersistenceReport",
    "RwRatioReport",
    "SequentialLoop",
    "SimReport",
    "SpecializeResult",
    "SttsimError",
    "SweepResult",
    "SyntheticTraceSpec",
    "TechParams",
    "TechTable",
    "Technology",
    "Trace",
    "TraceParseError",
    "TraceRecordsError",
    "TraceValidationError",
    "UniformRandom",
    "UnitStats",
    "Zipf",
    "assign_asymmetric",
    "block_lifetimes",
    "expiration_curve",
    "generate_trace",
    "load_experiment_config",
    "load_tech_table",
    "persistence",
    "read_trace",
    "read_write_ratio",
    "sample_tech_table",
    "simulate",
    "specialize",
    "sweep",
    "tick_cycles",
    "time_to_seconds",
    "unit_energy",
    "write_trace",
]
