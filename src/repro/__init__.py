"""repro — microarchitecture-level GPU reliability comparison.

A full-stack Python reproduction of Vallero, Di Carlo, Tselonis and
Gizopoulos, "Microarchitecture Level Reliability Comparison of Modern
GPU Designs: First Findings" (ISPASS 2017): two GPU microarchitectural
simulators (SASS-level NVIDIA SMs and Southern-Islands AMD CUs), a
ten-benchmark cross-vendor suite, statistical fault injection, ACE
lifetime analysis, occupancy measurement and the EPF combined metric.

Quickstart — campaigns are described by one declarative, serializable
:class:`~repro.spec.CampaignSpec`::

    from repro import CampaignSpec, run_cell

    spec = CampaignSpec(gpus=("gtx480",), workloads=("matrixMul",),
                        scale="small", samples=200)
    cell = run_cell(spec)
    print(cell.avf_fi("register_file"), cell.avf_ace("register_file"))
    print(cell.epf.epf)

    spec.to_file("campaign.toml")       # repro-experiments run campaign.toml
    children = spec.sweep(fault_model=["transient", "stuck_at"],
                          seed=range(3))   # one spec, many axes
"""

from repro.arch import (
    GPU_PRESETS,
    GpuConfig,
    LatencyModel,
    SCALED_GPU_PRESETS,
    get_gpu,
    get_scaled_gpu,
    list_gpus,
    list_scaled_gpus,
)
from repro.arch.structures import (
    ALL_STRUCTURES,
    CONTROL_STRUCTURES,
    DATAPATH_STRUCTURES,
    PREDICATE_FILE,
    SCHEDULER_STATE,
    SIMT_STACK,
    STRUCTURE_REGISTRY,
    structure_exposed,
)
from repro.checkpoint import (
    CheckpointRecorder,
    SnapshotSet,
    capture_snapshots,
)
from repro.engine import (
    CampaignResult,
    CampaignService,
    CampaignStats,
    CampaignWorker,
    CoordinatorUnreachable,
    ExecutionBackend,
    RemoteBackend,
    ResultStore,
    run_campaign,
)
from repro.engine.matrix import cell_fingerprints
from repro.errors import (
    AssemblyError,
    ConfigError,
    LaunchError,
    MemoryFault,
    ReproError,
    SimFault,
    WatchdogTimeout,
)
from repro.experiments.figures import run_figure
from repro.faultmodels import (
    FAULT_MODELS,
    FaultModel,
    MultiBitUpset,
    StuckAt,
    TransientBitFlip,
    get_fault_model,
    list_fault_models,
)
from repro.kernels import (
    KERNEL_NAMES,
    RunResult,
    Workload,
    get_workload,
    list_workloads,
    run_workload,
    verify_against_reference,
)
from repro.reliability import (
    AceMode,
    AvfEstimate,
    CellResult,
    EpfResult,
    Outcome,
    RAW_FIT_PER_BIT,
    compute_epf,
    margin_of_error,
    required_samples,
    run_cell,
    run_golden,
)
from repro.reliability.report import (
    format_ace_vs_fi,
    format_avf_figure,
    format_control_avf,
    format_epf_figure,
    format_model_compare,
    format_sweep_summary,
    write_cells_csv,
)
from repro.sim import (
    CompositeSink,
    EventRecorder,
    FaultPlan,
    Gpu,
    JsonlTraceSink,
    LOCAL_MEMORY,
    LaunchConfig,
    REGISTER_FILE,
    TraceSink,
    pack_params,
    read_trace_events,
    sample_faults,
)
from repro.spec import (
    CampaignSpec,
    SPEC_FIELDS,
    SweepResult,
    expand_sweep,
    run_sweep,
)
from repro.telemetry import (
    JsonlTelemetrySink,
    MemoryTelemetrySink,
    ProfileCollector,
    TelemetryHub,
    TelemetrySink,
    TelemetryTail,
    aggregate_profiles,
    format_profile,
    load_telemetry,
    load_telemetry_events,
    telemetry_path_for_store,
    top_cost_centers,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # chips
    "GpuConfig", "LatencyModel", "GPU_PRESETS", "SCALED_GPU_PRESETS",
    "get_gpu", "get_scaled_gpu", "list_gpus", "list_scaled_gpus",
    # simulator
    "Gpu", "LaunchConfig", "pack_params",
    "FaultPlan", "sample_faults", "REGISTER_FILE", "LOCAL_MEMORY",
    # fault-site structure registry
    "SIMT_STACK", "PREDICATE_FILE", "SCHEDULER_STATE",
    "DATAPATH_STRUCTURES", "CONTROL_STRUCTURES", "ALL_STRUCTURES",
    "STRUCTURE_REGISTRY", "structure_exposed",
    # fault models
    "FaultModel", "TransientBitFlip", "StuckAt", "MultiBitUpset",
    "FAULT_MODELS", "get_fault_model", "list_fault_models",
    # benchmarks
    "KERNEL_NAMES", "Workload", "RunResult",
    "get_workload", "list_workloads", "run_workload",
    "verify_against_reference",
    # declarative campaign specs + sweeps
    "CampaignSpec", "SPEC_FIELDS", "SweepResult",
    "expand_sweep", "run_sweep",
    # campaign engine
    "run_campaign", "CampaignResult", "CampaignStats", "ResultStore",
    "cell_fingerprints",
    # distributed campaign service (coordinator / worker fleet)
    "CampaignService", "CampaignWorker", "RemoteBackend",
    "ExecutionBackend", "CoordinatorUnreachable",
    # engine telemetry (observability)
    "TelemetrySink", "MemoryTelemetrySink", "JsonlTelemetrySink",
    "TelemetryHub", "load_telemetry", "load_telemetry_events",
    "telemetry_path_for_store",
    # hot-path profiling (observability)
    "ProfileCollector", "TelemetryTail", "aggregate_profiles",
    "format_profile", "top_cost_centers",
    # simulator access traces
    "TraceSink", "CompositeSink", "EventRecorder", "JsonlTraceSink",
    "read_trace_events",
    # checkpointing
    "CheckpointRecorder", "SnapshotSet", "capture_snapshots",
    # reliability
    "run_cell", "run_figure", "run_golden",
    "CellResult", "AvfEstimate", "AceMode", "Outcome",
    "compute_epf", "EpfResult", "RAW_FIT_PER_BIT",
    "margin_of_error", "required_samples",
    # reports (figure/table formatters, CSV export)
    "format_avf_figure", "format_epf_figure", "format_control_avf",
    "format_model_compare", "format_sweep_summary", "format_ace_vs_fi",
    "write_cells_csv",
    # errors
    "ReproError", "ConfigError", "AssemblyError", "LaunchError",
    "SimFault", "MemoryFault", "WatchdogTimeout",
]
