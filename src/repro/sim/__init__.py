"""Microarchitectural GPU simulators (the GPGPU-Sim / Multi2Sim substitutes)."""

from repro.arch.structures import (
    LOCAL_MEMORY,
    PREDICATE_FILE,
    REGISTER_FILE,
    SCHEDULER_STATE,
    SIMT_STACK,
)
from repro.sim.gpu import Gpu, default_watchdog_for
from repro.sim.launch import LaunchConfig, pack_params
from repro.sim.faults import FaultPlan, sample_faults
from repro.sim.tracing import (
    TRACE_SCHEMA_VERSION,
    CompositeSink,
    EventRecorder,
    JsonlTraceSink,
    TraceSink,
    read_trace_events,
)

__all__ = [
    "Gpu",
    "LaunchConfig",
    "pack_params",
    "FaultPlan",
    "REGISTER_FILE",
    "LOCAL_MEMORY",
    "SIMT_STACK",
    "PREDICATE_FILE",
    "SCHEDULER_STATE",
    "sample_faults",
    "TraceSink",
    "CompositeSink",
    "EventRecorder",
    "JsonlTraceSink",
    "TRACE_SCHEMA_VERSION",
    "read_trace_events",
    "default_watchdog_for",
]
