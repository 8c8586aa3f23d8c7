"""Reliability analyses: fault injection, ACE analysis, AVF, occupancy, EPF."""

from repro.reliability.campaign import (
    CellResult,
    average_cell,
    run_cell,
    run_matrix,
)
from repro.reliability.epf import (
    RAW_FIT_PER_BIT,
    EpfResult,
    compute_epf,
    executions_in_time,
    structure_fit,
)
from repro.reliability.fi import (
    AvfEstimate,
    GoldenRun,
    run_golden,
)
from repro.reliability.liveness import (
    AceAccumulator,
    AceMode,
    FaultSiteResolver,
    OccupancyAccumulator,
)
from repro.reliability.outcomes import FaultResult, Outcome, classify_outputs
from repro.reliability.sampling import margin_of_error, required_samples
from repro.spec.defaults import default_samples, default_scale

__all__ = [
    "run_cell",
    "run_matrix",
    "average_cell",
    "CellResult",
    "default_samples",
    "default_scale",
    "run_golden",
    "GoldenRun",
    "AvfEstimate",
    "AceAccumulator",
    "AceMode",
    "FaultSiteResolver",
    "OccupancyAccumulator",
    "Outcome",
    "FaultResult",
    "classify_outputs",
    "margin_of_error",
    "required_samples",
    "compute_epf",
    "EpfResult",
    "structure_fit",
    "executions_in_time",
    "RAW_FIT_PER_BIT",
]
