"""Fig. 2 — local/shared memory AVF by FI and ACE, with occupancy.

The paper's Fig. 2 covers only the seven benchmarks that allocate
local memory (backprop, dwtHaar1D, histogram, matrixMul, reduction,
scan, transpose); gaussian, kmeans and vectoradd use none and are
absent, exactly as here. Expected finding: ACE is very close to FI
for this structure (unlike the register file).
"""

from __future__ import annotations

from repro.arch.structures import LOCAL_MEMORY
from repro.kernels.registry import KERNEL_NAMES, get_workload
from repro.reliability.campaign import CellResult, run_matrix
from repro.reliability.report import format_avf_figure, write_cells_csv
from repro.spec.campaign import require_spec


def local_memory_workloads(scale: str = "small") -> list:
    """The Fig. 2 benchmark subset (local-memory users)."""
    return [
        name for name in KERNEL_NAMES
        if get_workload(name, scale).uses_local_memory
    ]


def run_fig2(spec, *, out_csv: str | None = None, progress=None,
             workers: int = 1, store=None,
             stats=None) -> tuple[list[CellResult], str]:
    """Run the Fig. 2 campaign; returns (cells, formatted report).

    Spec fields left unset take this figure's defaults:
    ``structures=(local_memory,)`` and the local-memory benchmark
    subset. An explicit ``structures`` retargets the campaign; the
    report is then anchored on the first structure given.
    """
    spec = require_spec(spec, who="run_fig2")
    if spec.structures is None:
        spec = spec.replace(structures=(LOCAL_MEMORY,))
    if spec.workloads is None:
        spec = spec.replace(
            workloads=tuple(local_memory_workloads(spec.resolved_scale())))
    cells = run_matrix(spec, progress=progress, workers=workers,
                       store=store, stats=stats)
    report = format_avf_figure(
        cells, spec.structures[0],
        "Fig. 2 - Local Memory AVF (fault injection vs ACE analysis)"
        if spec.structures == (LOCAL_MEMORY,)
        else f"Fig. 2 campaign retargeted at {spec.structures[0]}",
    )
    if out_csv:
        write_cells_csv(cells, out_csv)
    return cells, report
