"""Fig. 3 — Executions Per Failure (EPF) for all 4 GPUs x 10 benchmarks.

EPF = EIT / FIT_GPU combines the chip's performance (cycle count and
clock) with its reliability (per-structure AVF-FI weighted by
structure size and raw soft-error rate). The paper plots it on a log
axis spanning roughly 10^12..10^16; relative ordering across chips and
benchmarks is the reproduction target.
"""

from __future__ import annotations

from repro.reliability.campaign import CellResult, run_matrix
from repro.reliability.report import format_epf_figure, write_cells_csv
from repro.spec.campaign import require_spec


def run_fig3(spec, *, out_csv: str | None = None, progress=None,
             workers: int = 1, store=None,
             stats=None) -> tuple[list[CellResult], str]:
    """Run the Fig. 3 campaign; returns (cells, formatted report).

    The spec's ``structures`` (default: the datapath pair) widens or
    narrows the structure set whose FIT contributions the EPF sums —
    adding control structures folds their AVF into FIT_GPU.
    """
    spec = require_spec(spec, who="run_fig3")
    cells = run_matrix(spec, progress=progress, workers=workers,
                       store=store, stats=stats)
    report = format_epf_figure(cells)
    if out_csv:
        write_cells_csv(cells, out_csv)
    return cells, report
