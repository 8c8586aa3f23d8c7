"""Control-structure AVF — per-GPU AVF of the non-datapath fault sites.

Beyond the paper: the same statistical fault-injection methodology,
aimed at the control/parallelism-management state the follow-on
literature singles out (Guerrero-Balaguera et al. 2023; dos Santos et
al., NSREC 2021) — the SIMT reconvergence stack, the predicate/status
registers (SASS P0..P6; SI SCC/VCC/EXEC), and the warp scheduler's
ready/barrier bookkeeping. Reported per (benchmark, GPU) with per-GPU
averages, next to Fig. 1/2's datapath numbers.

Structure exposure is ISA-dependent: ``simt_stack`` exists only on the
SASS chips (SI manages divergence through EXEC masks), so the AMD chip
reports ``n/a`` there and real numbers for the other two.
"""

from __future__ import annotations

from repro.arch.structures import CONTROL_STRUCTURES
from repro.reliability.campaign import CellResult, run_matrix
from repro.reliability.report import format_control_avf, write_cells_csv
from repro.spec.campaign import require_spec


def run_control_avf(spec, *, out_csv: str | None = None, progress=None,
                    workers: int = 1, store=None,
                    stats=None) -> tuple[list[CellResult], str]:
    """Run the control-structure campaign; returns (cells, report).

    An unset ``structures`` defaults to all three control structures;
    an explicit one (the CLI's ``--structures`` flag) restricts the
    target set.
    """
    spec = require_spec(spec, who="run_control_avf")
    if spec.structures is None:
        spec = spec.replace(structures=CONTROL_STRUCTURES)
    cells = run_matrix(spec, progress=progress, workers=workers,
                       store=store, stats=stats)
    report = format_control_avf(cells, spec.structures)
    if out_csv:
        write_cells_csv(cells, out_csv)
    return cells, report
