"""Fig. 1 — register-file AVF by FI and ACE, with occupancy.

Paper: 4 GPUs x 10 benchmarks + per-GPU average; AVF-FI and AVF-ACE
bars with the occupancy line. Expected findings this harness must
show: strong per-benchmark and per-GPU variation, AVF tracking
occupancy, and ACE overestimating FI on the register file.
"""

from __future__ import annotations

from repro.arch.structures import REGISTER_FILE
from repro.reliability.campaign import CellResult, run_matrix
from repro.reliability.report import format_avf_figure, write_cells_csv
from repro.spec.campaign import require_spec


def run_fig1(spec, *, out_csv: str | None = None, progress=None,
             workers: int = 1, store=None,
             stats=None) -> tuple[list[CellResult], str]:
    """Run the Fig. 1 campaign; returns (cells, formatted report).

    ``spec`` is a :class:`repro.spec.CampaignSpec`; fields left unset
    take this figure's defaults (all scaled chips, the full suite,
    ``structures=(register_file,)``). An explicit ``structures``
    retargets the campaign; the report is then anchored on the first
    structure given.
    """
    spec = require_spec(spec, who="run_fig1")
    if spec.structures is None:
        spec = spec.replace(structures=(REGISTER_FILE,))
    cells = run_matrix(spec, progress=progress, workers=workers,
                       store=store, stats=stats)
    report = format_avf_figure(
        cells, spec.structures[0],
        "Fig. 1 - Register File AVF (fault injection vs ACE analysis)"
        if spec.structures == (REGISTER_FILE,)
        else f"Fig. 1 campaign retargeted at {spec.structures[0]}",
    )
    if out_csv:
        write_cells_csv(cells, out_csv)
    return cells, report
