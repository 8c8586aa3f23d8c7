"""Fault-model comparison — per-GPU AVF by fault model.

Beyond the paper: runs the same (GPU x benchmark) matrix once per
registered fault model (transient single-bit flips, permanent stuck-at
defects, adjacent multi-bit upsets) and tabulates the per-GPU average
AVF-FI side by side, for both target structures. The follow-on
literature (Guerrero-Balaguera et al. on permanent faults; Cui et al.
on H100/A100 multi-bit errors) predicts stuck-at AVFs above and MBU
AVFs near the transient baseline — this harness measures that on the
paper's chips.

All models share the golden runs (golden fingerprints ignore the fault
model), so the marginal cost of each extra model is its plan + shard
jobs only. This is the degenerate one-axis sweep; arbitrary axis
products are :meth:`repro.spec.CampaignSpec.sweep`.
"""

from __future__ import annotations

from repro.faultmodels.registry import list_fault_models
from repro.reliability.campaign import CellResult, run_matrix
from repro.reliability.report import format_model_compare, write_cells_csv
from repro.spec.campaign import require_spec


def run_model_compare(spec, *, fault_models: list | None = None,
                      out_csv: str | None = None, progress=None,
                      workers: int = 1, store=None,
                      stats=None) -> tuple[list[CellResult], str]:
    """Run the matrix once per fault model; returns (cells, report).

    ``fault_models`` selects the model subset; by default every
    registered model is compared (the spec's own ``fault_model`` field
    is overridden per matrix run).
    """
    spec = require_spec(spec, who="run_model_compare")
    if fault_models is None:
        fault_models = list_fault_models()
    cells_by_model: dict[str, list[CellResult]] = {}
    all_cells: list[CellResult] = []
    for name in fault_models:
        model_spec = spec.replace(fault_model=name)
        cells = run_matrix(model_spec, progress=progress, workers=workers,
                           store=store, stats=stats)
        cells_by_model[model_spec.fault_model] = cells
        all_cells.extend(cells)
    report = format_model_compare(cells_by_model)
    if out_csv:
        write_cells_csv(all_cells, out_csv)
    return all_cells, report
