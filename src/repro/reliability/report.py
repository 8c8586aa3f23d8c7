"""Report generation: the paper's figures as text tables, ASCII charts
and CSV files.

No plotting libraries are available offline, so "figures" are rendered
as aligned tables plus ASCII bar charts — the same rows/series the
paper plots, in the paper's ordering (benchmarks left to right, the
four chips grouped per benchmark, plus the per-GPU average group).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.reliability.campaign import CellResult, average_cell

#: Figure order of the chips.
GPU_ORDER = (
    "HD Radeon 7970",
    "Quadro FX 5600",
    "Quadro FX 5800",
    "GeForce GTX 480",
)


def _gpu_key(name: str) -> str:
    return name.replace(" (scaled)", "")


def _sorted_cells(cells: list[CellResult]) -> dict:
    """(workload -> gpu -> cell) in paper order."""
    table: dict = {}
    for cell in cells:
        table.setdefault(cell.workload, {})[_gpu_key(cell.gpu)] = cell
    return table


def _gpu_order(cells: list[CellResult]) -> list:
    """Paper chips in figure order, then any other chips as seen."""
    present = []
    for cell in cells:
        key = _gpu_key(cell.gpu)
        if key not in present:
            present.append(key)
    ordered = [gpu for gpu in GPU_ORDER if gpu in present]
    ordered.extend(gpu for gpu in present if gpu not in GPU_ORDER)
    return ordered


def bar(value: float, width: int = 30, maximum: float = 1.0) -> str:
    """Unit-interval ASCII bar."""
    if maximum <= 0:
        return ""
    filled = int(round(min(value / maximum, 1.0) * width))
    return "#" * filled + "." * (width - filled)


def format_avf_figure(cells: list[CellResult], structure: str,
                      title: str) -> str:
    """Fig. 1 / Fig. 2 style report: AVF-FI, AVF-ACE and occupancy."""
    grouped = _sorted_cells(cells)
    order = _gpu_order(cells)
    lines = [title, "=" * len(title), ""]
    header = (
        f"{'benchmark':<12} {'GPU':<16} {'AVF-FI':>8} {'AVF-ACE':>8} "
        f"{'Occup.':>8}  AVF-FI bar"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for workload, per_gpu in grouped.items():
        for gpu in order:
            cell = per_gpu.get(gpu)
            if cell is None:
                continue
            fi = cell.avf_fi(structure)
            ace = cell.avf_ace(structure)
            occ = cell.occupancy.get(structure, 0.0)
            lines.append(
                f"{workload:<12} {gpu:<16} {fi:8.3f} {ace:8.3f} "
                f"{occ:8.3f}  |{bar(fi)}|"
            )
        lines.append("")
    # Average group (the figures' right-most cluster). The datapath
    # structures keep the paper's averaging rules (local-memory
    # averages span only the local-memory benchmarks, via
    # average_cell); any other structure averages directly over the
    # cells that sampled it.
    lines.append(f"{'average':<12}")
    for gpu in order:
        mine = [c for c in cells if _gpu_key(c.gpu) == gpu]
        if not mine:
            continue
        if structure in (REGISTER_FILE, LOCAL_MEMORY):
            avg = average_cell(mine, mine[0].gpu)
            key = "regfile" if structure == REGISTER_FILE else "localmem"
            fi = avg[f"avf_fi_{key}"]
            ace = avg[f"avf_ace_{key}"]
            occ = avg[f"occ_{key}"]
        else:
            having = [c for c in mine if structure in c.fi]
            if not having:
                continue
            fi = sum(c.avf_fi(structure) for c in having) / len(having)
            ace = sum(c.avf_ace(structure) for c in having) / len(having)
            occ = sum(c.occupancy.get(structure, 0.0)
                      for c in having) / len(having)
        lines.append(
            f"{'':<12} {gpu:<16} {fi:8.3f} {ace:8.3f} {occ:8.3f}  |{bar(fi)}|"
        )
    lines.append("")
    margins = {cell.fi[structure].margin for cell in cells if structure in cell.fi}
    if margins:
        lines.append(
            f"(n = {cells[0].samples} injections/structure; 99% confidence "
            f"error margin = {max(margins) * 100:.2f}%)"
        )
    return "\n".join(lines)


def format_epf_figure(cells: list[CellResult], title: str = "Fig. 3 - Executions per Failure (EPF)") -> str:
    """Fig. 3 style report: EPF per (benchmark, GPU), log-scale bars."""
    grouped = _sorted_cells(cells)
    order = _gpu_order(cells)
    lines = [title, "=" * len(title), ""]
    header = f"{'benchmark':<12} {'GPU':<16} {'EPF':>12} {'FIT':>10} {'cycles':>10}  log10(EPF) 10..17"
    lines.append(header)
    lines.append("-" * len(header))
    lo, hi = 10.0, 17.0
    for workload, per_gpu in grouped.items():
        for gpu in order:
            cell = per_gpu.get(gpu)
            if cell is None or cell.epf is None:
                continue
            epf = cell.epf.epf
            log_epf = math.log10(epf) if math.isfinite(epf) and epf > 0 else lo
            frac = (min(max(log_epf, lo), hi) - lo) / (hi - lo)
            lines.append(
                f"{workload:<12} {gpu:<16} {epf:12.3e} {cell.epf.fit_gpu:10.1f} "
                f"{cell.cycles:10d}  |{bar(frac)}|"
            )
        lines.append("")
    return "\n".join(lines)


def format_model_compare(cells_by_model: dict) -> str:
    """Per-GPU average AVF-FI by fault model, for both structures.

    ``cells_by_model`` maps fault-model name -> the model's matrix
    cells. Register-file averages span every benchmark; local-memory
    averages span the local-memory subset (see :func:`average_cell`).
    """
    models = list(cells_by_model)
    title = "Fault-model comparison - per-GPU average AVF-FI"
    lines = [title, "=" * len(title), ""]
    header = f"{'structure':<14} {'GPU':<16} " + " ".join(
        f"{model:>10}" for model in models
    )
    lines.append(header)
    lines.append("-" * len(header))
    any_cells = next(iter(cells_by_model.values()))
    order = _gpu_order(any_cells)
    for key in ("regfile", "localmem"):
        for gpu in order:
            values = []
            for model in models:
                mine = [c for c in cells_by_model[model]
                        if _gpu_key(c.gpu) == gpu]
                if not mine:
                    values.append(float("nan"))
                    continue
                values.append(
                    average_cell(mine, mine[0].gpu)[f"avf_fi_{key}"])
            lines.append(
                f"{key:<14} {gpu:<16} "
                + " ".join(f"{v:10.4f}" for v in values)
            )
        lines.append("")
    samples = {cell.samples for cells in cells_by_model.values()
               for cell in cells}
    if samples:
        lines.append(
            f"(n = {max(samples)} injections/structure per model; "
            f"models: {', '.join(models)})"
        )
    return "\n".join(lines)


def format_control_avf(cells: list[CellResult], structures: tuple) -> str:
    """Control-structure AVF report: per (benchmark, GPU) and averages.

    Structures a chip's ISA does not expose (e.g. ``simt_stack`` on an
    EXEC-mask SI chip) render as ``n/a`` — the campaign never sampled
    them there.
    """
    grouped = _sorted_cells(cells)
    order = _gpu_order(cells)
    title = "Control-structure AVF (fault injection)"
    lines = [title, "=" * len(title), ""]
    header = f"{'benchmark':<12} {'GPU':<16} " + " ".join(
        f"{s:>16}" for s in structures
    )
    lines.append(header)
    lines.append("-" * len(header))

    def cell_columns(cell) -> str:
        return " ".join(
            f"{cell.avf_fi(s):16.3f}" if s in cell.fi else f"{'n/a':>16}"
            for s in structures
        )

    for workload, per_gpu in grouped.items():
        for gpu in order:
            cell = per_gpu.get(gpu)
            if cell is None:
                continue
            lines.append(f"{workload:<12} {gpu:<16} {cell_columns(cell)}")
        lines.append("")
    lines.append(f"{'average':<12}")
    for gpu in order:
        mine = [c for c in cells if _gpu_key(c.gpu) == gpu]
        if not mine:
            continue
        columns = []
        for structure in structures:
            having = [c for c in mine if structure in c.fi]
            if not having:
                columns.append(f"{'n/a':>16}")
                continue
            avg = sum(c.avf_fi(structure) for c in having) / len(having)
            columns.append(f"{avg:16.3f}")
        lines.append(f"{'':<12} {gpu:<16} " + " ".join(columns))
    lines.append("")
    samples = {cell.samples for cell in cells}
    if samples:
        lines.append(
            f"(n = {max(samples)} injections/structure; structures: "
            f"{', '.join(structures)})"
        )
    return "\n".join(lines)


def format_sweep_summary(result) -> str:
    """Per-axis summary table of one sweep (:mod:`repro.spec.sweep`).

    One row per child campaign (expansion order — the last axis varies
    fastest), keyed by its axis assignment, with the cell count and
    the mean AVF-FI over the child's cells for every structure the
    sweep touched. Structures a child never targeted (or its chips do
    not expose) render as ``n/a``.
    """
    structures: list = []
    for run in result.runs:
        for cell in run.cells:
            for structure in cell.fi:
                if structure not in structures:
                    structures.append(structure)
    title = (f"Sweep summary — {len(result.runs)} campaigns "
             f"(axes: {', '.join(result.axes)})")
    lines = [title, "=" * len(title), ""]
    label_width = max([len(run.label) for run in result.runs] + [len("campaign")])
    header = (f"{'campaign':<{label_width}} {'cells':>6} " + " ".join(
        f"{'avf:' + s:>20}" for s in structures))
    lines.append(header)
    lines.append("-" * len(header))
    for run in result.runs:
        columns = []
        for structure in structures:
            having = [c for c in run.cells if structure in c.fi]
            if not having:
                columns.append(f"{'n/a':>20}")
            else:
                avg = sum(c.avf_fi(structure) for c in having) / len(having)
                columns.append(f"{avg:20.4f}")
        lines.append(f"{run.label:<{label_width}} {len(run.cells):>6} "
                     + " ".join(columns))
    lines.append("")
    executed = sum(run.stats.executed for run in result.runs)
    cached = sum(run.stats.cached for run in result.runs)
    lines.append(
        f"(shared store: {cached} jobs cached, "
        f"{executed} executed across the sweep)")
    return "\n".join(lines)


def format_ace_vs_fi(cells: list[CellResult]) -> str:
    """The ACE-overestimation summary the paper highlights in prose."""
    lines = [
        "ACE vs FI accuracy and analysis-time comparison",
        "===============================================",
        "",
        f"{'benchmark':<12} {'GPU':<16} {'struct':<10} "
        f"{'FI':>7} {'ACE':>7} {'ACE/FI':>7} {'FI time':>9} {'ACE time':>9}",
    ]
    for cell in cells:
        for structure in (REGISTER_FILE, LOCAL_MEMORY):
            if structure not in cell.fi:
                continue
            fi = cell.avf_fi(structure)
            ace = cell.avf_ace(structure)
            ratio = ace / fi if fi > 0 else float("inf")
            short = "regfile" if structure == REGISTER_FILE else "localmem"
            lines.append(
                f"{cell.workload:<12} {_gpu_key(cell.gpu):<16} {short:<10} "
                f"{fi:7.3f} {ace:7.3f} {ratio:7.2f} "
                f"{cell.fi_time_s:8.1f}s {cell.golden_time_s:8.1f}s"
            )
    return "\n".join(lines)


def write_cells_csv(cells: list[CellResult], path: str | Path) -> Path:
    """Dump every cell as one CSV row (flat schema from CellResult.row)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [cell.row() for cell in cells]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path
