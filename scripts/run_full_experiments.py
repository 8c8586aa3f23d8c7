"""Run the complete evaluation matrix once and emit every figure.

The campaigns are the two checked-in spec files —
``examples/specs/full_datapath.toml`` (Fig. 1/2/3 share its cells)
and ``examples/specs/full_control.toml`` (the control-structure AVF
report) — so the full-paper reproduction is exactly reproducible from
versioned artifacts; the CLI arguments below only *override* the
specs' samples/scale for resized runs. Both campaigns run on the
job-graph engine against one persistent result store in the output
directory: golden runs are shared by fingerprint, a run killed
half-way resumes from its finished jobs on the next invocation, and a
re-run of a complete campaign executes nothing. The output directory
receives the store, ``cells.csv`` and ``cells_control.csv``, one text
file per figure (``fig1.txt``, ``fig2.txt``, ``fig3.txt``,
``ace_vs_fi.txt``, ``control_avf.txt``) and ``meta.json`` (samples,
scale, wall time, job counts). Usage::

    python scripts/run_full_experiments.py [samples] [scale] [outdir] [workers]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.engine import CampaignStats, run_campaign
from repro.reliability.report import (
    format_ace_vs_fi,
    format_avf_figure,
    format_control_avf,
    format_epf_figure,
    write_cells_csv,
)
from repro.spec import CampaignSpec

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
DATAPATH_SPEC = SPEC_DIR / "full_datapath.toml"
CONTROL_SPEC = SPEC_DIR / "full_control.toml"


def main() -> int:
    outdir = sys.argv[3] if len(sys.argv) > 3 else "results"
    workers = int(sys.argv[4]) if len(sys.argv) > 4 else 1

    overrides = {}
    if len(sys.argv) > 1:
        overrides["samples"] = int(sys.argv[1])
    if len(sys.argv) > 2:
        overrides["scale"] = sys.argv[2]
    spec = CampaignSpec.from_file(DATAPATH_SPEC).replace(**overrides)
    control_spec = CampaignSpec.from_file(CONTROL_SPEC).replace(**overrides)

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.time()

    def progress(cell):
        print(
            f"[{time.time() - start:7.1f}s] {cell.gpu:<26} {cell.workload:<12} "
            f"cycles={cell.cycles:<8} rf_fi={cell.avf_fi(REGISTER_FILE):.3f} "
            f"rf_ace={cell.avf_ace(REGISTER_FILE):.3f} "
            f"lm_fi={cell.avf_fi(LOCAL_MEMORY):.3f} "
            f"epf={cell.epf.epf:.2e}",
            flush=True,
        )

    stats = CampaignStats()
    result = run_campaign(
        spec,
        workers=workers,
        store=out / "store.jsonl",
        progress=progress,
        stats=stats,
    )
    cells = result.cells
    print(stats.summary(), flush=True)

    write_cells_csv(cells, out / "cells.csv")
    fig1 = format_avf_figure(
        cells, REGISTER_FILE,
        "Fig. 1 - Register File AVF (fault injection vs ACE analysis)",
    )
    fig2 = format_avf_figure(
        [c for c in cells if c.uses_local_memory], LOCAL_MEMORY,
        "Fig. 2 - Local Memory AVF (fault injection vs ACE analysis)",
    )
    fig3 = format_epf_figure(cells)
    ace = format_ace_vs_fi(cells)

    # Control-structure AVF: the companion spec over the same store
    # (the golden jobs are shared by fingerprint, so only plan/shard/
    # cell jobs for the control sites execute).
    def control_progress(cell):
        print(
            f"[{time.time() - start:7.1f}s] {cell.gpu:<26} "
            f"{cell.workload:<12} cycles={cell.cycles:<8} "
            f"[control structures]",
            flush=True,
        )

    control_result = run_campaign(
        control_spec,
        workers=workers,
        store=out / "store.jsonl",
        progress=control_progress,
        stats=stats,
    )
    write_cells_csv(control_result.cells, out / "cells_control.csv")
    control = format_control_avf(
        control_result.cells, control_spec.resolved_structures())

    for name, text in (("fig1.txt", fig1), ("fig2.txt", fig2),
                       ("fig3.txt", fig3), ("ace_vs_fi.txt", ace),
                       ("control_avf.txt", control)):
        (out / name).write_text(text + "\n")
        print("\n" + text, flush=True)

    meta = {
        "specs": [str(DATAPATH_SPEC), str(CONTROL_SPEC)],
        "samples": spec.resolved_samples(),
        "scale": spec.resolved_scale(),
        "seed": spec.seed,
        "workers": workers,
        "wall_time_s": round(time.time() - start, 1),
        "cells": len(cells),
        "jobs_total": stats.total,
        "jobs_cached": stats.cached,
        "jobs_executed": stats.executed,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2))
    print(f"\ndone in {meta['wall_time_s']}s -> {out}/", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
