"""Experiment harnesses regenerating every figure of the paper.

* :mod:`repro.experiments.fig1_regfile_avf` — Fig. 1 (register file AVF)
* :mod:`repro.experiments.fig2_localmem_avf` — Fig. 2 (local memory AVF)
* :mod:`repro.experiments.fig3_epf` — Fig. 3 (executions per failure)
* :mod:`repro.experiments.fig_model_compare` — beyond the paper:
  per-GPU AVF by fault model (transient / stuck_at / mbu)

Every harness consumes one declarative
:class:`repro.spec.CampaignSpec` (``run_fig1(spec, workers=...,
store=...)``).

CLI: ``python -m repro.experiments
<fig1|fig2|fig3|control|models|all> [options]`` or the
installed ``repro-experiments`` entry point, plus the spec-file
subcommands ``run SPEC [--set key=value]`` and ``sweep SPEC --axis
key=v1,v2`` (one checked-in TOML/JSON artifact, executed or expanded
into an axis-product of campaigns on a shared store). Campaigns run
on the job-graph execution engine (:mod:`repro.engine`); the most
useful flags:

* ``--samples N`` / ``--scale tiny|small|default`` — campaign size
  (paper scale: 2000 samples, default inputs);
* ``--gpus`` / ``--workloads`` — matrix subset (``--list-gpus`` and
  ``--list-workloads`` enumerate the choices);
* ``--workers N`` — process-pool size; whole (GPU, benchmark) cells
  run concurrently, results identical for any value;
* ``--resume STORE`` — persistent JSONL result store: interrupted
  campaigns resume without re-executing finished jobs, repeated
  invocations are incremental, and the three figures share golden
  runs;
* ``--shard-size N`` — live fault plans per FI-shard job;
* ``--seed`` / ``--out CSV`` — RNG seed and CSV export;
* ``--fault-model MODEL`` — campaign fault model (``transient``,
  ``stuck_at``, ``mbu``; ``--list-fault-models`` enumerates them).

Each run ends with a campaign summary: jobs total / cached / executed.
"""

from repro.experiments.fig1_regfile_avf import run_fig1
from repro.experiments.fig2_localmem_avf import run_fig2
from repro.experiments.fig3_epf import run_fig3
from repro.experiments.fig_model_compare import run_model_compare

__all__ = ["run_fig1", "run_fig2", "run_fig3", "run_model_compare"]
