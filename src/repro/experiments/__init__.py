"""The paper's figures and the campaign command line.

:mod:`repro.experiments.figures` holds the figures as data: one
:data:`~repro.experiments.figures.FIGURES` entry each, run by
:func:`~repro.experiments.figures.run_figure` on the one campaign path
(:func:`repro.engine.run_campaign`):

* ``fig1`` — Fig. 1 (register file AVF)
* ``fig2`` — Fig. 2 (local memory AVF)
* ``fig3`` — Fig. 3 (executions per failure)
* ``control`` — beyond the paper: per-GPU AVF of the control
  structures (SIMT stack, predicate file, scheduler state)
* ``models`` — beyond the paper: per-GPU AVF by fault model
  (transient / stuck_at / mbu), one fault-model sweep

Every figure consumes one declarative :class:`repro.spec.CampaignSpec`
(``run_figure("fig1", spec, workers=..., store=...)``).

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
  ``stuck_at``, ``mbu``; ``--list-fault-models`` enumerates them);
  for ``models`` it narrows the comparison to that one model.

Each run ends with a campaign summary: jobs total / cached / executed.
"""

from repro.experiments.figures import FIGURES, run_figure

__all__ = ["FIGURES", "run_figure"]
