"""The paper's figures, and two views beyond it, as rows of data.

Each :data:`FIGURES` entry is a CLI help line, the spec defaults the
figure fills in, and the report it renders; :func:`run_figure` runs
the entry on the one campaign path (:func:`repro.engine.run_campaign`).

* ``fig1`` — Fig. 1, register-file AVF by FI and ACE, with occupancy.
  Expected findings: strong per-benchmark and per-GPU variation, AVF
  tracking occupancy, and ACE overestimating FI on the register file.
* ``fig2`` — Fig. 2, local-memory AVF over the seven benchmarks that
  allocate local memory (gaussian, kmeans and vectoradd use none and
  are absent, as in the paper). Expected: ACE very close to FI.
* ``fig3`` — Fig. 3, executions per failure (EPF = EIT / FIT_GPU) on
  a log axis; relative ordering across chips and benchmarks is the
  reproduction target. The spec's ``structures`` (default: the
  datapath pair) sets which structures' FIT the EPF sums.
* ``control`` — beyond the paper: per-GPU AVF of the control
  structures (SIMT stack, predicate/status registers, scheduler
  state) the follow-on literature singles out. ``simt_stack`` exists
  only on the SASS chips, so the AMD chip reports ``n/a`` there.
* ``models`` — beyond the paper: per-GPU AVF-FI by fault model, one
  child campaign per model through :func:`repro.spec.run_sweep`. All
  models share the golden runs, so each extra model costs only its
  plan, shard and cell jobs.

An explicit ``structures`` retargets ``fig1``/``fig2``; their report
is then anchored on the first structure given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch.structures import (
    CONTROL_STRUCTURES,
    LOCAL_MEMORY,
    REGISTER_FILE,
)
from repro.engine.matrix import run_campaign
from repro.errors import ConfigError
from repro.faultmodels.registry import list_fault_models
from repro.kernels.registry import KERNEL_NAMES, get_workload
from repro.reliability.report import (
    format_avf_figure,
    format_control_avf,
    format_epf_figure,
    format_model_compare,
)
from repro.spec.campaign import CampaignSpec, require_spec
from repro.spec.sweep import run_sweep


def local_memory_workloads(scale: str = "small") -> list:
    """The Fig. 2 benchmark subset (local-memory users)."""
    return [
        name for name in KERNEL_NAMES
        if get_workload(name, scale).uses_local_memory
    ]


@dataclass(frozen=True)
class Figure:
    """One report over one campaign (or one fault-model sweep)."""

    help: str
    #: The spec with the fields the caller left unset filled in.
    defaults: Callable[[CampaignSpec], CampaignSpec]
    #: The report text from the filled-in spec and the campaign's
    #: cells (the :class:`repro.spec.SweepResult` for a sweep).
    report: Callable
    #: Run one child campaign per fault model instead of one campaign.
    sweeps_fault_models: bool = False


def _unset(**fields) -> Callable[[CampaignSpec], CampaignSpec]:
    """Defaults for the spec fields left ``None`` (values may be lazy)."""
    def defaults(spec: CampaignSpec) -> CampaignSpec:
        return spec.replace(**{
            key: value(spec) if callable(value) else value
            for key, value in fields.items()
            if getattr(spec, key) is None})
    return defaults


def _avf_report(figure: str, structure: str, title: str) -> Callable:
    def report(spec: CampaignSpec, cells: list) -> str:
        anchor = spec.structures[0]
        return format_avf_figure(
            cells, anchor,
            title if spec.structures == (structure,)
            else f"{figure} campaign retargeted at {anchor}")
    return report


FIGURES: dict[str, Figure] = {
    "fig1": Figure(
        help="register-file AVF (paper Fig. 1)",
        defaults=_unset(structures=(REGISTER_FILE,)),
        report=_avf_report(
            "Fig. 1", REGISTER_FILE,
            "Fig. 1 - Register File AVF (fault injection vs ACE analysis)"),
    ),
    "fig2": Figure(
        help="local-memory AVF (paper Fig. 2)",
        defaults=_unset(
            structures=(LOCAL_MEMORY,),
            workloads=lambda spec: tuple(
                local_memory_workloads(spec.resolved_scale()))),
        report=_avf_report(
            "Fig. 2", LOCAL_MEMORY,
            "Fig. 2 - Local Memory AVF (fault injection vs ACE analysis)"),
    ),
    "fig3": Figure(
        help="executions-per-failure (paper Fig. 3)",
        defaults=_unset(),
        report=lambda spec, cells: format_epf_figure(cells),
    ),
    "control": Figure(
        help="control-structure AVF (beyond the paper)",
        defaults=_unset(structures=CONTROL_STRUCTURES),
        report=lambda spec, cells: format_control_avf(cells,
                                                      spec.structures),
    ),
    "models": Figure(
        help="per-GPU AVF across every fault model",
        defaults=_unset(),
        report=lambda spec, result: format_model_compare(
            {run.spec.fault_model: run.cells for run in result.runs}),
        sweeps_fault_models=True,
    ),
}


def run_figure(name: str, spec, *, fault_models=None, store=None,
               workers: int = 1, progress=None,
               stats=None) -> tuple[list, str]:
    """Run one :data:`FIGURES` entry; returns (cells, report).

    ``spec`` is a :class:`repro.spec.CampaignSpec`; fields left unset
    take the figure's defaults. ``store``, ``workers``, ``progress``
    and ``stats`` are :func:`repro.engine.run_campaign`'s execution
    resources. ``fault_models`` lists the models the ``models`` sweep
    compares (default: every registered model); the other figures run
    the spec's own ``fault_model``.
    """
    spec = require_spec(spec, who="run_figure")
    if name not in FIGURES:
        raise ConfigError(
            f"unknown figure {name!r}; known: {', '.join(FIGURES)}")
    figure = FIGURES[name]
    spec = figure.defaults(spec)
    resources = dict(store=store, workers=workers, progress=progress,
                     stats=stats)
    if figure.sweeps_fault_models:
        result = run_sweep(
            spec, {"fault_model": fault_models or list_fault_models()},
            **resources)
        return result.cells, figure.report(spec, result)
    cells = run_campaign(spec, **resources).cells
    return cells, figure.report(spec, cells)
