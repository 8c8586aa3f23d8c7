"""Sweeps: one base spec x an axis product -> many child campaigns.

The "one spec, many axes" pattern the follow-on literature motivates
(Guerrero-Balaguera et al. cross fault models with control units; Cui
et al. compare chip generations) is a first-class operation here:
``spec.sweep(fault_model=[...], seed=range(3))`` expands the product
into child specs, and :func:`run_sweep` executes them against one
shared :class:`~repro.engine.store.ResultStore`. With a store, children
that agree on (gpu, workload, scale, scheduler, ace_mode) share golden
jobs, so an extra axis value executes its plan/shard/cell jobs only.
Inline, a child also resolves the last four goldens an earlier child
ran, trace and snapshots included
(:func:`repro.engine.scheduler.deposit`); a plan job re-simulates any
other golden to record its trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.spec.campaign import SPEC_FIELDS, CampaignSpec


def _axis_label(value) -> str:
    if isinstance(value, (list, tuple)):
        return "+".join(str(item) for item in value)
    return str(value)


def _axis_values(name: str, values) -> list:
    """Normalize one axis to a non-empty list of axis points."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        values = [values]
    values = list(values)
    if not values:
        raise ConfigError(f"sweep axis {name!r} has no values")
    return values


def expand_sweep(base: CampaignSpec, axes: dict) -> list[CampaignSpec]:
    """Child specs for the product of per-field value lists.

    Axes are applied in the order given; the last axis varies fastest
    (row-major product). Every child is fully re-validated, and gets a
    ``name`` recording its axis assignment for the summary table.
    """
    if not axes:
        raise ConfigError(
            f"a sweep needs at least one axis; valid axes: "
            f"{', '.join(f for f in SPEC_FIELDS if f != 'name')}")
    for name in axes:
        if name not in SPEC_FIELDS or name == "name":
            raise ConfigError(
                f"unknown sweep axis {name!r}; valid axes: "
                f"{', '.join(f for f in SPEC_FIELDS if f != 'name')}")
    names = list(axes)
    value_lists = [_axis_values(name, axes[name]) for name in names]
    children = []
    for combo in itertools.product(*value_lists):
        label = ", ".join(
            f"{name}={_axis_label(value)}"
            for name, value in zip(names, combo))
        child = base.replace(**dict(zip(names, combo)))
        children.append(child.replace(
            name=f"{base.name}: {label}" if base.name else label))
    return children


@dataclass
class SweepRun:
    """One executed child campaign."""

    spec: CampaignSpec
    cells: list
    stats: object  # CampaignStats

    @property
    def label(self) -> str:
        return self.spec.name or self.spec.describe()


@dataclass
class SweepResult:
    """All child campaigns of one sweep, in expansion order."""

    base: CampaignSpec
    axes: dict
    runs: list[SweepRun] = field(default_factory=list)

    @property
    def cells(self) -> list:
        """Every cell of every child, expansion order."""
        return [cell for run in self.runs for cell in run.cells]

    def summary(self) -> str:
        """The per-axis summary table (see repro.reliability.report)."""
        from repro.reliability.report import format_sweep_summary
        return format_sweep_summary(self)


def run_sweep(base: CampaignSpec, axes: dict, *, store=None, workers: int = 1,
              progress=None, stats=None, telemetry=None,
              profile=None) -> SweepResult:
    """Expand ``base`` x ``axes`` and run every child campaign.

    All children share ``store`` (a :class:`ResultStore` or a path,
    opened once) and, inline, the goldens left resident in the process;
    ``stats`` (optional shared :class:`CampaignStats`) additionally
    accumulates the job accounting across the whole sweep. Each
    :class:`SweepRun` also carries its own per-child stats.

    ``telemetry`` (``None`` defers to the base spec's ``telemetry``
    field) is resolved *once* for the whole sweep — every child
    campaign emits into the same hub/JSONL stream, bracketed by
    ``sweep_begin`` / ``sweep_end`` events — so one `status` view
    covers the sweep end to end.

    ``profile`` (``None`` defers to the base spec's ``profile`` field)
    is likewise resolved once and applied to every child: each child
    campaign emits its ``cell_profile``/``campaign_profile`` events
    into the shared stream, so ``repro-experiments profile STORE``
    aggregates the whole sweep.
    """
    from repro.engine.matrix import run_campaign
    from repro.engine.scheduler import CampaignStats
    from repro.engine.store import ResultStore
    from repro.telemetry import resolve_telemetry

    specs = expand_sweep(base, axes)
    own_store = isinstance(store, (str, Path))
    if own_store:
        store = ResultStore(store)
    profile_on = bool(base.profile if profile is None else profile)
    hub, own_hub = resolve_telemetry(
        base.telemetry if telemetry is None else telemetry, store,
        profile=profile_on)
    result = SweepResult(base=base, axes=dict(axes))
    if hub is not None:
        hub.record("sweep_begin", name=base.name,
                   campaigns=len(specs), axes=list(axes))
    try:
        for spec in specs:
            child_stats = CampaignStats()
            campaign = run_campaign(spec, store=store, workers=workers,
                                    progress=progress, stats=child_stats,
                                    telemetry=hub if hub is not None
                                    else False,
                                    profile=profile_on)
            if stats is not None:
                stats.merge(child_stats)
            result.runs.append(SweepRun(
                spec=spec, cells=campaign.cells, stats=child_stats))
        if hub is not None:
            hub.record("sweep_end", name=base.name, campaigns=len(specs))
    finally:
        if own_hub and hub is not None:
            hub.close()
        if own_store:
            store.close()
    return result
