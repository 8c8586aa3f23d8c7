"""Matrix campaigns on the job-graph engine.

:func:`run_campaign` consumes one declarative
:class:`repro.spec.CampaignSpec` and decomposes its (GPU x benchmark)
evaluation matrix into golden -> plan -> shard -> cell jobs, schedules
them across a process pool so *cells* run concurrently (not just one
cell's re-simulations), shares golden jobs by (gpu, workload, scale,
scheduler, ace_mode), and records every finished job in a persistent
:class:`~repro.engine.store.ResultStore` — making interrupted campaigns
resumable and repeated invocations incremental. This is the one
campaign path: ``run_cell``, the figures and sweeps run through it, and
its results are bit-identical for any worker count and any shard size;
spec fields map one-to-one onto the job fingerprint
parameters (:func:`cell_fingerprints`), so stores written before the
spec API resume with zero jobs executed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.arch.config import GpuConfig
from repro.engine import jobs
from repro.engine.fingerprint import (
    cell_params,
    fingerprint,
    golden_params,
    plan_params,
    shard_params,
)
from repro.engine.scheduler import CampaignStats, JobScheduler, JobSpec
from repro.engine.store import ResultStore
from repro.kernels.registry import get_workload
from repro.reliability.campaign import CellResult
from repro.errors import ConfigError
from repro.arch.structures import exposed_structures
from repro.telemetry.profile import merge_profiles, phase

#: Live fault plans per FI shard job. Small enough that a 2,000-sample
#: campaign spreads one cell over many workers; independent of the
#: worker count so shard fingerprints stay stable across runs.
DEFAULT_SHARD_SIZE = 24


@dataclass
class CampaignResult:
    """Cells in matrix order plus the job accounting."""

    cells: list
    stats: CampaignStats


def _fingerprints(spec, config: GpuConfig, workload_name: str,
                  structures: tuple) -> tuple[str, str, str]:
    """(golden, plan, cell) fingerprints of one cell of ``spec``.

    ``structures`` is the cell's exposed subset (:func:`iter_cells`).
    """
    golden_fp = fingerprint(
        jobs.GOLDEN,
        golden_params(config, workload_name, spec.resolved_scale(),
                      spec.scheduler, spec.ace_mode))
    plan_fp = fingerprint(
        jobs.PLAN,
        plan_params(golden_fp, spec.resolved_samples(), spec.seed,
                    structures, spec.fault_model))
    cell_fp = fingerprint(
        jobs.CELL,
        cell_params(plan_fp, spec.raw_fit_per_bit,
                    checkpoint=spec.checkpoint_interval))
    return golden_fp, plan_fp, cell_fp


def _cell_jobs(spec, config: GpuConfig, workload_name: str,
               structures: tuple,
               store: ResultStore | None) -> tuple[list[JobSpec], str]:
    """Job chain for one cell; returns (root jobs, cell job id).

    The golden job records its access trace and captures its snapshot
    set on every backend. Inline, the plan job and the shards take
    them from the golden payload by reference (zero copies); a golden
    that ran in another process arrives without its ephemeral keys,
    and the plan and shards find them resident in the process they run
    in (:mod:`repro.engine.jobs`).
    """
    golden_fp, plan_fp, cell_fp = _fingerprints(
        spec, config, workload_name, structures)
    if store is not None and cell_fp in store:
        # Finished cell: short-circuit the whole chain (cell
        # fingerprints ignore shard geometry, so even a different
        # shard size reuses it). The cached payload resolves the job;
        # reduce_fn exists only to satisfy the spec's contract.
        return [JobSpec(
            job_id=cell_fp,
            kind=jobs.CELL,
            fingerprint=cell_fp,
            reduce_fn=lambda deps: store.get(cell_fp),
        )], cell_fp
    scale, scheduler = spec.resolved_scale(), spec.scheduler
    samples, seed = spec.resolved_samples(), spec.seed
    fault_model = spec.fault_model
    checkpoint_interval = spec.checkpoint_interval
    shard_size = spec.resolved_shard_size()
    suffix_memo = spec.resolved_suffix_memo()
    uses_local_memory = get_workload(workload_name, scale).uses_local_memory

    def expand_plan(plan_payload: dict, deps: dict) -> list[JobSpec]:
        live = jobs.live_plan_keys(plan_payload)
        if not live:
            # No shard will restore from this golden's snapshots: free
            # them now instead of at the cell reduction, which inline
            # runs only after every cell's golden and plan job.
            deps.get(golden_fp, {}).pop("_snapshots", None)
        shard_ids = []
        specs = []
        for start in range(0, len(live), shard_size):
            chunk = live[start:start + shard_size]
            shard_fp = fingerprint(
                jobs.SHARD,
                shard_params(plan_fp, start, start + len(chunk)))
            shard_ids.append(shard_fp)
            specs.append(JobSpec(
                job_id=shard_fp,
                kind=jobs.SHARD,
                fingerprint=shard_fp,
                deps=(golden_fp,),
                worker=jobs.run_shard_job,
                # Inline, snapshots ride along from the golden payload
                # by reference. They are ephemeral: a golden loaded
                # from a store or run in another process has none, and
                # the shard looks the set up where it runs.
                make_args=lambda deps, chunk=chunk: (
                    config, workload_name, scale, scheduler,
                    deps[golden_fp]["cycles"], golden_fp,
                    deps[golden_fp]["outputs"], chunk, fault_model,
                    deps[golden_fp].get("_snapshots"),
                    checkpoint_interval,
                    suffix_memo,
                ),
            ))

        def reduce_cell(deps: dict) -> dict:
            with phase("reduce"):
                payload = jobs.reduce_cell_job(
                    config, workload_name, scale, scheduler, samples, seed,
                    structures, spec.raw_fit_per_bit, uses_local_memory,
                    deps[golden_fp], deps[plan_fp],
                    [deps[shard_id] for shard_id in shard_ids],
                    fault_model=fault_model,
                )
            # The cell is the last consumer of this golden's snapshots
            # within the campaign: free them so driver memory stays
            # bounded by the cells in flight, not the whole matrix.
            deps[golden_fp].pop("_snapshots", None)
            return payload

        specs.append(JobSpec(
            job_id=cell_fp,
            kind=jobs.CELL,
            fingerprint=cell_fp,
            deps=(golden_fp, plan_fp, *shard_ids),
            reduce_fn=reduce_cell,
        ))
        return specs

    golden_job = JobSpec(
        job_id=golden_fp,
        kind=jobs.GOLDEN,
        fingerprint=golden_fp,
        worker=jobs.run_golden_job,
        make_args=lambda deps: (
            config, workload_name, scale, scheduler, spec.ace_mode.value,
            checkpoint_interval),
    )
    plan_job = JobSpec(
        job_id=plan_fp,
        kind=jobs.PLAN,
        fingerprint=plan_fp,
        deps=(golden_fp,),
        worker=jobs.run_plan_job,
        # Inline, the golden's trace rides along by reference and is
        # popped, so it lives from golden job to plan job only.
        make_args=lambda deps: (
            config, workload_name, scale, scheduler,
            deps[golden_fp]["cycles"], samples, seed, structures,
            fault_model, golden_fp, checkpoint_interval,
            deps[golden_fp].pop("_trace", None)),
        expand=expand_plan,
    )
    return [golden_job, plan_job], cell_fp


def iter_cells(spec):
    """(config, workload, exposed structure subset) per runnable cell.

    Per-chip structure subset: a campaign naming a structure the
    chip's ISA does not expose (e.g. simt_stack on an EXEC-mask SI
    chip) simply skips it there — the cell's fingerprint sees the
    filtered tuple, so exposure never aliases across ISAs.
    """
    structures = spec.resolved_structures()
    for config in spec.resolved_gpus():
        cell_structures = exposed_structures(config, structures)
        if not cell_structures:
            continue
        for name in spec.resolved_workloads():
            yield config, name, cell_structures


def cell_fingerprints(spec) -> dict:
    """(gpu name, workload) -> cell fingerprint, without executing.

    Spec fields map one-to-one onto the golden/plan/cell fingerprint
    parameters, so this is exactly the set of cell records a finished
    run of ``spec`` leaves in a store — usable to check resumability
    (every fingerprint present means a re-run executes zero jobs).
    """
    return {(config.name, name): _fingerprints(spec, config, name,
                                               cell_structures)[2]
            for config, name, cell_structures in iter_cells(spec)}


def run_campaign(spec, *, store: ResultStore | str | Path | None = None,
                 workers: int = 1, progress=None,
                 stats: CampaignStats | None = None,
                 telemetry=None, profile=None,
                 execution=None) -> CampaignResult:
    """Run (or resume) an evaluation matrix on the job engine.

    ``spec`` is a :class:`repro.spec.CampaignSpec`; everything else is
    an execution resource: ``run_campaign(spec, store=...,
    workers=...)``.

    ``store`` — a :class:`ResultStore` or a path to one — makes the
    campaign persistent: killed runs resume without re-executing any
    finished job, and identical re-invocations execute nothing. Spec
    fields map onto the same golden/plan/shard/cell fingerprints that
    stores written before the spec API hold, so those resume with zero
    jobs executed. ``workers`` sizes the process pool (1 = inline/serial);
    cells and their FI shards are scheduled concurrently either way,
    and results are identical for every setting. The spec's
    ``fault_model`` is part of every plan/shard/cell fingerprint, so
    campaigns with different models share golden runs but never
    collide on results.

    The spec's ``checkpoint_interval`` (None, ``"auto"``, or a cycle
    count) makes golden jobs capture machine snapshots that the cell's
    FI shards restore, simulating only each fault's suffix with the
    early-exit convergence check (:mod:`repro.checkpoint`).
    Golden/plan/shard results are bit-identical with or without it;
    the interval joins only the *cell* fingerprint (omitted when off),
    so pre-checkpoint stores still resume and a checkpointed resume of
    one reuses every simulation job.

    ``telemetry`` — ``None`` defers to the spec's ``telemetry`` field;
    otherwise it overrides it: ``False`` forces telemetry off, ``True``
    writes the event stream as JSONL next to the persistent store, a
    path writes there, and a ``TelemetrySink``/``TelemetryHub``
    receives the events directly (see
    :func:`repro.telemetry.resolve_telemetry`). Telemetry is strictly
    observability-only: it joins no fingerprint, and the result store
    is bit-identical with it on or off.

    ``profile`` — ``None`` defers to the spec's ``profile`` field;
    ``True`` turns on the hot-path profiling layer
    (:mod:`repro.telemetry.profile`): every executed job collects
    per-phase timers and dispatch counters, each cell emits one
    ``cell_profile`` telemetry event and the campaign one
    ``campaign_profile`` summary, rendered by ``repro-experiments
    profile STORE``. Profiling shares telemetry's guarantee — no
    fingerprint, bit-identical stores on or off — and auto-enables a
    JSONL telemetry sink next to the store when no other telemetry
    destination is configured.

    ``execution`` is an :class:`repro.engine.scheduler.ExecutionBackend`
    that runs the campaign's pool-eligible jobs somewhere other than the
    local process pool (the campaign service's ``RemoteBackend`` leases
    them to registered workers). Caller-owned: the campaign never closes
    it. Like telemetry, it joins no job fingerprint — stores are
    bit-identical for any backend.
    """
    from repro.spec.campaign import require_spec
    spec = require_spec(spec, who="run_campaign")

    own_store = isinstance(store, (str, Path))
    if own_store:
        store = ResultStore(store)
    stats = stats if stats is not None else CampaignStats()
    from repro.telemetry import resolve_telemetry
    profile_on = bool(spec.profile if profile is None else profile)
    hub, own_hub = resolve_telemetry(
        spec.telemetry if telemetry is None else telemetry, store,
        profile=profile_on)

    specs: list[JobSpec] = []
    cell_ids: list[str] = []
    for config, name, cell_structures in iter_cells(spec):
        roots, cell_id = _cell_jobs(
            spec, config, name, cell_structures, store)
        specs.extend(roots)
        cell_ids.append(cell_id)
    if not specs:
        raise ConfigError(
            f"no runnable cells: none of the structures "
            f"{', '.join(spec.resolved_structures())} are exposed by the "
            f"selected GPUs"
        )

    # Campaign-level profile accumulator (folded from each cell's
    # profile as cells finish; profiled work time feeds the report's
    # coverage line).
    campaign_prof = {"data": None, "cells": 0, "work_s": 0.0}
    # Profiles of executed jobs whose cell has not completed yet.
    dep_profiles: dict[str, dict] = {}

    def on_complete(job: JobSpec, payload: dict, cached: bool,
                    profile: dict | None) -> None:
        if job.kind != jobs.CELL:
            if profile is not None:
                dep_profiles[job.job_id] = profile
            return
        # A cell's profile folds in its deps' and its own. Popping
        # attributes a golden shared by several cells of the campaign
        # once, to the first of them that completes.
        prof = None
        for dep in job.deps:
            prof = merge_profiles(prof, dep_profiles.pop(dep, None))
        prof = merge_profiles(prof, profile)
        if hub is not None:
            hub.record("cell_finish", **_cell_event(payload, cached))
            if prof is not None:
                hub.record(
                    "cell_profile",
                    gpu=payload.get("gpu"),
                    workload=payload.get("workload"),
                    fault_model=payload.get("fault_model"),
                    structures=sorted(payload.get("fi", {})),
                    profile=prof)
        if prof is not None:
            campaign_prof["data"] = merge_profiles(
                campaign_prof["data"], prof)
            campaign_prof["cells"] += 1
            campaign_prof["work_s"] += (
                payload.get("golden_time_s", 0.0)
                + payload.get("fi_time_s", 0.0))
        if progress is not None:
            progress(jobs.cell_from_payload(payload))

    begin = time.perf_counter()
    # Shared stats objects accumulate across campaigns (sweeps, `all`);
    # campaign_end reports this campaign's delta, not the running sum.
    base = (stats.total, stats.cached, stats.executed)
    if hub is not None:
        hub.record(
            "campaign_begin",
            name=spec.name,
            spec=spec.describe(),
            gpus=[config.name for config in spec.resolved_gpus()],
            workloads=spec.resolved_workloads(),
            scale=spec.resolved_scale(), samples=spec.resolved_samples(),
            seed=spec.seed,
            fault_model=spec.fault_model,
            structures=list(spec.resolved_structures()),
            suffix_memo=spec.resolved_suffix_memo(),
            cells=len(cell_ids), workers=workers,
            store=str(store.path) if store is not None and store.path
            else None)
    try:
        resolved = JobScheduler(store=store, workers=workers,
                                telemetry=hub, execution=execution,
                                profile=profile_on).run(
            specs, on_complete=on_complete, stats=stats)
        if hub is not None and campaign_prof["data"] is not None:
            hub.record(
                "campaign_profile", name=spec.name,
                cells=campaign_prof["cells"],
                work_s=campaign_prof["work_s"],
                profile=campaign_prof["data"])
        if hub is not None:
            hub.record(
                "campaign_end", name=spec.name, cells=len(cell_ids),
                jobs_total=stats.total - base[0],
                jobs_cached=stats.cached - base[1],
                jobs_executed=stats.executed - base[2],
                wall_s=time.perf_counter() - begin)
    finally:
        if own_hub and hub is not None:
            hub.close()
        if own_store:
            store.close()
    cells: list[CellResult] = [
        jobs.cell_from_payload(resolved[cell_id]) for cell_id in cell_ids
    ]
    return CampaignResult(cells=cells, stats=stats)


def _cell_event(payload: dict, cached: bool) -> dict:
    """Scalar cell_finish telemetry fields from one cell payload.

    ``injections`` counts every sampled plan across the cell's
    structures, ``resimulated`` the subset that survived dead-site
    pruning and was actually re-simulated — the FI shards' true work,
    and the numerator of the `status` view's samples/sec.
    """
    estimates = payload.get("fi", {})
    injections = sum(est.get("samples", 0) for est in estimates.values())
    resimulated = sum(est.get("resimulated", 0) for est in estimates.values())
    fi_time_s = payload.get("fi_time_s", 0.0)
    return {
        "gpu": payload.get("gpu"),
        "workload": payload.get("workload"),
        "cycles": payload.get("cycles"),
        "injections": injections,
        "resimulated": resimulated,
        "fi_time_s": fi_time_s,
        "samples_per_s": (resimulated / fi_time_s) if fi_time_s else None,
        "cached": cached,
    }
