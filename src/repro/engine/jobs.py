"""Job bodies and payload codecs for the campaign execution engine.

A matrix campaign decomposes into four job kinds per (GPU, benchmark)
cell:

* **golden** — one traced fault-free run: cycle count, launch cycles,
  ACE AVFs, occupancies, and the golden output buffers. Shared between
  cells (and, through the result store, campaigns) that agree on (gpu,
  workload, scale, scheduler, ace_mode).
* **plan** — fault sampling plus the dead-site pruning pass: one
  seeded generator draws the per-structure plan lists, each tagged
  provably-dead or potentially-live by replaying the golden run's
  access trace.
* **shard** — a contiguous slice of the sorted live plans, each fully
  re-simulated and classified MASKED / SDC / DUE. Shards of *different
  cells* run concurrently on the process pool.
* **cell** — pure reduction of the above into a
  :class:`repro.reliability.campaign.CellResult`; cheap, runs in the
  driver process.

Every golden job records its access trace and, with checkpoints on,
captures its snapshot set, on every backend. Both are ephemeral
``_``-keys of its payload. Inline they reach the cell's plan and
shards by reference; a pool process or fleet worker keeps them
resident under the golden fingerprint
(:func:`repro.engine.scheduler.keep_resident`), where the cell's jobs
that land in the same process find them. A plan or shard job that
finds neither (its golden came from the store, or ran in another
process) simulates the golden once and leaves the artifacts resident
for the jobs after it. An inline golden is left resident whole, and
a later inline campaign of the process resolves it from there
(:mod:`repro.engine.scheduler`).

All worker functions are module-level (picklable) and take one
plain-data argument tuple; payloads are JSON-serializable dicts so the
persistent store can replay them across processes. A body never knows
whether its campaign is profiled: the scheduler's
:func:`repro.engine.scheduler.run_job` runs it under a collector when
it is, and the bodies only mark phases.
"""

from __future__ import annotations

import base64
import time

import numpy as np

from repro.arch.config import GpuConfig
from repro.faultmodels.registry import get_fault_model
from repro.kernels.registry import get_workload
from repro.reliability.campaign import CellResult
from repro.reliability.epf import EpfResult, compute_epf
from repro.reliability.fi import AvfEstimate, resimulate_plan, run_golden
from repro.reliability.liveness import AceMode, FaultSiteResolver
from repro.reliability.outcomes import Outcome
from repro.arch.structures import DATAPATH_STRUCTURES
from repro.engine.scheduler import deposit, resident
from repro.sim.faults import FaultPlan
from repro.telemetry import profile as _profile

GOLDEN, PLAN, SHARD, CELL = "golden", "plan", "shard", "cell"


# ----------------------------------------------------------------------
# Output-buffer codec (numpy <-> JSON-safe dict)
# ----------------------------------------------------------------------

def encode_outputs(outputs: dict) -> dict:
    """Golden output buffers as JSON-safe base64 blobs."""
    return {
        name: {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "data": base64.b64encode(np.ascontiguousarray(array).tobytes())
            .decode("ascii"),
        }
        for name, array in outputs.items()
    }


def decode_outputs(payload: dict) -> dict:
    """Inverse of :func:`encode_outputs` (bit-exact round trip)."""
    return {
        name: np.frombuffer(
            base64.b64decode(blob["data"]), dtype=np.dtype(blob["dtype"])
        ).reshape(blob["shape"])
        for name, blob in payload.items()
    }


# ----------------------------------------------------------------------
# Golden job
# ----------------------------------------------------------------------

def run_golden_job(args: tuple) -> dict:
    """Worker: traced fault-free run -> plain-data golden payload.

    ACE AVFs and occupancies are recorded for *all* structures so one
    golden payload serves campaigns targeting any structure subset.

    The run's access trace rides along under the ephemeral ``_trace``
    key, for the cell's plan job. With a checkpoint interval (the last
    element; None for off) the run also captures machine snapshots,
    under ``_snapshots``, for the cell's FI shards to run suffix-only.
    The persisted payload is unchanged — the store strips ephemeral
    keys — so golden fingerprints stay interval-independent and old
    stores keep resolving.
    """
    (config, workload_name, scale, scheduler, ace_mode_value,
     checkpoint_interval) = args
    golden = run_golden(config, get_workload(workload_name, scale),
                        scheduler=scheduler,
                        ace_mode=AceMode(ace_mode_value),
                        checkpoint_interval=checkpoint_interval,
                        record_trace=True)
    payload = {
        "cycles": golden.cycles,
        "launch_cycles": [int(c) for c in golden.launch_cycles],
        "ace": {s: golden.ace.avf(s) for s in DATAPATH_STRUCTURES},
        "occupancy": {s: golden.occupancy.occupancy(s)
                      for s in DATAPATH_STRUCTURES},
        "wall_time_s": golden.wall_time_s,
        "outputs": encode_outputs(golden.outputs),
    }
    if golden.snapshots is not None:
        payload["_snapshots"] = golden.snapshots
    payload["_trace"] = golden.trace
    return payload


def _simulate_golden(golden_fp: str, config: GpuConfig, workload,
                     scheduler: str, checkpoint_interval) -> dict:
    """Simulate a golden this process does not hold; keep it resident.

    One fault-free run records the trace and captures the snapshot set
    together, so whichever of the cell's plan and shards lands here
    first pays for the golden once, for all of them.
    """
    golden = run_golden(config, workload, scheduler=scheduler,
                        checkpoint_interval=checkpoint_interval,
                        record_trace=True)
    artifacts = {"_trace": golden.trace}
    if golden.snapshots is not None:
        artifacts["_snapshots"] = golden.snapshots
    deposit(golden_fp, artifacts)
    return artifacts


def _golden_artifact(key: str, golden_fp: str, golden_args: tuple):
    """Ephemeral golden artifact ``key``: resident, or simulated here.

    ``golden_args`` are (config, workload, scheduler, checkpoint
    interval). A resident snapshot set may come from another interval;
    any set is correct, it only changes wall time.
    """
    artifact = resident(golden_fp).get(key)
    if artifact is None:
        artifact = _simulate_golden(golden_fp, *golden_args)[key]
    return artifact


# ----------------------------------------------------------------------
# Fault-plan row codec (FaultPlan <-> JSON-safe row / sortable key)
# ----------------------------------------------------------------------
#
# Plan-payload rows are ``[core, word, bit, cycle, alive]`` for
# default-geometry plans (single transient-style bit) — byte-identical
# to the single-model store format, so old stores keep resolving — and
# grow a ``[..., width, stuck_value]`` suffix only for plans that need
# it (MBU clusters, stuck-at polarity). Keys prepend the structure and
# drop ``alive``.

def encode_plan_row(plan: FaultPlan, alive: bool) -> list:
    """JSON row for one sampled plan (+ its pruning verdict)."""
    row = [plan.core, plan.word, plan.bit, plan.cycle, bool(alive)]
    if plan.width != 1 or plan.stuck_value != -1:
        row += [plan.width, plan.stuck_value]
    return row


def plan_key_from_row(structure: str, row: list) -> tuple:
    """(structure, core, word, bit, cycle[, width, stuck]) sort key."""
    return (structure, row[0], row[1], row[2], row[3], *row[5:])


def plan_from_key(key: tuple) -> FaultPlan:
    """Rehydrate a FaultPlan from a plan key (inverse of the above)."""
    structure, core, word, bit, cycle, *extra = key
    width, stuck_value = extra if extra else (1, -1)
    return FaultPlan(structure=structure, core=core, word=word, bit=bit,
                     cycle=cycle, width=width, stuck_value=stuck_value)


# ----------------------------------------------------------------------
# Plan (sampling + pruning) job
# ----------------------------------------------------------------------

def run_plan_job(args: tuple) -> dict:
    """Worker: draw fault plans and prune provably-dead sites.

    Sampling is this job's alone: one generator seeded with ``seed``,
    structures drawn in campaign order through the campaign's fault
    model, so a cell's plans depend on (chip, workload, cycles,
    samples, seed, structures, model) and never on pool size or shard
    size. The retired serial loop drew the same plans; its frozen
    verdict is ``tests/fixtures/serial_campaign``.

    Pruning replays the golden run's access trace through
    :class:`FaultSiteResolver`; the verdicts equal those of a resolver
    attached to a live golden run. The trace is the last element when
    an inline golden job hands it over by reference; otherwise it is
    looked up in this process under the golden fingerprint, and on a
    miss one fault-free run records it and captures the snapshot set
    (at the checkpoint interval, the element before the trace) for the
    cell's shards.
    """
    (config, workload_name, scale, scheduler, cycles, samples, seed,
     structures, fault_model, golden_fp, checkpoint_interval, trace) = args
    model = get_fault_model(fault_model)
    start = time.perf_counter()
    golden_args = (config, get_workload(workload_name, scale), scheduler,
                   checkpoint_interval)
    if trace is None:
        trace = _golden_artifact("_trace", golden_fp, golden_args)
    with _profile.phase("prune"):
        rng = np.random.default_rng(seed)
        plans_by_structure = {
            structure: model.sample(config, structure, cycles, samples, rng)
            for structure in structures
        }
        all_plans = [p for plans in plans_by_structure.values()
                     for p in plans]
        resolver = FaultSiteResolver(config, all_plans, fault_model=model)
        trace.replay(resolver)
    return {
        "plans": {
            structure: [
                encode_plan_row(p, resolver.is_live(p)) for p in plans
            ]
            for structure, plans in plans_by_structure.items()
        },
        "wall_time_s": time.perf_counter() - start,
    }


def live_plan_keys(plan_payload: dict) -> list[tuple]:
    """Deduplicated live plans in re-simulation order.

    Keys are (structure, core, word, bit, cycle[, width, stuck])
    tuples in sorted order; shard jobs cover contiguous slices of this
    list, so a plan sampled twice is re-simulated once.
    """
    live = {
        plan_key_from_row(structure, row)
        for structure, rows in plan_payload["plans"].items()
        for row in rows
        if row[4]
    }
    return sorted(live)


# ----------------------------------------------------------------------
# FI shard job
# ----------------------------------------------------------------------

#: Per-process decoded golden outputs, keyed by golden fingerprint —
#: a worker running many shards of one cell decodes the blobs once.
_DECODED_OUTPUTS: dict[str, dict] = {}
_DECODED_OUTPUTS_MAX = 8


def _decoded_outputs_for(golden_fp: str, outputs_encoded: dict) -> dict:
    outputs = _DECODED_OUTPUTS.get(golden_fp)
    if outputs is None:
        if len(_DECODED_OUTPUTS) >= _DECODED_OUTPUTS_MAX:
            _DECODED_OUTPUTS.pop(next(iter(_DECODED_OUTPUTS)))
        outputs = _DECODED_OUTPUTS[golden_fp] = decode_outputs(outputs_encoded)
    return outputs


def _snapshots_for(golden_fp: str, checkpoint_interval, snapshots,
                   config, workload, scheduler: str):
    """This shard's snapshot set: by reference, resident, or simulated.

    Inline campaigns pass the golden job's set by reference. Otherwise
    it is the set resident in this process under the golden
    fingerprint — left by the golden job or by an earlier plan or
    shard job of the cell — or, on a miss, one fault-free run
    captures it and leaves it resident (:func:`_golden_artifact`).
    """
    if checkpoint_interval is None:
        return None
    if snapshots is not None:
        return snapshots
    return _golden_artifact("_snapshots", golden_fp,
                            (config, workload, scheduler,
                             checkpoint_interval))


def run_shard_job(args: tuple) -> dict:
    """Worker: re-simulate one slice of live fault plans.

    Result rows are ``[*plan_key, outcome, detail, corrupted]`` — the
    same 8-element flat rows as the single-model era for default plan
    keys, with the key's width/stuck suffix inlined for extended ones.

    The trailing args (snapshots, checkpoint_interval, suffix_memo
    flag; None/False for off) switch the re-simulations to suffix-only
    restore with early-exit convergence and/or share classified
    quiescent states across the campaign's injections via the
    per-process suffix memo (:mod:`repro.checkpoint.memo`, keyed by
    golden fingerprint + fault model); rows are bit-identical either
    way, so shard fingerprints — and parity between checkpointed and
    un-checkpointed stores — are unaffected.
    """
    (config, workload_name, scale, scheduler, cycles, golden_fp,
     outputs_encoded, plan_keys, fault_model, snapshots,
     checkpoint_interval, suffix_memo) = args
    outputs = _decoded_outputs_for(golden_fp, outputs_encoded)
    workload = get_workload(workload_name, scale)
    start = time.perf_counter()
    snapshots = _snapshots_for(golden_fp, checkpoint_interval, snapshots,
                               config, workload, scheduler)
    memo = None
    if suffix_memo and snapshots is not None:
        from repro.checkpoint import cached_memo
        memo = cached_memo(("golden-fp", golden_fp, fault_model))
    results = []
    for key in plan_keys:
        plan = plan_from_key(tuple(key))
        result = resimulate_plan(config, workload, plan, outputs, cycles,
                                 scheduler, fault_model=fault_model,
                                 snapshots=snapshots, memo=memo)
        results.append([
            *key, result.outcome.value, result.detail,
            result.corrupted_words,
        ])
    return {"results": results, "wall_time_s": time.perf_counter() - start}


# ----------------------------------------------------------------------
# Reduce-to-cell job (driver-side)
# ----------------------------------------------------------------------

def reduce_cell_job(config: GpuConfig, workload_name: str, scale: str,
                    scheduler: str, samples: int, seed: int,
                    structures: tuple, raw_fit_per_bit: float,
                    uses_local_memory: bool, golden_payload: dict,
                    plan_payload: dict, shard_payloads: list,
                    fault_model: str = "transient") -> dict:
    """Combine golden + plan + shard payloads into one cell payload.

    This is the campaign's only outcome counting: pruned sites count
    as MASKED without re-simulation, and a plan sampled more than once
    counts once per sample through the shared outcome map. The counts,
    EPF and cycles match the retired serial loop's frozen verdict
    (``tests/fixtures/serial_campaign``) bit for bit.
    """
    outcome_by_key: dict[tuple, tuple] = {}
    resim_time = 0.0
    for shard in shard_payloads:
        resim_time += shard["wall_time_s"]
        for row in shard["results"]:
            outcome_by_key[tuple(row[:-3])] = (
                Outcome(row[-3]), row[-2], row[-1])
    total_live = max(1, len(live_plan_keys(plan_payload)))

    estimates: dict[str, dict] = {}
    avf_for_epf: dict[str, float] = {}
    for structure in structures:
        rows = plan_payload["plans"][structure]
        masked = sdc = due = pruned = resims = 0
        for row in rows:
            if not row[4]:
                masked += 1
                pruned += 1
                continue
            outcome, _, _ = outcome_by_key[plan_key_from_row(structure, row)]
            resims += 1
            if outcome is Outcome.MASKED:
                masked += 1
            elif outcome is Outcome.SDC:
                sdc += 1
            else:
                due += 1
        estimates[structure] = {
            "structure": structure,
            "samples": len(rows),
            "masked": masked,
            "sdc": sdc,
            "due": due,
            "pruned": pruned,
            "resimulated": resims,
            "wall_time_s": resim_time * resims / total_live,
        }
        avf_for_epf[structure] = (
            (sdc + due) / len(rows) if rows else 0.0
        )

    epf = compute_epf(config, workload_name, golden_payload["cycles"],
                      avf_for_epf, raw_fit_per_bit)
    return {
        "gpu": config.name,
        "workload": workload_name,
        "scale": scale,
        "scheduler": scheduler,
        "cycles": golden_payload["cycles"],
        "num_launches": len(golden_payload["launch_cycles"]),
        "fi": estimates,
        # Golden payloads record ACE/occupancy for the datapath pair
        # only (keeping them byte-identical across structure-taxonomy
        # growth, so old stores keep resolving); control structures
        # have no ACE/occupancy model and report 0.0 — exactly what the
        # golden run's accumulators return for them.
        "ace": {s: golden_payload["ace"].get(s, 0.0) for s in structures},
        "occupancy": {s: golden_payload["occupancy"].get(s, 0.0)
                      for s in structures},
        "epf": {
            "gpu": epf.gpu,
            "workload": epf.workload,
            "cycles": epf.cycles,
            "t_exec_s": epf.t_exec_s,
            "eit": epf.eit,
            "fit_by_structure": epf.fit_by_structure,
            "fit_gpu": epf.fit_gpu,
            "epf": epf.epf,
        },
        "golden_time_s": golden_payload["wall_time_s"],
        "fi_time_s": plan_payload["wall_time_s"] + resim_time,
        "samples": samples,
        "seed": seed,
        "uses_local_memory": uses_local_memory,
        "fault_model": fault_model,
    }


def cell_from_payload(payload: dict) -> CellResult:
    """Rehydrate a :class:`CellResult` from a stored cell payload."""
    fi = {
        structure: AvfEstimate(**est)
        for structure, est in payload["fi"].items()
    }
    epf = EpfResult(**payload["epf"]) if payload["epf"] is not None else None
    return CellResult(
        gpu=payload["gpu"],
        workload=payload["workload"],
        scale=payload["scale"],
        scheduler=payload["scheduler"],
        cycles=payload["cycles"],
        num_launches=payload["num_launches"],
        fi=fi,
        ace=dict(payload["ace"]),
        occupancy=dict(payload["occupancy"]),
        epf=epf,
        golden_time_s=payload["golden_time_s"],
        fi_time_s=payload["fi_time_s"],
        samples=payload["samples"],
        seed=payload["seed"],
        uses_local_memory=payload["uses_local_memory"],
        # Cell payloads from the single-model era predate the key.
        fault_model=payload.get("fault_model", "transient"),
    )
