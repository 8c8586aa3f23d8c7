"""Statistical fault-injection engine (the GUFI / SIFI analogue).

Campaign flow per (GPU, benchmark, structure):

1. One traced fault-free run (shared with ACE/occupancy analysis)
   fixes the cycle count and the golden outputs.
2. ``samples`` fault sites are drawn by the campaign's *fault model*
   (:mod:`repro.faultmodels`) uniformly over the whole-chip structure
   x execution duration — transient single-bit flips by default,
   stuck-at defects or multi-bit upsets on request. Structures span
   the full registry (:mod:`repro.arch.structures`): the paper's
   datapath arrays plus the control structures (SIMT stacks,
   predicate/status registers, scheduler state).
3. One more traced golden run resolves every sampled fault as
   provably-dead (classified MASKED without re-simulation) or
   potentially-live, honouring the model's liveness semantics
   (stuck-at faults survive write-backs; control sites resolve on
   hardware warp-slot occupancy).
4. Every live fault is re-simulated with the model's disturbance
   applied at its cycle; the run is classified MASKED / SDC (bit-exact
   output comparison against the golden outputs) / DUE (simulator
   fault or watchdog hang).

``AVF_FI = (SDC + DUE) / samples``.

When the golden run captured checkpoints (:mod:`repro.checkpoint`),
step 4 becomes *suffix-only*: each live fault restores the nearest
machine snapshot before its fault cycle and simulates only the suffix,
and transient-class faults additionally exit early — classified MASKED
the moment the machine's state digest matches the golden one at the
same capture label. Outcomes and cycle counts are bit-identical to
full re-simulation either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import GpuConfig
from repro.errors import SimFault
from repro.faultmodels.registry import get_fault_model
from repro.kernels.workload import Workload, run_workload
from repro.reliability.liveness import (
    AceAccumulator,
    AceMode,
    FaultSiteResolver,
    OccupancyAccumulator,
)
from repro.reliability.outcomes import (
    FaultResult,
    Outcome,
    classify_outputs,
    count_corrupted_words,
)
from repro.reliability.sampling import margin_of_error
from repro.arch.structures import DATAPATH_STRUCTURES
from repro.sim.faults import FaultPlan
from repro.sim.gpu import Gpu, default_watchdog_for
from repro.sim.tracing import CompositeSink
from repro.telemetry import profile as _profile


@dataclass
class GoldenRun:
    """Traced fault-free execution of one workload on one chip."""

    config: GpuConfig
    workload_name: str
    scheduler: str
    cycles: int
    launch_cycles: list
    outputs: dict
    ace: AceAccumulator
    occupancy: OccupancyAccumulator
    wall_time_s: float
    #: Machine snapshots captured during the run (None: checkpointing
    #: off). When present, live-fault re-simulations run suffix-only.
    snapshots: object = None


def run_golden(config: GpuConfig, workload: Workload, scheduler: str = "rr",
               ace_mode: AceMode = AceMode.CONSERVATIVE,
               checkpoint_interval=None) -> GoldenRun:
    """Run fault-free with ACE + occupancy tracing attached.

    ``checkpoint_interval`` — None (off), ``"auto"``, or a cycle count —
    additionally captures periodic full-machine snapshots
    (:mod:`repro.checkpoint`) that downstream fault injections restore
    instead of re-simulating the fault-free prefix. Capture only
    observes: the traced results are identical with or without it.
    """
    monitor = None
    if checkpoint_interval is not None:
        from repro.checkpoint import CheckpointRecorder
        monitor = CheckpointRecorder(checkpoint_interval)
    ace = AceAccumulator(config, mode=ace_mode)
    occupancy = OccupancyAccumulator(config)
    gpu = Gpu(config, scheduler=scheduler, sink=CompositeSink(ace, occupancy))
    start = time.perf_counter()
    with _profile.phase("golden"):
        result = run_workload(gpu, workload, monitor=monitor)
    elapsed = time.perf_counter() - start
    return GoldenRun(
        config=config,
        workload_name=workload.name,
        scheduler=scheduler,
        cycles=result.cycles,
        launch_cycles=result.launch_cycles,
        outputs=result.outputs,
        ace=ace,
        occupancy=occupancy,
        wall_time_s=elapsed,
        snapshots=monitor.snapshots() if monitor is not None else None,
    )


@dataclass
class AvfEstimate:
    """Fault-injection AVF estimate for one structure."""

    structure: str
    samples: int
    masked: int
    sdc: int
    due: int
    pruned: int          # masked without re-simulation (dead sites)
    resimulated: int
    wall_time_s: float
    confidence: float = 0.99

    @property
    def failures(self) -> int:
        return self.sdc + self.due

    @property
    def avf(self) -> float:
        return self.failures / self.samples if self.samples else 0.0

    @property
    def sdc_rate(self) -> float:
        return self.sdc / self.samples if self.samples else 0.0

    @property
    def due_rate(self) -> float:
        return self.due / self.samples if self.samples else 0.0

    @property
    def margin(self) -> float:
        """Error margin at the configured confidence (paper footnote 4)."""
        return margin_of_error(self.samples, confidence=self.confidence)


@dataclass
class CampaignOutput:
    """Everything a fault-injection campaign produced."""

    estimates: dict            # structure -> AvfEstimate
    results: list = field(default_factory=list)  # list[FaultResult]
    #: Suffix-memo counters (hits/misses/collisions/entries) when the
    #: campaign ran memoized; None when the memo was off or the golden
    #: run captured no snapshots.
    memo: dict | None = None


def _memo_commit(memo, result: FaultResult) -> FaultResult:
    """Memoize a finished run's digest trail under its outcome."""
    if memo is not None:
        from repro.checkpoint import MemoRecord
        memo.misses += 1
        _profile.count("memo_misses")
        memo.commit(MemoRecord(
            outcome=result.outcome.value,
            detail=result.detail,
            corrupted_words=result.corrupted_words,
            cycles=result.cycles,
            early_exit=result.early_exit,
        ))
    return result


def resimulate_plan(config: GpuConfig, workload: Workload, plan: FaultPlan,
                    golden_outputs: dict, golden_cycles: int,
                    scheduler: str, fault_model=None,
                    snapshots=None, memo=None) -> FaultResult:
    """Faulty run for one live fault site.

    The single deterministic re-simulation primitive shared by the
    serial reference loop (:func:`run_fi_campaign`) and the campaign
    engine's FI-shard jobs (:mod:`repro.engine.jobs`). ``fault_model`` selects
    the disturbance semantics (default: transient single-bit flip).

    ``snapshots`` (a :class:`repro.checkpoint.SnapshotSet` from the
    golden run) switches to suffix-only simulation with the early-exit
    convergence check; the classification and the recorded cycle count
    are bit-identical to the full re-simulation either way.

    ``memo`` (a :class:`repro.checkpoint.SuffixMemo`; needs
    ``snapshots``) adds cross-sample memoization: runs quiescing to a
    state some earlier run of the campaign already classified reuse
    that outcome instead of simulating the suffix — still bit-identical
    (full dual-digest state equality implies identical evolution).
    """
    watchdog = default_watchdog_for(golden_cycles)
    if snapshots is None:
        memo = None
    elif memo is not None:
        memo.begin_run()
    try:
        if snapshots is not None:
            from repro.checkpoint import (
                ConvergedToGolden,
                MemoHit,
                run_faulty_from_checkpoints,
            )
            try:
                with _profile.phase("suffix_sim"):
                    result = run_faulty_from_checkpoints(
                        config, workload, plan, scheduler, watchdog,
                        snapshots, fault_model=fault_model, memo=memo)
            except ConvergedToGolden:
                # Full-state digest matched golden: the rest of the run
                # is provably the golden run — MASKED, golden cycles.
                _profile.count("exit:masked_early")
                return _memo_commit(memo, FaultResult(
                    plan, Outcome.MASKED, True,
                    cycles=golden_cycles, early_exit=True))
            except MemoHit as hit:
                # An earlier injection already classified this exact
                # machine state: reuse its result, and memoize this
                # run's own pre-hit trail under the same outcome.
                _profile.count("memo_hits")
                _profile.count(f"exit:memo:{hit.record.outcome}")
                memo.commit(hit.record)
                record = hit.record
                return FaultResult(
                    plan, Outcome(record.outcome), True,
                    detail=record.detail,
                    corrupted_words=record.corrupted_words,
                    cycles=record.cycles, early_exit=record.early_exit)
        else:
            with _profile.phase("suffix_sim"):
                gpu = Gpu(config, scheduler=scheduler)
                gpu.set_faults([plan], fault_model=fault_model)
                gpu.set_watchdog(watchdog)
                result = run_workload(gpu, workload)
    except SimFault as fault:
        _profile.count(f"exit:due:{type(fault).__name__}")
        return _memo_commit(memo, FaultResult(
            plan, Outcome.DUE, True, detail=type(fault).__name__))
    outcome = classify_outputs(golden_outputs, result.outputs)
    corrupted = (
        count_corrupted_words(golden_outputs, result.outputs)
        if outcome is Outcome.SDC else 0
    )
    _profile.count("exit:sdc" if outcome is Outcome.SDC else "exit:masked_full")
    return _memo_commit(memo, FaultResult(
        plan, outcome, True, corrupted_words=corrupted,
        cycles=result.cycles))


def run_fi_campaign(config: GpuConfig, workload: Workload, golden: GoldenRun,
                    samples: int, seed: int = 0,
                    structures: tuple = DATAPATH_STRUCTURES,
                    keep_results: bool = False,
                    fault_model=None,
                    suffix_memo: bool = True) -> CampaignOutput:
    """Run the statistical FI campaign for the given structures.

    The in-process reference loop: live faults are re-simulated one
    after another, in sorted plan order. Parallel campaigns go through
    the job-graph engine (:func:`repro.engine.run_campaign`), whose
    results the parity tests hold bit-identical to this loop.

    ``fault_model`` (name or :class:`~repro.faultmodels.FaultModel`)
    selects sampling/application/liveness semantics; the default
    transient model reproduces the paper's campaign bit for bit.

    ``suffix_memo`` (default on; needs a checkpointed golden run to
    take effect) shares classified quiescent states across the
    campaign's injections (:mod:`repro.checkpoint.memo`) — outcomes
    stay bit-identical, repeated suffixes are skipped.
    """
    model = get_fault_model(fault_model)
    rng = np.random.default_rng(seed)
    plans_by_structure = {
        structure: model.sample(config, structure, golden.cycles, samples, rng)
        for structure in structures
    }
    all_plans = [p for plans in plans_by_structure.values() for p in plans]

    # Pruning pass: one traced golden run resolving dead vs live sites.
    resolver = FaultSiteResolver(config, all_plans, fault_model=model)
    gpu = Gpu(config, scheduler=golden.scheduler, sink=resolver)
    run_workload(gpu, workload)

    live_plans = sorted(
        {p for p in all_plans if resolver.is_live(p)},
        key=lambda p: (p.structure, p.core, p.word, p.bit, p.cycle,
                       p.width, p.stuck_value),
    )
    memo = None
    if suffix_memo and golden.snapshots is not None:
        from repro.checkpoint import SuffixMemo
        memo = SuffixMemo()
    resim_start = time.perf_counter()
    resim_results = {
        plan: resimulate_plan(config, workload, plan, golden.outputs,
                              golden.cycles, golden.scheduler,
                              fault_model=model.name,
                              snapshots=golden.snapshots, memo=memo)
        for plan in live_plans
    }
    resim_time = time.perf_counter() - resim_start
    total_live = max(1, len(live_plans))

    output = CampaignOutput(estimates={})
    if memo is not None:
        output.memo = memo.stats()
    for structure, plans in plans_by_structure.items():
        masked = sdc = due = pruned = resims = 0
        results: list[FaultResult] = []
        for plan in plans:
            if not resolver.is_live(plan):
                masked += 1
                pruned += 1
                result = FaultResult(plan, Outcome.MASKED, False, detail="dead-site")
            else:
                result = resim_results[plan]
                resims += 1
                if result.outcome is Outcome.MASKED:
                    masked += 1
                elif result.outcome is Outcome.SDC:
                    sdc += 1
                else:
                    due += 1
            if keep_results:
                results.append(result)
        output.estimates[structure] = AvfEstimate(
            structure=structure,
            samples=len(plans),
            masked=masked,
            sdc=sdc,
            due=due,
            pruned=pruned,
            resimulated=resims,
            # Batch re-simulation time apportioned by this structure's share.
            wall_time_s=resim_time * resims / total_live,
        )
        output.results.extend(results)
    return output
