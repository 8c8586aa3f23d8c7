"""Statistical fault-injection primitives (the GUFI / SIFI analogue).

This module holds the golden run, the one-fault re-simulation and the
per-structure AVF estimate. The campaign engine's jobs
(:mod:`repro.engine.jobs`) compose them into the one campaign path:

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
3. Replaying the golden run's recorded access trace
   (:class:`repro.sim.tracing.AccessTrace`) through the fault-site
   resolver marks every sampled fault provably-dead (classified MASKED
   without re-simulation) or potentially-live, honouring the model's
   liveness semantics (stuck-at faults survive write-backs; control
   sites resolve on hardware warp-slot occupancy). Inline campaigns
   record the trace during the golden run; otherwise (pooled or
   leased golden, or one resolved from a store) the resolver rides
   one more fault-free run.
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
from dataclasses import dataclass

from repro.arch.config import GpuConfig
from repro.errors import SimFault
from repro.kernels.workload import Workload, run_workload
from repro.reliability.liveness import (
    AceAccumulator,
    AceMode,
    OccupancyAccumulator,
)
from repro.reliability.outcomes import (
    FaultResult,
    Outcome,
    classify_outputs,
    count_corrupted_words,
)
from repro.reliability.sampling import margin_of_error
from repro.sim.faults import FaultPlan
from repro.sim.gpu import Gpu, default_watchdog_for
from repro.sim.tracing import AccessTrace, CompositeSink
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
    #: The run's access stream as fault-site pruning consumes it
    #: (None: not recorded).
    trace: AccessTrace | None = None


def run_golden(config: GpuConfig, workload: Workload, scheduler: str = "rr",
               ace_mode: AceMode = AceMode.CONSERVATIVE,
               checkpoint_interval=None,
               record_trace: bool = False) -> GoldenRun:
    """Run fault-free with ACE + occupancy tracing attached.

    ``checkpoint_interval`` — None (off), ``"auto"``, or a cycle count —
    additionally captures periodic full-machine snapshots
    (:mod:`repro.checkpoint`) that downstream fault injections restore
    instead of re-simulating the fault-free prefix. Capture only
    observes: the traced results are identical with or without it.

    ``record_trace`` additionally records the run's access stream
    (``trace``) for fault-site pruning to replay instead of simulating
    again. It grows with the run's events, so record it only where a
    plan will consume it.
    """
    monitor = None
    if checkpoint_interval is not None:
        from repro.checkpoint import CheckpointRecorder
        monitor = CheckpointRecorder(checkpoint_interval)
    ace = AceAccumulator(config, mode=ace_mode)
    occupancy = OccupancyAccumulator(config)
    trace = AccessTrace() if record_trace else None
    sink = CompositeSink(ace, occupancy, trace)
    gpu = Gpu(config, scheduler=scheduler, sink=sink)
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
        trace=trace,
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

    The deterministic re-simulation primitive behind the campaign
    engine's FI-shard jobs (:mod:`repro.engine.jobs`). ``fault_model``
    selects the disturbance semantics (default: transient single-bit
    flip).

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
