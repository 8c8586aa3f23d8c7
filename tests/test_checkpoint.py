"""Checkpoint/restore subsystem: capture transparency, bit-identical
suffix-only fault injection, early-exit soundness, trace-suffix
transparency of restored runs.

The correctness bar (ISSUE 3): checkpointed FI must be bit-identical —
same per-sample MASKED/SDC/DUE outcomes and cycle counts — to full
re-simulation for all three fault models on both ISAs.
"""

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointRecorder,
    ConvergedToGolden,
    ConvergenceMonitor,
    MachineSnapshot,
    SnapshotPoint,
    SnapshotSet,
    SuffixMemo,
    capture_snapshots,
    restore_machine,
    resume_workload,
    run_faulty_from_checkpoints,
)
from repro.errors import ConfigError, SimFault
from repro.faultmodels.registry import get_fault_model
from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.reliability.fi import run_golden
from repro.reliability.outcomes import Outcome
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.sim.gpu import Gpu, default_watchdog_for
from repro.sim.tracing import EventRecorder
from tests.conftest import MINI_AMD, MINI_NVIDIA, sample_results

#: (config, workload) pairs covering both ISAs and multi-launch suites.
CASES = [
    (MINI_NVIDIA, "histogram"),
    (MINI_AMD, "matrixMul"),
]


def _golden_with_recorder(config, workload_name, interval="auto"):
    workload = get_workload(workload_name, "tiny")
    recorder = CheckpointRecorder(interval)
    result = run_workload(Gpu(config), workload, monitor=recorder)
    return workload, result, recorder.snapshots()


class TestCaptureTransparency:
    """Capturing snapshots must not perturb the simulation."""

    @pytest.mark.parametrize("config,workload_name", CASES,
                             ids=["sass", "si"])
    def test_monitored_run_identical_to_bare(self, config, workload_name):
        workload = get_workload(workload_name, "tiny")
        bare_events = EventRecorder()
        bare = run_workload(Gpu(config, sink=bare_events), workload)
        recorded_events = EventRecorder()
        recorder = CheckpointRecorder("auto")
        recorded = run_workload(Gpu(config, sink=recorded_events), workload,
                                monitor=recorder)
        assert bare.cycles == recorded.cycles
        assert bare.launch_cycles == recorded.launch_cycles
        for name in bare.outputs:
            assert np.array_equal(bare.outputs[name], recorded.outputs[name])
        assert bare_events.reg_events == recorded_events.reg_events
        assert bare_events.lmem_events == recorded_events.lmem_events
        assert bare_events.block_events == recorded_events.block_events
        assert recorder.snapshots().num_snapshots > 1

    def test_run_golden_results_independent_of_checkpointing(self):
        config, workload_name = CASES[0]
        workload = get_workload(workload_name, "tiny")
        plain = run_golden(config, workload)
        ckpt = run_golden(config, workload, checkpoint_interval="auto")
        assert plain.snapshots is None and ckpt.snapshots is not None
        assert plain.cycles == ckpt.cycles
        for structure in STRUCTURES:
            assert plain.ace.avf(structure) == ckpt.ace.avf(structure)
        for name in plain.outputs:
            assert np.array_equal(plain.outputs[name], ckpt.outputs[name])


class TestRestoreRoundTrip:
    """Restoring any snapshot and running on reproduces the golden run."""

    @pytest.mark.parametrize("config,workload_name", CASES,
                             ids=["sass", "si"])
    def test_every_point_resumes_to_golden(self, config, workload_name):
        workload, golden, snapshots = _golden_with_recorder(
            config, workload_name)
        mid_launch = 0
        for point in snapshots.points:
            if point.snapshot is None:
                continue
            mid_launch += point.snapshot.state["active"] is not None
            gpu, launches = restore_machine(config, workload, point)
            result = resume_workload(gpu, workload, launches, point.snapshot)
            assert result.cycles == golden.cycles, point.label
            assert result.launch_cycles == golden.launch_cycles, point.label
            for name in golden.outputs:
                assert np.array_equal(golden.outputs[name],
                                      result.outputs[name]), point.label
        assert mid_launch > 0, "no mid-launch snapshot exercised"

    def test_capture_snapshots_matches_recorder(self):
        """The shard-worker rebuild path produces the same point set."""
        config, workload_name = CASES[0]
        workload, _, from_recorder = _golden_with_recorder(
            config, workload_name, interval=200)
        rebuilt = capture_snapshots(config, workload, "rr", 200)
        assert [p.label for p in rebuilt.points] == \
               [p.label for p in from_recorder.points]
        assert [p.state_digest for p in rebuilt.points] == \
               [p.state_digest for p in from_recorder.points]


def _count_golden_digests(monkeypatch) -> list:
    """Record the snapshot of every lazy golden digest computed."""
    from repro.checkpoint import snapshot as snapshot_module
    hashed = []
    real = snapshot_module.digest_machine

    def counting(launch_index, launch_cycles, state):
        hashed.append(id(state))
        return real(launch_index, launch_cycles, state)

    monkeypatch.setattr(snapshot_module, "digest_machine", counting)
    return hashed


class TestLazyGoldenDigest:
    """Golden digests are hashed on first comparison, once per image."""

    def test_capture_computes_no_digest(self, monkeypatch):
        hashed = _count_golden_digests(monkeypatch)
        _, _, snapshots = _golden_with_recorder(*CASES[0], interval=1)
        assert snapshots.points and hashed == []
        assert all(p.digest is None for p in snapshots.points)

    def test_shared_snapshot_hashed_at_most_once(self, monkeypatch):
        config, workload_name = CASES[0]
        workload, _, snapshots = _golden_with_recorder(
            config, workload_name, interval=1)
        images = {id(p.snapshot) for p in snapshots.points}
        assert len(images) < len(snapshots.points), "no shared snapshot"
        hashed = _count_golden_digests(monkeypatch)
        for point in snapshots.points + snapshots.points:
            assert point.state_digest == point.snapshot.digest
        assert len(hashed) == len(images)
        assert len(set(hashed)) == len(hashed)

    def test_campaign_hashes_each_golden_image_at_most_once(
            self, monkeypatch):
        config = MINI_NVIDIA
        workload = get_workload("kmeans", "tiny")
        golden = run_golden(config, workload, checkpoint_interval="auto")
        hashed = _count_golden_digests(monkeypatch)
        results = sample_results(config, "kmeans", golden, 60, 3,
                                 memo=SuffixMemo())
        assert any(r.early_exit for r in results)
        assert 0 < len(hashed) == len(set(hashed))
        assert len(hashed) <= golden.snapshots.num_snapshots

    @pytest.mark.parametrize("config,workload_name", CASES,
                             ids=["sass", "si"])
    def test_digest_only_points_still_compare(self, config, workload_name):
        """Hand-built points carry their digest and no snapshot."""
        workload, golden, snapshots = _golden_with_recorder(
            config, workload_name)
        start = snapshots.points[1]

        def resume(points):
            gpu, launches = restore_machine(config, workload, start)
            monitor = ConvergenceMonitor(points)
            monitor.set_context(start.snapshot.launch_index,
                                start.snapshot.launch_cycles)
            return resume_workload(gpu, workload, launches, start.snapshot,
                                   monitor=monitor)

        later = snapshots.points_after(1)
        real = [SnapshotPoint(label=p.label, core_times=p.core_times,
                              digest=p.snapshot.digest) for p in later]
        # A fault-free run equals golden at the first later point.
        with pytest.raises(ConvergedToGolden) as converged:
            resume(real)
        assert converged.value.label == later[0].label
        wrong = [SnapshotPoint(label=p.label, core_times=p.core_times,
                               digest="0" * 64) for p in later]
        assert resume(wrong).cycles == golden.cycles


class TestTraceSuffixTransparency:
    """A sink on a restored run sees exactly the event-stream suffix."""

    @pytest.mark.parametrize("config,workload_name", CASES,
                             ids=["sass", "si"])
    def test_restored_sink_observes_suffix(self, config, workload_name):
        workload = get_workload(workload_name, "tiny")
        full = EventRecorder()
        recorder = CheckpointRecorder("auto")
        run_workload(Gpu(config, sink=full), workload, monitor=recorder)
        snapshots = recorder.snapshots()
        # A mid-run point (neither trivially-initial nor final).
        point = snapshots.points[len(snapshots.points) // 2]
        assert point.snapshot is not None
        suffix = EventRecorder()
        gpu, launches = restore_machine(config, workload, point, sink=suffix)
        resume_workload(gpu, workload, launches, point.snapshot)
        for stream in ("reg_events", "lmem_events", "block_events"):
            whole = getattr(full, stream)
            tail = getattr(suffix, stream)
            assert len(tail) <= len(whole)
            assert whole[len(whole) - len(tail):] == tail, stream
        assert suffix.end_cycle == full.end_cycle
        assert len(suffix.reg_events) < len(full.reg_events)


def _scratch_outcome(config, workload, plan, model, watchdog):
    gpu = Gpu(config)
    gpu.set_faults([plan], fault_model=model)
    gpu.set_watchdog(watchdog)
    try:
        result = run_workload(gpu, workload)
    except SimFault as fault:
        return ("due", type(fault).__name__)
    return ("done", result.cycles,
            {name: out.tobytes() for name, out in result.outputs.items()})


class TestSuffixFiBitIdentical:
    """Suffix-only faulty runs == from-scratch faulty runs, per sample."""

    @pytest.mark.parametrize("config,workload_name", CASES,
                             ids=["sass", "si"])
    @pytest.mark.parametrize("model_name", ["transient", "stuck_at", "mbu"])
    def test_plans_match_scratch(self, config, workload_name, model_name):
        workload, golden, snapshots = _golden_with_recorder(
            config, workload_name)
        model = get_fault_model(model_name)
        watchdog = default_watchdog_for(golden.cycles)
        rng = np.random.default_rng(11)
        suffix_used = 0
        for structure in STRUCTURES:
            for plan in model.sample(config, structure, golden.cycles,
                                     12, rng):
                reference = _scratch_outcome(config, workload, plan, model,
                                             watchdog)
                pos, point = snapshots.restore_point_for(plan.core, plan.cycle)
                suffix_used += point is not None
                try:
                    result = run_faulty_from_checkpoints(
                        config, workload, plan, "rr", watchdog, snapshots,
                        fault_model=model)
                    got = ("done", result.cycles,
                           {name: out.tobytes()
                            for name, out in result.outputs.items()})
                except ConvergedToGolden:
                    got = ("done", golden.cycles,
                           {name: out.tobytes()
                            for name, out in golden.outputs.items()})
                except SimFault as fault:
                    got = ("due", type(fault).__name__)
                assert got == reference, (model_name, plan)
        assert suffix_used > 0, "no plan exercised a snapshot restore"

    @pytest.mark.parametrize("model_name", ["transient", "stuck_at", "mbu"])
    def test_campaign_results_identical(self, model_name):
        """A campaign with/without snapshots: same per-sample rows."""
        config = MINI_NVIDIA
        workload = get_workload("histogram", "tiny")
        plain = run_golden(config, workload)
        ckpt = run_golden(config, workload, checkpoint_interval="auto")
        base = sample_results(config, "histogram", plain, 20, 9,
                              fault_model=model_name)
        fast = sample_results(config, "histogram", ckpt, 20, 9,
                              fault_model=model_name, memo=SuffixMemo())
        assert len(base) == len(fast) == 20 * len(STRUCTURES)
        for left, right in zip(base, fast):
            assert left.plan == right.plan
            assert left.outcome == right.outcome
            assert left.corrupted_words == right.corrupted_words
            assert left.cycles == right.cycles


class TestCampaignMemoStats:
    """A campaign's memo accounts for every live re-simulation."""

    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    def test_hits_plus_misses_cover_distinct_live_plans(self, config):
        workload = get_workload("histogram", "tiny")
        golden = run_golden(config, workload, checkpoint_interval="auto")
        memo = SuffixMemo()
        results = sample_results(config, "histogram", golden, 40, 3,
                                 memo=memo)
        live = {r.plan for r in results if r.resimulated}
        assert live, "no live plan drawn at this seed"
        assert memo.hits + memo.misses == len(live)


class TestEarlyExit:
    def test_early_exit_fires_and_is_masked(self):
        config = MINI_NVIDIA
        workload = get_workload("kmeans", "tiny")
        golden = run_golden(config, workload, checkpoint_interval="auto")
        results = sample_results(config, "kmeans", golden, 60, 3,
                                 memo=SuffixMemo())
        early = [r for r in results if r.early_exit]
        assert early, "expected convergence exits at this seed"
        assert all(r.outcome is Outcome.MASKED for r in early)
        assert all(r.cycles == golden.cycles for r in early)

    def test_persistent_model_never_early_exits(self):
        config = MINI_NVIDIA
        workload = get_workload("histogram", "tiny")
        golden = run_golden(config, workload, checkpoint_interval="auto")
        results = sample_results(config, "histogram", golden, 60, 4,
                                 fault_model="stuck_at", memo=SuffixMemo())
        assert not any(r.early_exit for r in results)


class TestSnapshotSet:
    def _point(self, label, core_times, with_snapshot=True):
        snapshot = MachineSnapshot(0, [], {}) if with_snapshot else None
        return SnapshotPoint(label=label, core_times=core_times,
                             digest="x", snapshot=snapshot)

    def test_restore_point_selection(self):
        snapshots = SnapshotSet(interval="auto", points=[
            self._point(("launch", 0), (0, 0)),
            self._point(("interval", 100), (120, 90)),
            self._point(("interval", 200), (210, 190), with_snapshot=False),
            self._point(("interval", 300), (310, 295)),
        ])
        # Latest point whose *target-core* clock precedes the fault.
        pos, point = snapshots.restore_point_for(0, 311)
        assert pos == 3 and point.label == ("interval", 300)
        pos, point = snapshots.restore_point_for(0, 300)
        # core 0 already at 310 at the last point; thinned point at 200
        # has no snapshot; falls back to the 100-cycle point.
        assert pos == 1 and point.label == ("interval", 100)
        pos, point = snapshots.restore_point_for(1, 295)
        assert pos == 1
        pos, point = snapshots.restore_point_for(0, 0)
        assert pos == -1 and point is None
        assert len(snapshots.points_after(-1)) == 4
        assert len(snapshots.points_after(1)) == 2
        assert snapshots.num_snapshots == 3

    def test_recorder_thinning_bounds_memory(self):
        config, workload_name = CASES[0]
        workload = get_workload(workload_name, "tiny")
        recorder = CheckpointRecorder(interval=1, max_snapshots=8)
        run_workload(Gpu(config), workload, monitor=recorder)
        snapshots = recorder.snapshots()
        assert 1 < len(snapshots.points) <= 8

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError, match="checkpoint interval"):
            CheckpointRecorder(interval=0)


class TestEphemeralPayloadKeys:
    def test_store_strips_underscore_keys(self, tmp_path):
        from repro.engine.store import ResultStore
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            store.put("fp1", "golden", {"cycles": 3, "_snapshots": object()})
            assert store.get("fp1") == {"cycles": 3}
        with ResultStore(path) as reloaded:
            assert reloaded.get("fp1") == {"cycles": 3}
