"""Fault-site pruning from a recorded golden trace.

The plan job no longer simulates the golden trajectory a second time:
it replays the golden run's :class:`AccessTrace` through the unchanged
:class:`FaultSiteResolver`. These tests hold the replay to the resolver
attached to a live run, and pin how the golden run's artifacts (its
trace and snapshot set) travel to the plan and shard jobs:

* replayed verdicts equal online verdicts for every kernel x both ISAs
  x three fault models x every exposed structure, control structures
  included;
* a plan job handed its golden job's trace issues no ``Gpu.launch``;
* without one, the plan job records the trace itself and writes
  byte-identical plan rows;
* an inline campaign hands every plan job its golden's trace (never
  persisted);
* every golden job records its trace and captures its snapshots on
  every backend; outside the driver both stay resident in the process
  that made them, and no ephemeral key reaches the driver;
* a golden loaded from the store costs one simulation, not a prune run
  plus a snapshot rebuild.
"""

from __future__ import annotations

import functools
import gc
import json
import weakref

import numpy as np
import pytest

from repro.arch.structures import (
    ALL_STRUCTURES,
    CONTROL_STRUCTURES,
    LOCAL_MEMORY,
    exposed_structures,
)
from repro.checkpoint import SnapshotSet
from repro.engine import clear_memory_cache, jobs, matrix, scheduler
from repro.engine.matrix import run_campaign
from repro.engine.store import ResultStore
from repro.faultmodels.registry import get_fault_model, list_fault_models
from repro.kernels.registry import get_workload, list_workloads
from repro.kernels.workload import run_workload
from repro.reliability.fi import run_golden
from repro.reliability.liveness import FaultSiteResolver
from repro.sim.gpu import Gpu
from repro.sim.tracing import AccessTrace, CompositeSink
from repro.spec import CampaignSpec
from tests.conftest import MINI_AMD, MINI_NVIDIA, counting_fault_free_runs

CONFIGS = {"sass": MINI_NVIDIA, "si": MINI_AMD}
KERNELS = [workload.name for workload in list_workloads("tiny")]
MODELS = list_fault_models()
SAMPLES = 150


@functools.lru_cache(maxsize=None)
def _verdicts(isa: str, kernel: str) -> dict:
    """model -> (plans, online verdicts, replayed verdicts) for one run."""
    config = CONFIGS[isa]
    workload = get_workload(kernel, "tiny")
    trace = AccessTrace()
    run_workload(Gpu(config, sink=trace), workload)
    structures = exposed_structures(config, ALL_STRUCTURES)
    rng = np.random.default_rng(7)
    plans = {
        model: [plan for structure in structures
                for plan in get_fault_model(model).sample(
                    config, structure, trace.end_cycle, SAMPLES, rng)]
        for model in MODELS
    }
    online = {model: FaultSiteResolver(config, plans[model], fault_model=model)
              for model in MODELS}
    run_workload(Gpu(config, sink=CompositeSink(*online.values())), workload)
    result = {}
    for model in MODELS:
        replayed = FaultSiteResolver(config, plans[model], fault_model=model)
        trace.replay(replayed)
        result[model] = (
            plans[model],
            [online[model].is_live(plan) for plan in plans[model]],
            [replayed.is_live(plan) for plan in plans[model]],
        )
    return result


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("isa", sorted(CONFIGS))
def test_replayed_verdicts_equal_online_verdicts(isa, kernel):
    for model, (plans, online, replayed) in _verdicts(isa, kernel).items():
        mismatches = [(plan, live) for plan, live, again
                      in zip(plans, online, replayed) if live != again]
        assert not mismatches, (model, mismatches[:3])


def test_the_comparison_sees_live_sites():
    """Every structure class has live sites somewhere in the matrix, so
    a replay that lost lmem events or slot frees cannot pass above."""
    live: dict[str, int] = {}
    for isa in CONFIGS:
        for kernel in KERNELS:
            for plans, online, _ in _verdicts(isa, kernel).values():
                for plan, is_live in zip(plans, online):
                    live[plan.structure] = live.get(plan.structure, 0) \
                        + is_live
    assert live[LOCAL_MEMORY] > 0
    for structure in CONTROL_STRUCTURES:
        assert live[structure] > 0, structure


def _golden_args(config, kernel, checkpoint_interval="auto"):
    return (config, kernel, "tiny", "rr", "conservative",
            checkpoint_interval)


def _plan_args(config, kernel, cycles, trace, model="transient"):
    return (config, kernel, "tiny", "rr", cycles, 40, 3,
            exposed_structures(config, ALL_STRUCTURES), model,
            f"{config.name}/{kernel}", None, trace)


@pytest.fixture(autouse=True)
def _no_resident_artifacts():
    clear_memory_cache()
    yield
    clear_memory_cache()


class _LaunchCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = Gpu.launch

        def counted(gpu, *args, **kwargs):
            self.calls += 1
            return original(gpu, *args, **kwargs)

        monkeypatch.setattr(Gpu, "launch", counted)


@pytest.mark.parametrize("isa", sorted(CONFIGS))
def test_plan_job_given_the_golden_trace_simulates_nothing(isa, monkeypatch):
    config = CONFIGS[isa]
    golden = jobs.run_golden_job(_golden_args(config, "histogram"))
    assert isinstance(golden["_trace"], AccessTrace)
    counter = _LaunchCounter(monkeypatch)
    jobs.run_plan_job(_plan_args(config, "histogram", golden["cycles"],
                                 golden["_trace"]))
    assert counter.calls == 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("isa", sorted(CONFIGS))
def test_plan_job_without_a_trace_records_it_and_gives_identical_rows(
        isa, model, monkeypatch):
    config = CONFIGS[isa]
    golden = jobs.run_golden_job(_golden_args(config, "scan"))
    hit = jobs.run_plan_job(_plan_args(config, "scan", golden["cycles"],
                                       golden["_trace"], model))
    counter = _LaunchCounter(monkeypatch)
    miss = jobs.run_plan_job(_plan_args(config, "scan", golden["cycles"],
                                        None, model))
    assert counter.calls > 0
    assert json.dumps(miss["plans"]) == json.dumps(hit["plans"])
    assert any(row[4] for rows in hit["plans"].values() for row in rows)


@pytest.mark.parametrize("interval", ["auto", None])
def test_golden_job_always_records_its_trace(interval):
    golden = jobs.run_golden_job(_golden_args(MINI_NVIDIA, "scan",
                                              interval))
    assert isinstance(golden["_trace"], AccessTrace)
    assert isinstance(golden.get("_snapshots"), SnapshotSet) \
        == (interval is not None)


def test_golden_trace_is_freed_with_its_last_reference():
    """The golden machine's object graph is cyclic garbage until the
    collector runs; the trace must not wait for it."""
    gc.disable()
    try:
        golden = run_golden(MINI_NVIDIA, get_workload("scan", "tiny"),
                            record_trace=True)
        trace = weakref.ref(golden.trace)
        del golden
        assert trace() is None
    finally:
        gc.enable()


def _plan_traces(monkeypatch, **kwargs) -> list:
    """The trace element of every plan job an inline campaign runs."""
    seen = []
    original = jobs.run_plan_job

    def spy(args):
        seen.append(args[-1])
        return original(args)

    monkeypatch.setattr(jobs, "run_plan_job", spy)
    spec = CampaignSpec(gpus=[MINI_NVIDIA, MINI_AMD],
                        workloads=["scan", "histogram"], samples=20,
                        scale="tiny", checkpoint_interval="auto")
    run_campaign(spec, **kwargs)
    return seen


def test_inline_campaign_hands_every_plan_its_golden_trace(monkeypatch,
                                                           tmp_path):
    traces = _plan_traces(monkeypatch, store=tmp_path / "store.jsonl")
    assert len(traces) == 4
    assert all(isinstance(trace, AccessTrace) for trace in traces)
    assert "_trace" not in (tmp_path / "store.jsonl").read_text()
    # Resumed, the goldens come from the store: nothing to hand over,
    # and the plan jobs are cached too.
    assert _plan_traces(monkeypatch, store=tmp_path / "store.jsonl") == []


SPEC = CampaignSpec(gpus=[MINI_NVIDIA, MINI_AMD], workloads=["scan"],
                    samples=20, scale="tiny", checkpoint_interval="auto")


def _golden_fps(spec) -> list[str]:
    return [matrix._fingerprints(spec, config, name, structures)[0]
            for config, name, structures in matrix.iter_cells(spec)]


def _artifact_types(artifacts: dict) -> dict:
    return {key: type(value).__name__ for key, value in artifacts.items()}


ARTIFACTS = {"_trace": "AccessTrace", "_snapshots": "SnapshotSet"}


def test_inline_golden_jobs_capture_and_record(monkeypatch):
    artifacts = []
    original = jobs.run_golden_job

    def spy(args):
        payload = original(args)
        # As returned: the cell's jobs pop them from the payload later.
        artifacts.append(_artifact_types(
            {k: v for k, v in payload.items() if k.startswith("_")}))
        return payload

    monkeypatch.setattr(jobs, "run_golden_job", spy)
    run_campaign(SPEC)
    assert artifacts == [ARTIFACTS, ARTIFACTS]
    # Inline runs cross no process boundary: nothing is kept resident.
    assert scheduler._RESIDENT == {}


def _resident_after(fingerprint: str) -> dict:
    """Pool-process probe: the artifacts resident under ``fingerprint``
    (nested: a payload's own ``_``-keys would stay behind)."""
    return {"held": _artifact_types(scheduler.resident(fingerprint))}


def test_pooled_golden_job_keeps_its_artifacts_in_its_process():
    [config, name, structures] = next(matrix.iter_cells(SPEC))
    golden_job, _ = matrix._cell_jobs(SPEC, config, name, structures,
                                      None)[0]
    backend = scheduler.ProcessPoolBackend(1)
    try:
        payload, _ = backend.submit(golden_job, golden_job.make_args({}),
                                    False).result(timeout=120)
        probe = matrix.JobSpec(job_id="probe", kind="probe",
                               fingerprint="probe", worker=_resident_after)
        held, _ = backend.submit(probe, golden_job.fingerprint,
                                 False).result(timeout=120)
    finally:
        backend.close()
    assert not any(key.startswith("_") for key in payload)
    assert held == {"held": ARTIFACTS}
    assert scheduler._RESIDENT == {}  # the driver holds none


def test_leased_golden_jobs_keep_their_artifacts_in_the_worker(
        tmp_path, monkeypatch):
    from repro.engine.service import CampaignService
    from tests.test_service import _run_distributed
    monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
    _run_distributed(ResultStore(tmp_path / "store.jsonl"), [SPEC],
                     worker_ids=("w1",))
    # The worker thread shares this process's registry.
    for fp in _golden_fps(SPEC):
        assert _artifact_types(scheduler.resident(fp)) == ARTIFACTS


@pytest.mark.parametrize("how", ["workers", "service"])
def test_no_ephemeral_key_reaches_the_driver(how, tmp_path, monkeypatch):
    seen = []
    original = scheduler._RunState.finish

    def spy(state, job, payload, cached, profile=None):
        seen.append((job.kind, sorted(payload)))
        return original(state, job, payload, cached, profile)

    monkeypatch.setattr(scheduler._RunState, "finish", spy)
    store = tmp_path / "store.jsonl"
    if how == "workers":
        run_campaign(SPEC, store=store, workers=2)
    else:
        from repro.engine.service import CampaignService
        from tests.test_service import _run_distributed
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
        _run_distributed(ResultStore(store), [SPEC], worker_ids=("w1",))
    kinds = {kind for kind, _ in seen}
    assert {"golden", "plan", "shard", "cell"} <= kinds
    assert not [(kind, keys) for kind, keys in seen
                if any(key.startswith("_") for key in keys)]


def test_store_resolved_golden_is_simulated_once(tmp_path):
    """Resumed from a store holding goldens but no plans, an inline
    campaign simulates each golden once: the plan job's run records the
    trace and captures the snapshots its cell's shards restore."""
    full = tmp_path / "full.jsonl"
    run_campaign(SPEC, store=full)
    goldens_only = tmp_path / "goldens.jsonl"
    goldens_only.write_text("".join(
        line + "\n" for line in full.read_text().splitlines()
        if json.loads(line)["kind"] == "golden"))
    clear_memory_cache()
    with counting_fault_free_runs() as counts:
        result = run_campaign(SPEC, store=goldens_only)
    assert result.stats.by_kind["golden"] == {"cached": 2, "executed": 0}
    assert result.stats.by_kind["shard"]["executed"] > 0
    assert counts["runs"] == 2
