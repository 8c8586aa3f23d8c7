"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer at the name their
callers look up (a module attribute, a class attribute, or a worker
table entry), records one span per call — name, start, end, parent
span, plus a small per-call record — in memory, and derives the
per-layer metrics from the spans once the run ends. Nothing under
``src/`` changes: the wrappers are installed from the benchmark's own
files, in the benchmark's own process.

A span's *self time* is its duration minus the time its direct child
spans cover. That matters because snapshot capture, state digests and
memo probes run inside ``Gpu.launch`` through the run-monitor hooks:
the interpreter's own cost is the launch span's self time.

Parents are tracked per thread, so the campaign service's handler and
worker threads get their own span trees.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from time import perf_counter

#: Span names whose durations are interpreter (``sim``) work.
_LAUNCHES = ("gpu.launch", "gpu.resume_launch")


class Tracer:
    """In-memory span recorder that wraps functions in place."""

    def __init__(self):
        #: (span id, name, start, end, parent id or None, info)
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs inside the span before the call and its
        result is handed to ``after(args, result, state)``, whose
        return value becomes the span's info record.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            state = before(args) if before is not None else None
            result = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = (after(args, result, state)
                        if after is not None else None)
                tracer.spans.append(
                    (span_id, name, start, end, parent, info))

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        return traced

    def write(self, path) -> None:
        """Dump every span as one JSON line (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, info in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "info": info}) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark times."""
    from repro.checkpoint import capture, convergence, restore
    from repro.checkpoint.capture import CheckpointRecorder
    from repro.checkpoint.memo import SuffixMemo
    from repro.engine import jobs, matrix
    from repro.engine.scheduler import JobScheduler
    from repro.engine.service import worker
    from repro.engine.service.coordinator import RemoteBackend
    from repro.engine.service.worker import CampaignWorker, CoordinatorClient
    from repro.engine.store import ResultStore
    from repro.faultmodels.base import FaultModel
    from repro.reliability import fi
    from repro.sim.gpu import Gpu

    def launch_before(args):
        return args[0].instructions_issued

    def launch_after(args, result, before):
        gpu = args[0]
        return [gpu.config.isa, gpu.instructions_issued - before]

    def golden_points(args, result, state):
        snapshots = getattr(result, "snapshots", result)
        return len(snapshots.points) if snapshots is not None else 0

    def resim_outcome(args, result, state):
        if result is None:
            return None
        return [result.outcome.value, result.detail, bool(result.early_exit)]

    def memo_hit(args, result, state):
        return result is not None

    def lease_idle(args, result, state):
        return isinstance(result, dict) and result.get("job") is None \
            and not result.get("shutdown")

    wrap = tracer.wrap
    # sim (+isa): the interpreter entry points.
    wrap(Gpu, "launch", "gpu.launch", launch_before, launch_after)
    wrap(Gpu, "resume_launch", "gpu.resume_launch", launch_before,
         launch_after)
    # reliability: golden runs, pruning, re-simulation.
    for name in ("run_golden_job", "run_plan_job", "run_shard_job",
                 "reduce_cell_job"):
        wrap(jobs, name, f"jobs.{name}")
    wrap(jobs, "run_golden", "fi.run_golden", after=golden_points)
    # The golden simulation inside run_golden (the engine's only caller
    # of fi's run_workload); machine construction stays outside it.
    wrap(fi, "run_workload", "fi.run_workload")
    wrap(jobs, "resimulate_plan", "jobs.resimulate_plan",
         after=resim_outcome)
    # faultmodels: every concrete model's sampler.
    for model in FaultModel.__subclasses__():
        if "sample" in model.__dict__:
            wrap(model, "sample", "faultmodels.sample")
    # checkpoint: capture, restore, digest, memo.
    wrap(CheckpointRecorder, "begin_launch", "capture.begin_launch")
    wrap(CheckpointRecorder, "after_step", "capture.after_step")
    wrap(capture, "capture_snapshots", "capture.capture_snapshots",
         after=golden_points)
    wrap(restore, "restore_machine", "restore.restore_machine")
    wrap(restore, "resume_workload", "restore.resume_workload")
    wrap(convergence, "digest_machine", "convergence.digest_machine")
    wrap(convergence, "digest_machine_pair",
         "convergence.digest_machine_pair")
    wrap(SuffixMemo, "should_digest", "memo.should_digest")
    wrap(SuffixMemo, "observe", "memo.observe", after=memo_hit)
    # engine: scheduler, store, fingerprints.
    wrap(JobScheduler, "run", "scheduler.run")
    wrap(ResultStore, "__init__", "store.init")
    wrap(ResultStore, "put", "store.put")
    wrap(matrix, "fingerprint", "matrix.fingerprint")
    # engine.service: both ends of the lease/push protocol.
    wrap(RemoteBackend, "lease", "service.lease", after=lease_idle)
    wrap(RemoteBackend, "push", "service.push")
    wrap(RemoteBackend, "golden_blob", "service.golden_blob")
    wrap(CoordinatorClient, "_request", "service.roundtrip")
    wrap(CampaignWorker, "_fetch_golden", "service.fetch_golden")
    # The worker resolves job bodies through its own table, built at
    # import time: point it at the wrapped functions too.
    for kind, function in list(worker.WORKER_FUNCTIONS.items()):
        worker.WORKER_FUNCTIONS[kind] = getattr(jobs, function.__name__)


def _median(values: list) -> float:
    """Median, 0 for an empty list."""
    return statistics.median(values) if values else 0.0


def _p90(values: list) -> float:
    """90th percentile as ``statistics.quantiles`` gives it (0 if empty)."""
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(spans: list[tuple], jobs_executed: int) -> dict:
    """Per-layer metrics of one traced campaign (spans of that campaign).

    Times are seconds unless the name says ``ms``; counts are exact.
    """
    durations: dict[str, list] = {}
    child_time: dict[int, float] = {}
    for span_id, name, start, end, parent, info in spans:
        durations.setdefault(name, []).append(end - start)
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start

    def total(*names) -> float:
        return sum(sum(durations.get(n, ())) for n in names)

    def calls(*names) -> int:
        return sum(len(durations.get(n, ())) for n in names)

    def infos(name) -> list:
        return [s[5] for s in spans if s[1] == name]

    winstr = {"sass": 0, "si": 0}
    self_s = {"sass": 0.0, "si": 0.0}
    dispatch_self = 0.0
    for span_id, name, start, end, parent, info in spans:
        if name in _LAUNCHES:
            isa, count = info
            winstr[isa] += count
            self_s[isa] += end - start - child_time.get(span_id, 0.0)
        elif name == "scheduler.run":
            dispatch_self += end - start - child_time.get(span_id, 0.0)

    resims = [i for i in infos("jobs.resimulate_plan") if i is not None]
    resim_calls = calls("jobs.resimulate_plan")
    resim_ms = [d * 1e3 for d in durations.get("jobs.resimulate_plan", ())]
    capture_s = total("capture.begin_launch", "capture.after_step")
    memo_hits = sum(1 for hit in infos("memo.observe") if hit)
    puts_ms = [d * 1e3 for d in durations.get("store.put", ())]

    def per_s(isa):
        return winstr[isa] / self_s[isa] if self_s[isa] else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "sim.sass.winstr_per_s": per_s("sass"),
        "sim.si.winstr_per_s": per_s("si"),
        "sim.launch_self_s": self_s["sass"] + self_s["si"],
        "sim.winstr": winstr["sass"] + winstr["si"],
        # Golden simulation exclusive of capture, like the profiler's
        # ``golden`` phase (pooled rebuilds are golden re-runs too).
        "reliability.golden_s": total("fi.run_workload",
                                      "capture.capture_snapshots")
        - capture_s,
        "reliability.prune_s": total("jobs.run_plan_job")
        - total("faultmodels.sample"),
        "reliability.resim_calls": resim_calls,
        "reliability.resim_ms_p50": _median(resim_ms),
        "reliability.resim_ms_p90": _p90(resim_ms),
        "reliability.early_exit_ratio": ratio(
            sum(1 for r in resims if r[2]), resim_calls),
        "reliability.watchdog_dues": sum(
            1 for r in resims if r[1] == "WatchdogTimeout"),
        "faultmodels.sample_s": total("faultmodels.sample"),
        "checkpoint.capture_s": capture_s,
        "checkpoint.snapshots": sum(
            infos("fi.run_golden") + infos("capture.capture_snapshots")),
        "checkpoint.restore_s": total("restore.restore_machine"),
        "checkpoint.restore_calls": calls("restore.restore_machine"),
        "checkpoint.digest_s": total("convergence.digest_machine",
                                     "convergence.digest_machine_pair"),
        "checkpoint.digest_calls": calls("convergence.digest_machine",
                                         "convergence.digest_machine_pair"),
        "checkpoint.memo_probe_s": total("memo.should_digest",
                                         "memo.observe"),
        "checkpoint.memo_hit_ratio": ratio(memo_hits, resim_calls),
        "engine.jobs": jobs_executed,
        "engine.dispatch_ms_per_job": ratio(dispatch_self * 1e3,
                                            jobs_executed),
        "engine.fingerprint_s": total("matrix.fingerprint"),
        "engine.store_put_ms_p50": _median(puts_ms),
        "engine.store_put_s": total("store.put"),
        "engine.reduce_s": total("jobs.reduce_cell_job"),
        "service.lease_ms_p50": _median(
            [d * 1e3 for d in durations.get("service.lease", ())]),
        "service.push_ms_p50": _median(
            [d * 1e3 for d in durations.get("service.push", ())]),
        "service.roundtrip_ms_p50": _median(
            [d * 1e3 for d in durations.get("service.roundtrip", ())]),
        "service.golden_fetch_s": total("service.fetch_golden"),
        "service.idle_leases": sum(1 for idle in infos("service.lease")
                                   if idle),
    }


def phase_split(spans: list[tuple]) -> dict:
    """The traced totals the profiler's phase split should agree with.

    Mirrors :mod:`repro.telemetry.profile`'s exclusive phases: golden
    simulation without capture, pruning including fault sampling,
    restore, digest, and suffix simulation as re-simulation time minus
    the restore and digest inside it.
    """
    layers = layer_metrics(spans, jobs_executed=0)
    resim = sum(end - start for _, name, start, end, _, _ in spans
                if name == "jobs.resimulate_plan")
    return {
        "golden": layers["reliability.golden_s"],
        "prune": layers["reliability.prune_s"]
        + layers["faultmodels.sample_s"],
        "restore": layers["checkpoint.restore_s"],
        "digest": layers["checkpoint.digest_s"],
        "suffix_sim": resim - layers["checkpoint.restore_s"]
        - layers["checkpoint.digest_s"],
    }


#: Per-layer counts that must repeat exactly across traced runs.
EXACT_COUNTS = ("sim.winstr", "reliability.resim_calls",
                "checkpoint.restore_calls", "checkpoint.digest_calls")


def median_metrics(runs: list[dict]) -> dict:
    """Metric-wise median over several traced campaigns."""
    return {name: statistics.median(run[name] for run in runs)
            for name in runs[0]}
