"""Dependency-aware job scheduler for campaign execution.

The scheduler drives an arbitrary DAG of :class:`JobSpec`\\ s:

* jobs whose fingerprint is already in the persistent store (or the
  in-process golden cache) resolve instantly as *cached*;
* pool jobs (a picklable ``worker`` + ``make_args``) run on an
  :class:`ExecutionBackend` as soon as their dependencies resolve —
  the local :class:`ProcessPoolBackend` by default, or the campaign
  service's ``RemoteBackend`` (:mod:`repro.engine.service`) leasing
  them to a fleet of HTTP workers; with ``workers <= 1`` and no
  backend everything runs inline in deterministic admission order
  instead;
* a payload leaving another process drops its ephemeral ``_``-keys
  (a golden run's snapshot set and access trace), which stay resident
  in the process that made them (:func:`keep_resident`);
* driver jobs (``reduce_fn``) run in the scheduling process the moment
  they are ready (they are cheap reductions);
* a completed job may *expand* into further jobs (the FI shards and the
  cell reduction only exist once the plan job has revealed the live
  fault sites), which are admitted through the same cache check.

Payload equality is guaranteed by construction — every job body is a
deterministic function of its fingerprinted parameters — so neither the
worker count, the execution backend, nor the completion order can
change any result.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable

from repro.engine.store import ResultStore
from repro.telemetry import profile as _profile

#: In-process payload cache for jobs flagged ``cache_in_memory`` —
#: golden runs, so repeated campaigns in one process (sample/seed
#: sweeps, fig1+fig2+fig3) never re-simulate an identical golden run.
#: LRU-bounded: golden payloads carry full output buffers, so an
#: unbounded cache would grow monotonically in long sweep processes.
_MEMORY_CACHE: dict[str, dict] = {}
_MEMORY_CACHE_MAX = 64


def _memory_cache_get(fp: str) -> dict | None:
    payload = _MEMORY_CACHE.get(fp)
    if payload is not None:
        _MEMORY_CACHE[fp] = _MEMORY_CACHE.pop(fp)  # mark most-recent
    return payload


def _memory_cache_put(fp: str, payload: dict) -> None:
    _MEMORY_CACHE.pop(fp, None)
    while len(_MEMORY_CACHE) >= _MEMORY_CACHE_MAX:
        _MEMORY_CACHE.pop(next(iter(_MEMORY_CACHE)))
    # Like the persistent store, the cache holds the fingerprinted
    # result only: ephemeral ``_``-keys (golden machine snapshots, up
    # to 12 MB pickled at ``default`` scale, and access traces) live
    # exactly as long as the campaign that produced them.
    _MEMORY_CACHE[fp] = {
        k: v for k, v in payload.items() if not k.startswith("_")
    }


def clear_memory_cache() -> None:
    """Drop the in-process golden-run cache and resident artifacts
    (benchmarks and tests use this)."""
    _MEMORY_CACHE.clear()
    _RESIDENT.clear()


#: Ephemeral artifacts kept in the process that made them: the
#: ``_``-keys of payloads (a golden run's snapshot set and access
#: trace) that never cross a process boundary, keyed by the producing
#: job's fingerprint. LRU-bounded: a ``small``-scale golden's artifacts
#: take a few MB, a ``default``-scale one's up to about 15 MB.
_RESIDENT: dict[str, dict] = {}
_RESIDENT_MAX = 4


def resident(fingerprint: str) -> dict:
    """The artifacts this process holds for ``fingerprint`` ({} if none)."""
    artifacts = _RESIDENT.pop(fingerprint, None)
    if artifacts is None:
        return {}
    _RESIDENT[fingerprint] = artifacts  # mark most-recent
    return artifacts


def deposit(fingerprint: str, artifacts: dict) -> None:
    """Keep ``artifacts`` resident under ``fingerprint`` (merged)."""
    merged = {**_RESIDENT.pop(fingerprint, {}), **artifacts}
    while len(_RESIDENT) >= _RESIDENT_MAX:
        _RESIDENT.pop(next(iter(_RESIDENT)))
    _RESIDENT[fingerprint] = merged


def keep_resident(fingerprint: str, payload: dict) -> dict:
    """``payload`` fit to cross a process boundary.

    Its ephemeral ``_``-keys stay behind in this process's registry
    under the producing job's ``fingerprint``: a later job here finds
    them through :func:`resident` instead of re-simulating. The
    process pool's runner and the fleet worker's push both pass
    through this one rule; inline runs cross no boundary and keep
    passing the artifacts by reference.
    """
    artifacts = {k: v for k, v in payload.items() if k.startswith("_")}
    if not artifacts:
        return payload
    deposit(fingerprint, artifacts)
    return {k: v for k, v in payload.items() if not k.startswith("_")}


def run_job(body: Callable, arg, profile: bool) -> tuple:
    """``(body(arg), profile dict | None)``: the one profiling runner.

    With ``profile`` the body runs under a fresh collector. Inline jobs,
    driver reductions, pool processes and fleet workers all call it.
    """
    if not profile:
        return body(arg), None
    collector = _profile.ProfileCollector()
    with _profile.collecting(collector):
        payload = body(arg)
    return payload, collector.as_dict()


def run_resident(body: Callable, arg, profile: bool,
                 fingerprint: str) -> tuple:
    """:func:`run_job` in another process: the payload leaves it
    through :func:`keep_resident`."""
    payload, prof = run_job(body, arg, profile)
    return keep_resident(fingerprint, payload), prof


def _payload_work_s(payload, default: float) -> float:
    """A job's in-worker seconds for telemetry (occupancy basis).

    Golden/plan/shard payloads self-report ``wall_time_s`` measured
    inside the worker; preferring it keeps pool queue wait out of the
    occupancy numbers. Reductions (no self-report) fall back to the
    driver-observed wall time.
    """
    if isinstance(payload, dict):
        work = payload.get("wall_time_s")
        if isinstance(work, (int, float)):
            return float(work)
    return default


class ExecutionBackend:
    """Where the scheduler's pool-eligible jobs execute.

    A backend receives each ready pool job (``worker``, argument tuple,
    profile flag) and returns a :class:`concurrent.futures.Future`
    resolving to its :func:`run_job` result ``(payload, profile)``.
    The scheduler never cares *where* the body runs — a local process pool (:class:`ProcessPoolBackend`) and the
    campaign service's lease queue
    (:class:`repro.engine.service.RemoteBackend`) are interchangeable
    by the engine's determinism contract: every job body is a pure
    function of its fingerprinted parameters.

    ``capacity`` bounds the jobs the scheduler keeps submitted at once
    (None: no bound). The scheduler fills free slots newest job first,
    so with a bound a finished golden's plan and shards start before
    older queued work, in the process that just went idle — the one
    holding that golden's resident artifacts.
    """

    capacity: int | None = None

    def submit(self, job: "JobSpec", args: tuple, profile: bool) -> Future:
        """Start one pool job; the Future resolves to (payload, profile)."""
        raise NotImplementedError

    def tick(self) -> None:
        """Periodic housekeeping between completions (lease expiry)."""

    def close(self) -> None:
        """Release backend resources (only called on owned backends)."""


class ProcessPoolBackend(ExecutionBackend):
    """The classic local backend: one ``ProcessPoolExecutor``."""

    def __init__(self, workers: int):
        self.capacity = max(1, int(workers))
        self._pool = ProcessPoolExecutor(max_workers=self.capacity)

    def submit(self, job: "JobSpec", args: tuple, profile: bool) -> Future:
        return self._pool.submit(run_resident, job.worker, args, profile,
                                 job.fingerprint)

    def close(self) -> None:
        self._pool.shutdown()


@dataclass
class JobSpec:
    """One schedulable job."""

    job_id: str
    kind: str
    fingerprint: str
    deps: tuple = ()
    #: module-level picklable function for process-pool execution
    worker: Callable | None = None
    #: dep payloads (job_id -> payload) -> worker argument tuple
    make_args: Callable | None = None
    #: driver-side body: dep payloads -> payload (mutually exclusive
    #: with ``worker``)
    reduce_fn: Callable | None = None
    #: (payload, resolved dep payloads) -> list[JobSpec] admitted
    #: after this job completes
    expand: Callable | None = None
    persist: bool = True
    cache_in_memory: bool = False


@dataclass
class CampaignStats:
    """Job accounting for one campaign run (the CLI summary)."""

    total: int = 0
    cached: int = 0
    executed: int = 0
    by_kind: dict = field(default_factory=dict)

    def count(self, kind: str, cached: bool) -> None:
        self.total += 1
        bucket = self.by_kind.setdefault(kind, {"cached": 0, "executed": 0})
        if cached:
            self.cached += 1
            bucket["cached"] += 1
        else:
            self.executed += 1
            bucket["executed"] += 1

    def merge(self, other: "CampaignStats") -> None:
        """Fold another campaign's accounting into this one (sweeps)."""
        self.total += other.total
        self.cached += other.cached
        self.executed += other.executed
        for kind, counts in other.by_kind.items():
            bucket = self.by_kind.setdefault(
                kind, {"cached": 0, "executed": 0})
            for key, value in counts.items():
                bucket[key] = bucket.get(key, 0) + value

    def summary(self) -> str:
        detail = ", ".join(
            f"{kind}={counts['cached']}+{counts['executed']}"
            for kind, counts in sorted(self.by_kind.items())
        )
        return (
            f"campaign: {self.total} jobs — {self.cached} cached, "
            f"{self.executed} executed ({detail}; cached+executed per kind)"
        )


class JobScheduler:
    """Execute a (dynamically expanding) job DAG with store caching.

    ``telemetry`` (a :class:`repro.telemetry.TelemetryHub`, optional)
    receives the scheduler's observability stream: per-job
    ``job_start`` / ``job_finish`` / ``job_cached`` events carrying
    the queue depth and in-flight worker count at emission time, and
    ``golden_cache`` hit/miss probes of the in-process memory cache.
    Emission is strictly observability-only — it never changes job
    admission order, payloads, or anything the store records.
    """

    def __init__(self, store: ResultStore | None = None, workers: int = 1,
                 telemetry=None, execution: ExecutionBackend | None = None,
                 profile: bool = False):
        self.store = store
        self.workers = max(1, int(workers))
        self.telemetry = telemetry
        self.profile = profile
        #: caller-owned execution backend; None = inline or an owned
        #: process pool, by ``workers``.
        self.execution = execution

    # ------------------------------------------------------------------
    def run(self, jobs: list[JobSpec], on_complete: Callable | None = None,
            stats: CampaignStats | None = None) -> dict[str, dict]:
        """Run every job (plus expansions); returns job_id -> payload.

        ``on_complete(job, payload, cached, profile)`` sees each job
        resolve; ``profile`` is None unless it executed profiled.
        """
        state = _RunState(self, on_complete,
                          stats if stats is not None else CampaignStats())
        for job in jobs:
            state.admit(job)
        if self.execution is not None:
            state.run_backend(self.execution)
        elif self.workers <= 1:
            state.run_inline()
        else:
            backend = ProcessPoolBackend(self.workers)
            try:
                state.run_backend(backend)
            finally:
                backend.close()
        if state.pending:
            unmet = sorted(state.pending)
            raise RuntimeError(
                f"jobs with unsatisfiable dependencies: {unmet[:5]}"
            )
        return state.resolved


class _RunState:
    """Mutable bookkeeping for one scheduler run."""

    def __init__(self, scheduler: JobScheduler, on_complete, stats):
        self.store = scheduler.store
        self.on_complete = on_complete
        self.stats = stats
        self.telemetry = scheduler.telemetry
        self.workers = scheduler.workers
        self.profile = scheduler.profile
        self.running = 0
        self.resolved: dict[str, dict] = {}
        self.pending: dict[str, JobSpec] = {}
        self.seen: set[str] = set()

    def emit(self, event_type: str, job: JobSpec, **fields) -> None:
        """One telemetry event about ``job`` (no-op with telemetry off).

        Every event carries the job's kind and fingerprint plus the
        scheduler pressure at emission time: ``queue_depth`` (jobs
        admitted but not yet runnable/running) and ``running``
        (in-flight jobs) against the pool size.
        """
        if self.telemetry is not None:
            self.telemetry.record(
                event_type, kind=job.kind, fp=job.fingerprint,
                queue_depth=len(self.pending), running=self.running,
                workers=self.workers, **fields)

    # ------------------------------------------------------------------
    def admit(self, job: JobSpec) -> None:
        """Add one job, resolving it from cache when possible."""
        if job.job_id in self.seen:
            return
        self.seen.add(job.job_id)
        payload = None
        if job.cache_in_memory:
            payload = _memory_cache_get(job.fingerprint)
            self.emit("golden_cache", job, hit=payload is not None)
        if payload is not None:
            # Backfill stores that predate this cached payload, so a
            # later --resume still finds the complete job chain.
            if self.store is not None and job.fingerprint not in self.store:
                self.store.put(job.fingerprint, job.kind, payload)
            self.emit("job_cached", job, source="memory")
        elif self.store is not None and job.fingerprint in self.store:
            payload = self.store.get(job.fingerprint)
            self.emit("job_cached", job, source="store")
        if payload is not None:
            self.finish(job, payload, cached=True)
        else:
            self.pending[job.job_id] = job

    def finish(self, job: JobSpec, payload: dict, cached: bool,
               profile: dict | None = None) -> None:
        self.resolved[job.job_id] = payload
        self.stats.count(job.kind, cached)
        if not cached:
            if job.cache_in_memory:
                _memory_cache_put(job.fingerprint, payload)
            if job.persist and self.store is not None:
                self.store.put(job.fingerprint, job.kind, payload)
        if job.expand is not None:
            deps = {dep: self.resolved[dep] for dep in job.deps
                    if dep in self.resolved}
            for child in job.expand(payload, deps):
                self.admit(child)
        if self.on_complete is not None:
            self.on_complete(job, payload, cached, profile)

    def dep_payloads(self, job: JobSpec) -> dict[str, dict]:
        return {dep: self.resolved[dep] for dep in job.deps}

    def ready(self, job: JobSpec) -> bool:
        return all(dep in self.resolved for dep in job.deps)

    def execute_inline(self, job: JobSpec) -> None:
        deps = self.dep_payloads(job)
        self.running += 1
        self.emit("job_start", job)
        start = time.perf_counter()
        body, arg = ((job.worker, job.make_args(deps))
                     if job.worker is not None else (job.reduce_fn, deps))
        payload, profile = run_job(body, arg, self.profile)
        wall_s = time.perf_counter() - start
        self.running -= 1
        self.emit("job_finish", job, wall_s=wall_s,
                  work_s=_payload_work_s(payload, wall_s))
        self.finish(job, payload, cached=False, profile=profile)

    # ------------------------------------------------------------------
    def run_inline(self) -> None:
        """Serial execution in deterministic admission order."""
        progressed = True
        while self.pending and progressed:
            progressed = False
            for job_id in list(self.pending):
                job = self.pending.get(job_id)
                if job is None or not self.ready(job):
                    continue
                del self.pending[job_id]
                self.execute_inline(job)
                progressed = True

    def run_backend(self, backend: ExecutionBackend) -> None:
        """Concurrent execution: pool jobs on the backend, reductions
        and expansions in the driver as soon as they are ready."""
        futures: dict = {}
        capacity = backend.capacity

        def submit_ready() -> None:
            progressed = True
            while progressed:
                progressed = False
                # Newest admission first (see ExecutionBackend).
                for job_id in reversed(list(self.pending)):
                    job = self.pending.get(job_id)
                    if job is None or not self.ready(job):
                        continue
                    if job.worker is not None and capacity is not None \
                            and len(futures) >= capacity:
                        continue
                    del self.pending[job_id]
                    progressed = True
                    if job.worker is None:
                        self.execute_inline(job)
                    else:
                        args = job.make_args(self.dep_payloads(job))
                        future = backend.submit(job, args, self.profile)
                        self.running = len(futures) + 1
                        self.emit("job_start", job)
                        futures[future] = (job, time.perf_counter())

        submit_ready()
        while futures:
            # The timeout keeps the driver responsive to backend
            # housekeeping that completions alone cannot trigger —
            # a remote backend expiring the leases of a dead worker
            # must requeue them even while nothing is finishing.
            done, _ = wait(futures, timeout=0.2,
                           return_when=FIRST_COMPLETED)
            backend.tick()
            for future in done:
                job, submitted = futures.pop(future)
                payload, profile = future.result()
                # wall_s spans submit -> completion (including any
                # wait for a free worker); work_s is the body's own
                # in-worker measurement, the occupancy basis.
                wall_s = time.perf_counter() - submitted
                self.running = len(futures)
                self.emit("job_finish", job, wall_s=wall_s,
                          work_s=_payload_work_s(payload, wall_s))
                self.finish(job, payload, cached=False, profile=profile)
            submit_ready()
