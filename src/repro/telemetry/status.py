"""The `repro-experiments status STORE` view: aggregate + render.

Consumes the engine's telemetry event stream (see
:mod:`repro.telemetry.sink` for the envelope and the emitters in
:mod:`repro.engine.scheduler` / :mod:`repro.engine.matrix` for the
event types) together with the result store's record counts, and
renders one text panel describing a running or finished campaign:

* per-kind job counts, cached vs executed, and the golden-cache hit
  rate — is the resume/cache machinery actually saving work?
* worker occupancy — time-weighted busy fraction of the process pool,
  from per-job wall times (in-worker time when the payload reports
  it, so pool queue wait does not inflate the number);
* injection throughput (samples/sec from the FI shards' wall time)
  and, for an in-progress campaign, an ETA extrapolated from the
  cell completion rate so far.

Everything here is a pure function of (events, store counts) — the
CLI wrapper in :mod:`repro.experiments.runner` only does file I/O —
so tests render against a checked-in fixture store byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .report import aggregate_profiles


@dataclass
class CampaignStatus:
    """Aggregated view of one telemetry event stream."""

    events: int = 0
    #: campaign_begin / campaign_end pairs seen (a sweep has many).
    campaigns_begun: int = 0
    campaigns_ended: int = 0
    #: latest campaign identity.
    name: str | None = None
    spec: str | None = None
    workers: int = 1
    began_ts: float | None = None
    last_ts: float | None = None
    #: kind -> {"cached": n, "executed": n, "started": n} from events.
    jobs: dict = field(default_factory=dict)
    golden_cache_hits: int = 0
    golden_cache_misses: int = 0
    #: total in-worker seconds across executed jobs (occupancy basis).
    busy_s: float = 0.0
    cells_total: int = 0
    cells_done: int = 0
    injections: int = 0
    resimulated: int = 0
    fi_time_s: float = 0.0
    max_queue_depth: int = 0
    sweep_campaigns: int = 0
    #: fast-path configuration from campaign_begin (None on streams
    #: recorded before the field existed — render as unknown, never
    #: crash on its absence).
    suffix_memo: bool | None = None
    #: suffix-memo counters folded from profile events (all zero when
    #: the campaign was not profiled or predates the memo).
    memo_hits: int = 0
    memo_misses: int = 0
    memo_collisions: int = 0
    #: campaign-service fleet counters (all zero on local campaigns):
    #: distinct registered worker ids and the lease/push traffic the
    #: coordinator's state machine processed.
    fleet_workers: set = field(default_factory=set)
    leases_granted: int = 0
    leases_expired: int = 0
    pushes_ok: int = 0
    pushes_duplicate: int = 0
    pushes_rejected: int = 0

    # ------------------------------------------------------------------
    @property
    def in_progress(self) -> bool:
        return self.campaigns_begun > self.campaigns_ended

    @property
    def elapsed_s(self) -> float:
        if self.began_ts is None or self.last_ts is None:
            return 0.0
        return max(0.0, self.last_ts - self.began_ts)

    @property
    def jobs_cached(self) -> int:
        return sum(b["cached"] for b in self.jobs.values())

    @property
    def jobs_executed(self) -> int:
        return sum(b["executed"] for b in self.jobs.values())

    @property
    def utilization(self) -> float | None:
        """Time-weighted busy fraction of the worker pool [0, 1]."""
        if self.elapsed_s <= 0 or self.workers < 1:
            return None
        return min(1.0, self.busy_s / (self.workers * self.elapsed_s))

    @property
    def samples_per_s(self) -> float | None:
        """Injection throughput from the FI shards' wall time."""
        if self.fi_time_s <= 0:
            return None
        return self.resimulated / self.fi_time_s

    @property
    def eta_s(self) -> float | None:
        """Remaining wall time, extrapolated from cell throughput."""
        if not self.in_progress or self.cells_done <= 0:
            return None
        remaining = max(0, self.cells_total - self.cells_done)
        return remaining * self.elapsed_s / self.cells_done


def aggregate_events(events: list[dict]) -> CampaignStatus:
    """Fold a telemetry event stream into one :class:`CampaignStatus`."""
    status = CampaignStatus()
    for event in events:
        status.events += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if status.began_ts is None:
                status.began_ts = float(ts)
            status.last_ts = float(ts)
        kind = event.get("kind")
        bucket = None
        if kind is not None:
            bucket = status.jobs.setdefault(
                kind, {"cached": 0, "executed": 0, "started": 0})
        etype = event.get("event")
        if etype == "campaign_begin":
            status.campaigns_begun += 1
            status.name = event.get("name") or status.name
            status.spec = event.get("spec") or status.spec
            status.workers = max(status.workers, int(event.get("workers", 1)))
            status.cells_total += int(event.get("cells", 0))
            suffix_memo = event.get("suffix_memo")
            if isinstance(suffix_memo, bool):
                status.suffix_memo = suffix_memo
        elif etype == "campaign_end":
            status.campaigns_ended += 1
        elif etype == "sweep_begin":
            status.sweep_campaigns += int(event.get("campaigns", 0))
            status.name = event.get("name") or status.name
        elif etype == "job_start" and bucket is not None:
            bucket["started"] += 1
            status.max_queue_depth = max(
                status.max_queue_depth, int(event.get("queue_depth", 0)))
        elif etype == "job_finish" and bucket is not None:
            bucket["executed"] += 1
            busy = event.get("work_s")
            if busy is None:
                busy = event.get("wall_s", 0.0)
            status.busy_s += float(busy)
        elif etype == "job_cached" and bucket is not None:
            bucket["cached"] += 1
        elif etype == "golden_cache":
            if event.get("hit"):
                status.golden_cache_hits += 1
            else:
                status.golden_cache_misses += 1
        elif etype == "cell_finish":
            status.cells_done += 1
            status.injections += int(event.get("injections", 0))
            status.resimulated += int(event.get("resimulated", 0))
            status.fi_time_s += float(event.get("fi_time_s", 0.0))
        elif etype == "worker_register":
            status.fleet_workers.add(event.get("worker"))
        elif etype == "lease_grant":
            status.leases_granted += 1
            status.fleet_workers.add(event.get("worker"))
        elif etype == "lease_expire":
            status.leases_expired += 1
        elif etype == "job_push":
            if not event.get("ok"):
                status.pushes_rejected += 1
            elif event.get("duplicate"):
                status.pushes_duplicate += 1
            else:
                status.pushes_ok += 1
    # Memo counters follow the profile report's totals rule: the
    # campaign_profile summaries, else the sum of the cell_profile events.
    counters = (aggregate_profiles(events)["total"] or {}).get("counters", {})
    status.memo_hits = int(counters.get("memo_hits", 0))
    status.memo_misses = int(counters.get("memo_misses", 0))
    status.memo_collisions = int(counters.get("memo_collisions", 0))
    return status


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _rate(part: int, whole: int) -> str:
    if whole <= 0:
        return "n/a"
    return f"{100.0 * part / whole:.0f}%"


def format_status(store_path, store_counts: dict, status: CampaignStatus,
                  telemetry_path=None, now: float | None = None) -> str:
    """The status panel for one (store, telemetry stream) pair.

    ``store_counts`` is ``ResultStore.counts_by_kind()``; ``status``
    the aggregated telemetry (``aggregate_events([])`` when no
    telemetry was recorded). ``now`` pins the clock for tests.
    """
    title = f"Campaign status — {store_path}"
    lines = [title, "=" * len(title), ""]

    store_total = sum(store_counts.values())
    per_kind = ", ".join(
        f"{kind}={store_counts[kind]}"
        for kind in ("golden", "plan", "shard", "cell")
        if kind in store_counts)
    extra = ", ".join(f"{k}={n}" for k, n in sorted(store_counts.items())
                      if k not in ("golden", "plan", "shard", "cell"))
    detail = ", ".join(part for part in (per_kind, extra) if part)
    lines.append(f"store: {store_total} finished job records"
                 + (f" ({detail})" if detail else ""))

    if status.events == 0:
        lines.append("telemetry: none recorded"
                     + (f" (no file at {telemetry_path})"
                        if telemetry_path else ""))
        lines.append("")
        lines.append("Run the campaign with telemetry enabled "
                     "(--telemetry, or telemetry=true in the spec) to get "
                     "job timing, cache hit rates, worker occupancy and "
                     "throughput here.")
        return "\n".join(lines)

    label = status.name or "(unnamed campaign)"
    if status.sweep_campaigns:
        label += f" [sweep of {status.sweep_campaigns} campaigns]"
    lines.append(f"campaign: {label}")
    if status.spec:
        lines.append(f"spec: {status.spec}")

    if status.in_progress:
        state = "IN PROGRESS"
        now = time.time() if now is None else now
        if status.last_ts is not None:
            state += f" (last event {_duration(max(0.0, now - status.last_ts))} ago)"
    else:
        state = f"completed in {_duration(status.elapsed_s)}"
    lines.append(f"state: {state}")
    lines.append("")

    total = status.jobs_cached + status.jobs_executed
    lines.append(
        f"jobs: {total} — {status.jobs_cached} cached "
        f"({_rate(status.jobs_cached, total)} cache hit rate), "
        f"{status.jobs_executed} executed")
    for kind in ("golden", "plan", "shard", "cell"):
        bucket = status.jobs.get(kind)
        if bucket is None:
            continue
        lines.append(
            f"  {kind:<8} {bucket['cached'] + bucket['executed']:>6} "
            f"({bucket['cached']} cached, {bucket['executed']} executed)")
    for kind, bucket in sorted(status.jobs.items()):
        if kind in ("golden", "plan", "shard", "cell"):
            continue
        lines.append(
            f"  {kind:<8} {bucket['cached'] + bucket['executed']:>6} "
            f"({bucket['cached']} cached, {bucket['executed']} executed)")

    probes = status.golden_cache_hits + status.golden_cache_misses
    if probes:
        lines.append(
            f"golden cache: {status.golden_cache_hits}/{probes} in-process "
            f"hits ({_rate(status.golden_cache_hits, probes)})")
    lines.append("")

    util = status.utilization
    occupancy = (f"{util * 100:.0f}% mean occupancy"
                 if util is not None else "occupancy n/a")
    lines.append(f"workers: {status.workers} ({occupancy}, "
                 f"peak queue depth {status.max_queue_depth})")

    cells = f"cells: {status.cells_done}/{status.cells_total} done"
    rate = status.samples_per_s
    if rate is not None:
        cells += (f"; throughput {rate:.1f} samples/s "
                  f"({status.resimulated} of {status.injections} "
                  f"injections re-simulated)")
    lines.append(cells)

    if status.suffix_memo is not None:
        fast = f"fast path: suffix memo {'on' if status.suffix_memo else 'off'}"
        probes = status.memo_hits + status.memo_misses
        if probes:
            fast += (f" — {status.memo_hits}/{probes} memo hits "
                     f"({_rate(status.memo_hits, probes)})")
            if status.memo_collisions:
                fast += f", {status.memo_collisions} digest collisions"
        lines.append(fast)
    if status.fleet_workers or status.leases_granted:
        fleet = (f"fleet: {len(status.fleet_workers)} worker(s) — "
                 f"{status.leases_granted} leases granted, "
                 f"{status.leases_expired} expired; pushes: "
                 f"{status.pushes_ok} ok, {status.pushes_duplicate} "
                 f"duplicate, {status.pushes_rejected} rejected")
        lines.append(fleet)
    if status.in_progress:
        eta = status.eta_s
        lines.append(f"ETA: ~{_duration(eta)} at the current cell rate"
                     if eta is not None else
                     "ETA: n/a (no cell finished yet)")
    return "\n".join(lines)
