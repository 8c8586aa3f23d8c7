"""The campaign coordinator: lease queue, HTTP endpoints, serve loop.

Three layers, innermost first:

* :class:`RemoteBackend` — an
  :class:`~repro.engine.scheduler.ExecutionBackend` whose ``submit``
  enqueues each ready pool job into a FIFO lease queue instead of a
  process pool. Registered workers pull leases over HTTP and push
  payloads back; the handler threads complete the scheduler's Futures,
  and the scheduler's driver loop (``wait`` with a timeout +
  ``tick()``) keeps the lease state machine running even while nothing
  finishes. The backend is the whole fault-tolerance story: a lease
  that outlives its TTL without a heartbeat is *expired* — re-queued
  at the front so recovery does not wait behind fresh work — and a job
  that expires too many times fails the campaign loudly instead of
  looping forever.
* :class:`CoordinatorServer` — a stdlib ``ThreadingHTTPServer``
  translating the wire protocol (:mod:`.protocol`) onto the backend.
* :class:`CampaignService` — the ``repro-experiments serve`` body: it
  owns the shared :class:`~repro.engine.store.ResultStore`, drains a
  queue of :class:`~repro.spec.CampaignSpec`\\ s (initial + those
  POSTed to ``/v1/submit`` while serving) through
  :func:`~repro.engine.matrix.run_campaign` with the backend plugged
  in, then flags shutdown so idle workers exit.

Everything the coordinator appends to the store went through the same
scheduler/fingerprint path a local campaign uses — the service adds
transport, not semantics — so a distributed store is bit-identical to
the process-pool store and any pre-service store resumes under the
coordinator with zero jobs executed.

Telemetry from handler threads is staged in a queue and drained by
``tick()``/``flush_telemetry()`` on the driver thread, keeping the
(hub-thread-unsafe) sink fan-out single-threaded.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine.scheduler import ExecutionBackend, JobSpec
from repro.engine.service import protocol
from repro.errors import ConfigError

#: Default seconds a lease may go un-heartbeaten before it expires.
DEFAULT_LEASE_TTL_S = 30.0

#: Times one job may be re-queued after lease expiry before the
#: campaign fails loudly (a job that kills every worker that touches
#: it must not ping-pong forever).
MAX_REQUEUES = 5


class _RemoteJob:
    """One pool job waiting to execute somewhere in the fleet."""

    __slots__ = ("job", "encoded_args", "profile", "future", "attempts",
                 "golden_fp")

    def __init__(self, job: JobSpec, encoded_args: list, profile: bool,
                 golden_fp: str | None = None):
        self.job = job
        self.encoded_args = encoded_args
        self.profile = profile
        self.future: Future = Future()
        self.attempts = 0
        #: A shard's golden, whose output blob it may still fetch.
        self.golden_fp = golden_fp


class _Lease:
    """One granted (job, worker) assignment with a deadline."""

    __slots__ = ("lease_id", "job_id", "worker_id", "deadline")

    def __init__(self, lease_id: str, job_id: str, worker_id: str,
                 deadline: float):
        self.lease_id = lease_id
        self.job_id = job_id
        self.worker_id = worker_id
        self.deadline = deadline


class RemoteBackend(ExecutionBackend):
    """Lease-queue execution backend behind the coordinator endpoints.

    ``clock`` is injectable (tests drive lease expiry deterministically
    with a fake clock); it must be monotonic. All state is guarded by
    one lock — every operation is a dict/deque update, so contention is
    negligible next to the simulations the fleet is running.
    """

    def __init__(self, telemetry=None, lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 clock=time.monotonic, max_requeues: int = MAX_REQUEUES):
        from repro.spec import spec_field
        self.telemetry = telemetry
        self.lease_ttl_s = spec_field("lease_ttl_s").check(lease_ttl_s)
        self.clock = clock
        self.max_requeues = max_requeues
        self._lock = threading.Lock()
        self._jobs: dict[str, _RemoteJob] = {}
        self._ready: deque[str] = deque()
        self._leases: dict[str, _Lease] = {}
        self._workers: dict[str, dict] = {}
        #: golden fp -> [output blob, shards pending or leased]
        self._golden_blobs: dict[str, list] = {}
        self._done: set[str] = set()
        self._events: deque[tuple[str, dict]] = deque()
        self._shutdown = False
        self.counters = {
            "workers_registered": 0, "leases_granted": 0,
            "leases_expired": 0, "pushes_ok": 0, "pushes_duplicate": 0,
            "pushes_rejected": 0, "jobs_failed": 0,
        }

    # -- telemetry staging (handler threads enqueue, driver drains) ----
    def _emit(self, event_type: str, **fields) -> None:
        self._events.append((event_type, fields))

    def flush_telemetry(self) -> None:
        """Hand staged fleet events to the hub (driver thread only).

        Events are staged whether or not a hub is set, so a worker that
        registers before the driver picks the hub of the campaign it
        serves still reaches that hub; with no hub they are dropped.
        """
        while self._events:
            event_type, fields = self._events.popleft()
            if self.telemetry is not None:
                self.telemetry.record(event_type, **fields)

    # -- ExecutionBackend ----------------------------------------------
    def submit(self, job: JobSpec, args: tuple, profile: bool) -> Future:
        encoded = protocol.encode_args(job.kind, args)
        golden_fp = encoded[5] if job.kind == "shard" else None
        remote = _RemoteJob(job, encoded, profile, golden_fp)
        with self._lock:
            if golden_fp is not None:
                # Publish the golden blob once; every shard of the cell
                # ships a fingerprint-sized marker instead (workers
                # fetch and cache via GET /v1/golden/<fp>). The blob is
                # dropped once no shard of it is pending or leased.
                self._golden_blobs.setdefault(golden_fp, [args[6], 0])[1] += 1
            self._jobs[job.job_id] = remote
            self._ready.append(job.job_id)
        return remote.future

    def _retire(self, remote: _RemoteJob) -> None:
        """Forget a finished or failed job (lock held)."""
        del self._jobs[remote.job.job_id]
        if remote.golden_fp is not None:
            blob = self._golden_blobs[remote.golden_fp]
            blob[1] -= 1
            if not blob[1]:
                del self._golden_blobs[remote.golden_fp]

    def tick(self) -> None:
        now = self.clock()
        failed = []
        with self._lock:
            for lease in [l for l in self._leases.values()
                          if l.deadline <= now]:
                del self._leases[lease.lease_id]
                remote = self._jobs.get(lease.job_id)
                if remote is None:
                    continue  # pushed between deadline and sweep
                self.counters["leases_expired"] += 1
                self._emit("lease_expire", kind=remote.job.kind,
                           fp=remote.job.fingerprint,
                           worker=lease.worker_id,
                           attempts=remote.attempts)
                if remote.attempts > self.max_requeues:
                    self._retire(remote)
                    failed.append(remote)
                else:
                    # Front of the queue: recovery work preempts fresh
                    # work, so one flaky worker cannot starve a cell.
                    self._ready.appendleft(lease.job_id)
        for remote in failed:
            self.counters["jobs_failed"] += 1
            remote.future.set_exception(RuntimeError(
                f"{remote.job.kind} job {remote.job.fingerprint[:12]}… "
                f"failed {remote.attempts} leases (workers died or "
                f"timed out); raising instead of re-queueing forever"))
        self.flush_telemetry()

    def close(self) -> None:  # caller-owned; nothing pooled to release
        pass

    # -- endpoint bodies (called from HTTP handler threads) ------------
    def register(self, worker_id: str, version=protocol.PROTOCOL_VERSION):
        if version != protocol.PROTOCOL_VERSION:
            return {"ok": False,
                    "error": f"protocol version {version} != coordinator "
                             f"{protocol.PROTOCOL_VERSION}"}
        with self._lock:
            known = worker_id in self._workers
            self._workers[worker_id] = {"last_seen": self.clock(),
                                        "acked_shutdown": False}
        if not known:
            self.counters["workers_registered"] += 1
            self._emit("worker_register", worker=worker_id)
        return {"ok": True, "lease_ttl_s": self.lease_ttl_s,
                "version": protocol.PROTOCOL_VERSION}

    def lease(self, worker_id: str) -> dict:
        with self._lock:
            self._touch(worker_id)
            if self._shutdown:
                self._workers.setdefault(worker_id, {})[
                    "acked_shutdown"] = True
                return {"ok": True, "job": None, "shutdown": True}
            while self._ready:
                job_id = self._ready.popleft()
                if job_id in self._done or job_id not in self._jobs:
                    continue  # completed by a late push while queued
                remote = self._jobs[job_id]
                remote.attempts += 1
                lease_id = uuid.uuid4().hex
                self._leases[lease_id] = _Lease(
                    lease_id, job_id, worker_id,
                    self.clock() + self.lease_ttl_s)
                self.counters["leases_granted"] += 1
                self._emit("lease_grant", kind=remote.job.kind,
                           fp=remote.job.fingerprint, worker=worker_id,
                           attempts=remote.attempts)
                return {"ok": True, "lease_id": lease_id,
                        "job": {"kind": remote.job.kind,
                                "fingerprint": remote.job.fingerprint,
                                "args": remote.encoded_args,
                                "profile": remote.profile}}
            return {"ok": True, "job": None, "shutdown": False}

    def push(self, worker_id: str, fingerprint, kind, payload,
             lease_id=None, profile=None) -> dict:
        """Complete a pending job: its Future gets (payload, profile)."""
        def reject(reason: str) -> dict:
            self.counters["pushes_rejected"] += 1
            self._emit("job_push", worker=worker_id, ok=False,
                       fp=fingerprint if isinstance(fingerprint, str)
                       else None, reason=reason)
            return {"ok": False, "error": reason}

        if not isinstance(fingerprint, str) or not fingerprint:
            return reject("missing fingerprint")
        with self._lock:
            self._touch(worker_id)
            if fingerprint in self._done:
                # Idempotent: the payload is a pure function of the
                # fingerprinted parameters, so a duplicate (expired
                # lease raced its own worker, or a replayed segment)
                # carries nothing new. Nothing is appended twice.
                self.counters["pushes_duplicate"] += 1
                self._emit("job_push", worker=worker_id, ok=True,
                           fp=fingerprint, duplicate=True, kind=kind)
                return {"ok": True, "duplicate": True}
            remote = self._jobs.get(fingerprint)
            if remote is None:
                return reject(f"stale fingerprint {fingerprint[:12]}…: "
                              f"no such job pending")
            if kind != remote.job.kind:
                return reject(f"kind {kind!r} does not match pending "
                              f"{remote.job.kind!r} job")
            problem = protocol.check_payload(remote.job.kind, payload)
            if problem is not None:
                return reject(problem)
            self._retire(remote)
            self._done.add(fingerprint)
            if lease_id is not None:
                self._leases.pop(lease_id, None)
            self.counters["pushes_ok"] += 1
            self._emit("job_push", worker=worker_id, ok=True,
                       fp=fingerprint, kind=kind, duplicate=False)
        # Outside the lock: completes the scheduler's Future, which
        # runs finish() callbacks on the driver thread's next wait().
        remote.future.set_result((payload, profile))
        return {"ok": True, "duplicate": False}

    def heartbeat(self, worker_id: str, lease_ids=()) -> dict:
        with self._lock:
            self._touch(worker_id)
            deadline = self.clock() + self.lease_ttl_s
            renewed = 0
            for lease_id in lease_ids or ():
                lease = self._leases.get(lease_id)
                if lease is not None and lease.worker_id == worker_id:
                    lease.deadline = deadline
                    renewed += 1
            if self._shutdown:
                self._workers.setdefault(worker_id, {})[
                    "acked_shutdown"] = True
            return {"ok": True, "renewed": renewed,
                    "shutdown": self._shutdown}

    def golden_blob(self, fingerprint: str) -> dict | None:
        with self._lock:
            blob = self._golden_blobs.get(fingerprint)
        return blob[0] if blob is not None else None

    def status(self) -> dict:
        with self._lock:
            return {"ok": True, "pending": len(self._jobs),
                    "ready": len(self._ready), "leased": len(self._leases),
                    "workers": len(self._workers), "done": len(self._done),
                    "shutdown": self._shutdown, **self.counters}

    # -- shutdown handshake --------------------------------------------
    def set_shutdown(self) -> None:
        with self._lock:
            self._shutdown = True

    def all_workers_acked(self) -> bool:
        with self._lock:
            return all(info.get("acked_shutdown")
                       for info in self._workers.values())

    def _touch(self, worker_id: str) -> None:
        info = self._workers.get(worker_id)
        if info is not None:
            info["last_seen"] = self.clock()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------

class CoordinatorServer:
    """The coordinator's HTTP face (stdlib ``ThreadingHTTPServer``).

    ``submit_spec`` (optional) is the ``POST /v1/submit`` hook: a
    callable taking one spec dict, returning a response dict — wired to
    :meth:`CampaignService.enqueue_spec` by ``serve``.
    """

    def __init__(self, backend: RemoteBackend, host: str = "127.0.0.1",
                 port: int = 0, submit_spec=None):
        self.backend = backend
        self.submit_spec = submit_spec
        self.httpd = ThreadingHTTPServer((host, port), self._handler())
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: threading.Thread | None = None
        self.stopped = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="coordinator-http",
            daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.stopped = True
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Keep-alive clients wait on each reply: with Nagle's
            # algorithm the body, written after the headers, would sit
            # out the client's delayed ACK (about 40 ms per request).
            disable_nagle_algorithm = True

            def log_message(self, *args):  # keep campaign stderr clean
                pass

            def parse_request(self):
                # A stopped coordinator answers nothing, not even on a
                # connection kept alive from before the stop.
                if server.stopped:
                    self.close_connection = True
                    return False
                return super().parse_request()

            def _reply(self, obj: dict, code: int = 200) -> None:
                body = json.dumps(obj).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                backend = server.backend
                if self.path.startswith(protocol.GOLDEN_PATH):
                    fp = self.path[len(protocol.GOLDEN_PATH):]
                    blob = backend.golden_blob(fp)
                    if blob is None:
                        self._reply({"ok": False,
                                     "error": f"unknown golden {fp[:12]}…"},
                                    code=404)
                    else:
                        self._reply({"ok": True, "outputs": blob})
                elif self.path == protocol.STATUS_PATH:
                    self._reply(backend.status())
                else:
                    self._reply({"ok": False, "error": "not found"},
                                code=404)

            def do_POST(self):
                backend = server.backend
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    data = json.loads(self.rfile.read(length) or b"{}")
                    if not isinstance(data, dict):
                        raise ValueError("body must be an object")
                except (ValueError, json.JSONDecodeError) as error:
                    self._reply({"ok": False,
                                 "error": f"bad request body: {error}"},
                                code=400)
                    return
                worker = data.get("worker_id", "?")
                if self.path == protocol.REGISTER_PATH:
                    self._reply(backend.register(
                        worker, data.get("version")))
                elif self.path == protocol.LEASE_PATH:
                    self._reply(backend.lease(worker))
                elif self.path == protocol.PUSH_PATH:
                    result = backend.push(
                        worker, data.get("fingerprint"), data.get("kind"),
                        data.get("payload"), lease_id=data.get("lease_id"),
                        profile=data.get("profile"))
                    self._reply(result, code=200 if result["ok"] else 409)
                elif self.path == protocol.HEARTBEAT_PATH:
                    self._reply(backend.heartbeat(
                        worker, data.get("lease_ids", ())))
                elif self.path == protocol.SUBMIT_PATH:
                    if server.submit_spec is None:
                        self._reply({"ok": False,
                                     "error": "coordinator does not accept "
                                              "submissions"}, code=403)
                    else:
                        result = server.submit_spec(data.get("spec"))
                        self._reply(result,
                                    code=200 if result.get("ok") else 400)
                else:
                    self._reply({"ok": False, "error": "not found"},
                                code=404)

        return Handler


# ----------------------------------------------------------------------
# Serve loop
# ----------------------------------------------------------------------

class CampaignService:
    """Drain a queue of campaign specs through one shared store/fleet.

    The serve loop runs each spec through the ordinary
    :func:`~repro.engine.matrix.run_campaign` — same expansion, same
    fingerprints, same caching — with the :class:`RemoteBackend`
    plugged in, so the *only* difference from a local run is where the
    pool jobs execute. Specs POSTed to ``/v1/submit`` while a campaign
    runs are appended to the queue and picked up when the current one
    finishes.

    Telemetry given to the service, or named by its starting specs,
    opens one hub for every campaign and the fleet. Without one, each
    campaign resolves its own spec's telemetry and profile settings,
    and the fleet reports to that campaign's hub while it runs — so a
    profiled spec submitted later still gets one stream.
    """

    #: Seconds to keep serving after the last campaign so idle workers
    #: observe the shutdown flag instead of a connection error.
    SHUTDOWN_LINGER_S = 5.0

    def __init__(self, store, specs, *, host: str = "127.0.0.1",
                 port: int = 0, lease_ttl_s=None, telemetry=None,
                 profile=None, progress=None, clock=time.monotonic):
        from repro.spec import CampaignSpec
        self.store = store
        self.specs: deque = deque()
        for spec in specs:
            if not isinstance(spec, CampaignSpec):
                raise ConfigError(
                    f"serve expects CampaignSpecs, got "
                    f"{type(spec).__name__}")
            self.specs.append(spec)
        ttl = lease_ttl_s
        if ttl is None:
            for spec in self.specs:  # first spec naming a TTL wins
                ttl = getattr(spec, "lease_ttl_s", None)
                if ttl is not None:
                    break
        if telemetry is None:
            # Defer to the specs, like run_campaign would — but resolve
            # once here so fleet events and campaign events share one
            # hub (and one JSONL stream next to the store).
            for spec in self.specs:
                if spec.telemetry is not None:
                    telemetry = spec.telemetry
                    break
        from repro.telemetry import resolve_telemetry
        self.hub, self._own_hub = resolve_telemetry(
            telemetry, store,
            profile=profile if profile is not None
            else any(spec.profile for spec in self.specs))
        self.telemetry = telemetry
        self.profile = profile
        self.progress = progress
        self.backend = RemoteBackend(
            telemetry=self.hub,
            lease_ttl_s=ttl if ttl is not None else DEFAULT_LEASE_TTL_S,
            clock=clock)
        self.server = CoordinatorServer(
            self.backend, host=host, port=port,
            submit_spec=self.enqueue_spec)
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return self.server.url

    def enqueue_spec(self, data) -> dict:
        """``POST /v1/submit`` body: validate + queue one spec dict."""
        from repro.spec import CampaignSpec
        try:
            spec = CampaignSpec.from_dict(data)
        except (ConfigError, TypeError) as error:
            return {"ok": False, "error": str(error)}
        with self._lock:
            self.specs.append(spec)
        return {"ok": True, "queued": spec.name or spec.describe()}

    def _campaign_hub(self, spec):
        """(hub, owned) for one campaign: the service's, or the spec's.

        Settings given to the service override the spec's, as
        :func:`~repro.engine.matrix.run_campaign` arguments do.
        """
        if self.hub is not None:
            return self.hub, False
        from repro.telemetry import resolve_telemetry
        return resolve_telemetry(
            spec.telemetry if self.telemetry is None else self.telemetry,
            self.store,
            profile=bool(spec.profile if self.profile is None
                         else self.profile))

    def run(self, on_campaign=None):
        """Serve until the spec queue drains; returns merged stats."""
        from repro.engine.matrix import run_campaign
        from repro.engine.scheduler import CampaignStats
        self.server.start()
        stats = CampaignStats()
        try:
            while True:
                with self._lock:
                    if not self.specs:
                        break
                    spec = self.specs.popleft()
                hub, own_hub = self._campaign_hub(spec)
                self.backend.telemetry = hub
                try:
                    result = run_campaign(
                        spec, store=self.store, workers=1,
                        # False (not None) when no hub: the telemetry
                        # decision is made above, so run_campaign must
                        # not open a hub the fleet events would miss.
                        telemetry=hub if hub is not None else False,
                        profile=self.profile,
                        progress=self.progress, execution=self.backend)
                finally:
                    self.backend.flush_telemetry()
                    self.backend.telemetry = self.hub
                    if own_hub:
                        hub.close()
                stats.merge(result.stats)
                if on_campaign is not None:
                    on_campaign(spec, result)
            self.backend.set_shutdown()
            deadline = time.monotonic() + self.SHUTDOWN_LINGER_S
            while time.monotonic() < deadline \
                    and not self.backend.all_workers_acked():
                time.sleep(0.05)
        finally:
            self.backend.flush_telemetry()
            self.server.stop()
            if self._own_hub and self.hub is not None:
                self.hub.close()
        return stats
