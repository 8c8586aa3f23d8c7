"""The campaign worker runtime: lease, execute, push, heartbeat.

A worker is a plain process anywhere that can reach the coordinator
over HTTP. It registers, then loops: pull a lease, decode the argument
list (fetching + caching golden output blobs by fingerprint), run the
job through the *same* runner and worker functions the process pool
uses (:mod:`repro.engine.jobs`), and push the payload back, its
profile beside it. Like a pool process, the worker keeps a golden's
snapshot set and access trace resident
(:func:`repro.engine.scheduler.keep_resident`), so the plan and shards
of a golden it ran simulate nothing more; its suffix memo is
per-process too. A
background heartbeat renews held leases at a third of the TTL, so a
live worker grinding through a long shard never expires, while a
killed one silently does — the coordinator re-queues its lease and the
campaign finishes without it.

Fault tolerance on the worker side is the optional *segment store*: a
local :class:`~repro.engine.store.ResultStore` every computed payload
is appended to before the push. A worker that computed a result but
died (or lost the network) mid-push replays its segment on the next
start; the coordinator merges replayed records idempotently — a
duplicate fingerprint appends nothing — so segments make pushes
at-least-once without ever making the store more-than-once.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.parse
from http.client import HTTPConnection, HTTPException

from repro.engine import jobs
from repro.engine.scheduler import run_resident
from repro.engine.service import protocol
from repro.errors import ConfigError

#: kind -> module-level worker function (the process pool's own map).
WORKER_FUNCTIONS = {
    jobs.GOLDEN: jobs.run_golden_job,
    jobs.PLAN: jobs.run_plan_job,
    jobs.SHARD: jobs.run_shard_job,
}

#: Decoded golden blobs cached per worker (a cell's shards share one).
_GOLDEN_BLOBS_MAX = 8


class CoordinatorUnreachable(ConnectionError):
    """The coordinator did not answer (died, or not started yet)."""


class CoordinatorClient:
    """Minimal JSON-over-HTTP client for the coordinator endpoints.

    Each thread keeps one keep-alive connection: a worker's lease, push
    and golden-fetch round trips then skip the TCP handshake, which on
    loopback halves them. A reused connection the coordinator has
    meanwhile closed fails its request before any answer; the client
    then reconnects once and resends. A fresh connection that fails is
    :class:`CoordinatorUnreachable` — the worker's retry loop owns the
    give-up policy.
    """

    def __init__(self, url: str, timeout: float = 10.0):
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ConfigError(
                f"coordinator URL must look like http://host:port, "
                f"got {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self._local = threading.local()

    def _exchange(self, conn: HTTPConnection, method: str, path: str,
                  payload) -> bytes:
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        return conn.getresponse().read()

    def _request(self, method: str, path: str, body=None) -> dict:
        payload = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        conn = getattr(self._local, "conn", None)
        try:
            if conn is not None:
                try:
                    data = self._exchange(conn, method, path, payload)
                except (OSError, HTTPException):
                    conn.close()  # closed by the coordinator: reconnect
                    conn = None
            if conn is None:
                conn = self._local.conn = HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
                data = self._exchange(conn, method, path, payload)
        except (OSError, HTTPException) as error:
            conn.close()
            self._local.conn = None
            raise CoordinatorUnreachable(
                f"coordinator at {self.host}:{self.port} unreachable: "
                f"{error}") from error
        try:
            return json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CoordinatorUnreachable(
                f"coordinator at {self.host}:{self.port} returned a "
                f"non-JSON response: {error}") from error

    def post(self, path: str, body: dict) -> dict:
        return self._request("POST", path, body)

    def get(self, path: str) -> dict:
        return self._request("GET", path)

    def close(self) -> None:
        """Close the calling thread's connection, if it has one."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None


class CampaignWorker:
    """One fleet member: register -> (lease, execute, push)* -> exit.

    ``give_up_s`` bounds how long the worker retries an unreachable
    coordinator (both at registration and mid-loop) before exiting —
    a fleet must drain itself when the coordinator is gone for good,
    not hold hosts hostage.
    """

    def __init__(self, url: str, worker_id: str | None = None, *,
                 poll_s: float = 0.2, give_up_s: float = 30.0,
                 segment_store=None, quiet: bool = True):
        self.client = CoordinatorClient(url)
        self.worker_id = worker_id or \
            f"{socket.gethostname()}-{os.getpid()}"
        self.poll_s = poll_s
        self.give_up_s = give_up_s
        self.segment_store = segment_store
        self.quiet = quiet
        self.lease_ttl_s = 30.0  # refined by the register response
        self.counters = {"executed": 0, "pushed": 0, "duplicates": 0,
                         "rejected": 0, "replayed": 0}
        self._golden_blobs: dict[str, dict] = {}
        self._held_leases: set[str] = set()
        self._leases_lock = threading.Lock()
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if not self.quiet:
            import sys
            print(f"[worker {self.worker_id}] {message}",
                  file=sys.stderr, flush=True)

    def _fetch_golden(self, fingerprint: str) -> dict:
        blob = self._golden_blobs.get(fingerprint)
        if blob is None:
            response = self.client.get(protocol.GOLDEN_PATH + fingerprint)
            if not response.get("ok"):
                raise CoordinatorUnreachable(
                    f"coordinator has no golden blob {fingerprint[:12]}…")
            blob = response["outputs"]
            if len(self._golden_blobs) >= _GOLDEN_BLOBS_MAX:
                self._golden_blobs.pop(next(iter(self._golden_blobs)))
            self._golden_blobs[fingerprint] = blob
        return blob

    def _with_retries(self, call):
        """Run one client call, retrying until ``give_up_s`` elapses."""
        deadline = time.monotonic() + self.give_up_s
        while True:
            try:
                return call()
            except CoordinatorUnreachable:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(self.poll_s)

    # ------------------------------------------------------------------
    def register(self) -> None:
        response = self._with_retries(lambda: self.client.post(
            protocol.REGISTER_PATH,
            {"worker_id": self.worker_id,
             "version": protocol.PROTOCOL_VERSION}))
        if not response.get("ok"):
            raise ConfigError(
                f"coordinator refused registration: "
                f"{response.get('error', 'unknown error')}")
        self.lease_ttl_s = float(response.get("lease_ttl_s", 30.0))
        self._log(f"registered (lease ttl {self.lease_ttl_s:.0f}s)")

    def replay_segment(self) -> None:
        """Push every record of the local segment store (idempotent)."""
        if self.segment_store is None:
            return
        for fingerprint, kind, payload in self.segment_store.records():
            try:
                response = self.client.post(protocol.PUSH_PATH, {
                    "worker_id": self.worker_id, "fingerprint": fingerprint,
                    "kind": kind, "payload": payload})
            except CoordinatorUnreachable:
                return  # best effort; the lease machinery recovers
            if response.get("ok"):
                self.counters["replayed"] += 1

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.lease_ttl_s / 3.0)
        try:
            while not self._stop.wait(interval):
                with self._leases_lock:
                    leases = list(self._held_leases)
                try:
                    response = self.client.post(protocol.HEARTBEAT_PATH, {
                        "worker_id": self.worker_id, "lease_ids": leases})
                except CoordinatorUnreachable:
                    continue  # the main loop owns give-up policy
                if response.get("shutdown"):
                    self._stop.set()
        finally:
            self.client.close()

    # ------------------------------------------------------------------
    def _execute(self, lease_id: str, job: dict) -> None:
        kind, fingerprint = job["kind"], job["fingerprint"]
        args = protocol.decode_args(kind, job["args"], self._fetch_golden)
        self._log(f"executing {kind} {fingerprint[:12]}…")
        with self._leases_lock:
            self._held_leases.add(lease_id)
        try:
            # Looked up per call: tracers repoint the table's entries.
            # Ephemeral keys stay resident here (snapshots are not
            # JSON-safe, and this worker's next jobs may need them).
            payload, profile = run_resident(WORKER_FUNCTIONS[kind], args,
                                            job["profile"], fingerprint)
        finally:
            with self._leases_lock:
                self._held_leases.discard(lease_id)
        self.counters["executed"] += 1
        if self.segment_store is not None:
            self.segment_store.put(fingerprint, kind, payload)
        response = self._with_retries(lambda: self.client.post(
            protocol.PUSH_PATH, {
                "worker_id": self.worker_id, "lease_id": lease_id,
                "fingerprint": fingerprint, "kind": kind,
                "payload": payload, "profile": profile}))
        if response.get("ok"):
            self.counters["pushed"] += 1
            if response.get("duplicate"):
                self.counters["duplicates"] += 1
        else:
            self.counters["rejected"] += 1
            self._log(f"push rejected: {response.get('error')}")

    def run(self) -> dict:
        """The worker main loop; returns the session's counters."""
        self.register()
        self.replay_segment()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="worker-heartbeat",
            daemon=True)
        heartbeat.start()
        try:
            while not self._stop.is_set():
                try:
                    response = self._with_retries(lambda: self.client.post(
                        protocol.LEASE_PATH,
                        {"worker_id": self.worker_id}))
                except CoordinatorUnreachable:
                    self._log("coordinator gone; exiting")
                    break
                if response.get("shutdown"):
                    self._log("coordinator finished; exiting")
                    break
                job = response.get("job")
                if not job:
                    time.sleep(self.poll_s)
                    continue
                self._execute(response["lease_id"], job)
        finally:
            self._stop.set()
            heartbeat.join(timeout=2.0)
            self.client.close()
        return dict(self.counters)
