"""Campaign service: lease state machine, wire protocol, distributed parity.

The acceptance contract for the coordinator/worker subsystem:

* a distributed campaign's store is bit-identical (modulo wall-time
  fields and append order) to the process-pool store for the same spec;
* a store written before the service existed resumes under the
  coordinator with zero jobs executed;
* a worker killed mid-campaign is recovered via lease expiry — the
  campaign completes without losing or duplicating a single job.
"""

import http.client
import json
import threading
import time

import pytest

from repro.engine import clear_memory_cache, run_campaign
from repro.engine.scheduler import JobSpec
from repro.engine.service import (
    CampaignService,
    CampaignWorker,
    CoordinatorClient,
    CoordinatorServer,
    CoordinatorUnreachable,
    RemoteBackend,
)
from repro.engine.service import protocol
from repro.engine.store import ResultStore, diff_stores
from repro.errors import ConfigError
from repro.spec import CampaignSpec
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.telemetry import (
    MemoryTelemetrySink,
    load_telemetry,
    telemetry_path_for_store,
)
from tests.conftest import MINI_AMD, MINI_NVIDIA

#: The resume-suite campaign: small, cross-ISA, with real FI shards.
SPEC = CampaignSpec(gpus=(MINI_NVIDIA, MINI_AMD), workloads=("histogram",),
                    scale="tiny", samples=20, seed=3, structures=STRUCTURES)
#: Single-cell variant for the slower fault-injection tests.
SMALL_SPEC = CampaignSpec(gpus=(MINI_NVIDIA,), workloads=("histogram",),
                          scale="tiny", samples=20, seed=3,
                          structures=STRUCTURES)


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _plan_job(tag: str) -> JobSpec:
    fp = tag * (64 // len(tag)) if len(tag) < 64 else tag
    return JobSpec(job_id=fp, kind="plan", fingerprint=fp)


PLAN_PAYLOAD = {"plans": [], "pruned": 0, "wall_time_s": 0.0}


class TestLeaseStateMachine:
    def _backend(self, **kwargs) -> tuple[RemoteBackend, FakeClock]:
        clock = FakeClock()
        backend = RemoteBackend(lease_ttl_s=10.0, clock=clock, **kwargs)
        backend.register("w1")
        return backend, clock

    def test_expired_lease_requeues_at_front(self):
        backend, clock = self._backend()
        first, second = _plan_job("a"), _plan_job("b")
        backend.submit(first, (), False)
        backend.submit(second, (), False)
        granted = backend.lease("w1")
        assert granted["job"]["fingerprint"] == first.fingerprint
        clock.advance(11.0)
        backend.tick()
        assert backend.counters["leases_expired"] == 1
        # Recovery preempts fresh work: the expired job comes back
        # before the never-leased one.
        regrant = backend.lease("w1")
        assert regrant["job"]["fingerprint"] == first.fingerprint
        assert backend.lease("w1")["job"]["fingerprint"] == \
            second.fingerprint

    def test_heartbeat_renews_lease(self):
        backend, clock = self._backend()
        backend.submit(_plan_job("a"), (), False)
        lease_id = backend.lease("w1")["lease_id"]
        clock.advance(6.0)
        assert backend.heartbeat("w1", [lease_id])["renewed"] == 1
        clock.advance(6.0)  # past the original deadline, not the renewed
        backend.tick()
        assert backend.counters["leases_expired"] == 0
        clock.advance(6.0)
        backend.tick()
        assert backend.counters["leases_expired"] == 1

    def test_requeue_cap_fails_the_job_loudly(self):
        backend, clock = self._backend(max_requeues=2)
        job = _plan_job("a")
        future = backend.submit(job, (), False)
        for _ in range(3):  # attempts 1..3; 3 > max_requeues on expiry
            assert backend.lease("w1")["job"] is not None
            clock.advance(11.0)
            backend.tick()
        assert backend.counters["jobs_failed"] == 1
        assert isinstance(future.exception(), RuntimeError)
        assert backend.lease("w1")["job"] is None

    def test_late_push_beats_expiry_requeue(self):
        """A worker that finished after its lease expired still wins."""
        backend, clock = self._backend()
        job = _plan_job("a")
        future = backend.submit(job, (), False)
        lease_id = backend.lease("w1")["lease_id"]
        clock.advance(11.0)
        backend.tick()  # expired: job re-queued
        response = backend.push("w1", job.fingerprint, "plan",
                                dict(PLAN_PAYLOAD), lease_id=lease_id)
        assert response == {"ok": True, "duplicate": False}
        assert future.result(timeout=1.0)[0]["plans"] == []
        # The re-queued copy is skipped, not handed out again.
        assert backend.lease("w2")["job"] is None

    def test_duplicate_push_is_idempotent(self):
        backend, _ = self._backend()
        job = _plan_job("a")
        backend.submit(job, (), False)
        lease = backend.lease("w1")
        first = backend.push("w1", job.fingerprint, "plan",
                             dict(PLAN_PAYLOAD),
                             lease_id=lease["lease_id"])
        again = backend.push("w2", job.fingerprint, "plan",
                             dict(PLAN_PAYLOAD))
        assert first == {"ok": True, "duplicate": False}
        assert again == {"ok": True, "duplicate": True}
        assert backend.counters["pushes_ok"] == 1
        assert backend.counters["pushes_duplicate"] == 1

    @pytest.mark.parametrize("fingerprint,kind,payload,reason", [
        ("f" * 64, "plan", PLAN_PAYLOAD, "stale fingerprint"),
        (None, "plan", PLAN_PAYLOAD, "missing fingerprint"),
        ("pending", "shard", PLAN_PAYLOAD, "does not match pending"),
        ("pending", "plan", {"wall_time_s": 0.0}, "missing keys"),
        ("pending", "plan", "not an object", "must be an object"),
    ])
    def test_bad_pushes_are_rejected(self, fingerprint, kind, payload,
                                     reason):
        backend, _ = self._backend()
        job = JobSpec(job_id="pending", kind="plan", fingerprint="pending")
        future = backend.submit(job, (), False)
        response = backend.push("w1", fingerprint, kind, payload)
        assert response["ok"] is False
        assert reason in response["error"]
        assert backend.counters["pushes_rejected"] == 1
        assert not future.done()  # the pending job is untouched

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), 0, -1])
    def test_lease_ttl_must_be_finite_and_positive(self, ttl, tmp_path):
        """A NaN deadline never expires: a dead worker's lease would
        never be re-queued."""
        with pytest.raises(ConfigError, match="spec field 'lease_ttl_s'"):
            RemoteBackend(lease_ttl_s=ttl)
        with pytest.raises(ConfigError, match="spec field 'lease_ttl_s'"):
            CampaignService(ResultStore(tmp_path / "s.jsonl"), [],
                            lease_ttl_s=ttl)

    def test_register_refuses_protocol_mismatch(self):
        backend, _ = self._backend()
        response = backend.register("w2", version=99)
        assert response["ok"] is False and "version" in response["error"]


class TestProtocolCodec:
    def test_gpu_round_trip_is_exact(self):
        decoded = protocol.decode_gpu(json.loads(json.dumps(
            protocol.encode_gpu(MINI_NVIDIA))))
        assert decoded == MINI_NVIDIA

    def test_shard_args_ship_a_golden_marker(self):
        args = ("cfg", "histogram", "tiny", "rr", 100, "goldfp",
                {"big": "blob"}, [1, 2], "transient", {"snap": 1},
                None, True)
        encoded = protocol.encode_args("shard", args)
        assert encoded[6] == {protocol.GOLDEN_OUTPUTS_KEY: "goldfp"}
        assert encoded[9] is None  # snapshots rebuilt worker-side
        fetched = []
        decoded = protocol.decode_args(
            "shard", json.loads(json.dumps(encoded)),
            lambda fp: fetched.append(fp) or {"big": "blob"})
        assert decoded[6] == {"big": "blob"} and fetched == ["goldfp"]

    def test_check_payload_contract(self):
        assert protocol.check_payload("plan", dict(PLAN_PAYLOAD)) is None
        assert "missing keys" in protocol.check_payload("plan", {})
        assert "unknown job kind" in protocol.check_payload("cell", {})
        assert "not JSON-serializable" in protocol.check_payload(
            "plan", {"plans": [], "wall_time_s": 0.0, "bad": object()})


class TestHttpLayer:
    @pytest.fixture
    def server(self):
        backend = RemoteBackend(lease_ttl_s=30.0)
        server = CoordinatorServer(backend, port=0)
        server.start()
        yield server
        server.stop()

    def _raw(self, server, method, path, body=None):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5.0)
        try:
            conn.request(method, path,
                         body=json.dumps(body) if body is not None
                         else None)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_status_codes(self, server):
        assert self._raw(server, "GET", "/nope")[0] == 404
        assert self._raw(server, "GET",
                         protocol.GOLDEN_PATH + "unknown")[0] == 404
        assert self._raw(server, "GET", protocol.STATUS_PATH)[0] == 200
        # A push the backend rejects is an HTTP 409, not a 200.
        status, body = self._raw(server, "POST", protocol.PUSH_PATH,
                                 {"worker_id": "w", "fingerprint": "x",
                                  "kind": "plan", "payload": {}})
        assert status == 409 and body["ok"] is False
        # Submissions are refused when no service queue is attached.
        assert self._raw(server, "POST", protocol.SUBMIT_PATH,
                         {"spec": {}})[0] == 403

    def test_malformed_body_is_a_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5.0)
        try:
            conn.request("POST", protocol.LEASE_PATH, body="{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(ConfigError, match="http://host:port"):
            CoordinatorClient("ftp://example:1")

    def test_segment_replay_is_at_least_once_not_more(self, server,
                                                      tmp_path):
        job = JobSpec(job_id="seg", kind="plan", fingerprint="seg")
        future = server.backend.submit(job, (), False)
        segment = ResultStore(tmp_path / "segment.jsonl")
        segment.put("seg", "plan", dict(PLAN_PAYLOAD))
        worker = CampaignWorker(server.url, worker_id="replayer",
                                segment_store=segment)
        worker.register()
        worker.replay_segment()
        assert worker.counters["replayed"] == 1
        assert future.result(timeout=1.0)[0]["plans"] == []
        worker.replay_segment()  # a second replay appends nothing
        assert server.backend.counters["pushes_ok"] == 1
        assert server.backend.counters["pushes_duplicate"] == 1


def _assert_same_results(pool_path, dist_path):
    """Same results as the pool twin; no job lost, none appended twice."""
    assert diff_stores(pool_path, dist_path, ignore_order=True) == []
    lines = [[line for line in path.read_bytes().split(b"\n")
              if line.strip()] for path in (pool_path, dist_path)]
    assert len(lines[1]) == len(lines[0]) == len(ResultStore(pool_path))


def _run_distributed(store, specs, worker_ids=("w1", "w2"),
                     give_up_s=15.0, submit=(), **kwargs):
    """One in-process fleet: the service plus worker threads.

    ``submit`` holds spec dicts queued through the ``POST /v1/submit``
    body handler after the service starts with ``specs``.

    Returns the service's stats and, per worker id, what its thread
    ended with: the worker's counters, or the exception it raised.
    """
    service = CampaignService(store, specs, port=0, **kwargs)
    for data in submit:
        assert service.enqueue_spec(data)["ok"]
    outcomes = {}

    def body(wid):
        worker = CampaignWorker(service.url, worker_id=wid,
                                poll_s=0.02, give_up_s=give_up_s)
        try:
            outcomes[wid] = worker.run()
        except Exception as error:
            outcomes[wid] = error

    threads = [threading.Thread(target=body, args=(wid,), daemon=True)
               for wid in worker_ids]
    for thread in threads:
        thread.start()
    stats = service.run()
    for thread in threads:
        thread.join(timeout=give_up_s + 10.0)
    assert not any(thread.is_alive() for thread in threads), \
        "a worker thread outlived its service"
    return stats, outcomes


class TestDistributedCampaign:
    def test_distributed_store_matches_pool_store(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
        pool_path = tmp_path / "pool.jsonl"
        run_campaign(SPEC, store=pool_path)
        clear_memory_cache()

        dist_path = tmp_path / "dist.jsonl"
        stats, counters = _run_distributed(
            ResultStore(dist_path), [SPEC])
        _assert_same_results(pool_path, dist_path)
        assert stats.executed > 0
        executed = sum(c["executed"] for c in counters.values())
        assert executed == sum(c["pushed"] for c in counters.values())
        assert all(c["rejected"] == 0 for c in counters.values())

    def test_pre_service_store_resumes_with_zero_jobs(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
        store_path = tmp_path / "store.jsonl"
        first = run_campaign(SPEC, store=store_path)
        assert first.stats.executed > 0
        clear_memory_cache()

        stats, outcomes = _run_distributed(
            ResultStore(store_path), [SPEC], worker_ids=("w1",),
            give_up_s=1.0)
        assert stats.executed == 0
        assert stats.cached == stats.total
        # With nothing to lease the service shuts down at once, so w1
        # either registers just before that and runs nothing, or finds
        # the coordinator gone and gives up.
        w1 = outcomes["w1"]
        if not isinstance(w1, CoordinatorUnreachable):
            assert w1["executed"] == w1["pushed"] == 0

    def test_worker_death_mid_campaign_is_recovered(self, tmp_path,
                                                    monkeypatch):
        """A worker that leases a job and dies never stalls the run."""
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
        pool_path = tmp_path / "pool.jsonl"
        run_campaign(SMALL_SPEC, store=pool_path)
        clear_memory_cache()

        dist_path = tmp_path / "dist.jsonl"
        service = CampaignService(ResultStore(dist_path), [SMALL_SPEC],
                                  port=0, lease_ttl_s=0.6)
        outcome = {}
        service_thread = threading.Thread(
            target=lambda: outcome.update(stats=service.run()),
            daemon=True)
        service_thread.start()

        # The doomed worker: registers, takes one lease, dies without
        # pushing or heartbeating. Its lease must expire and re-queue.
        client = CoordinatorClient(service.url)
        client.post(protocol.REGISTER_PATH,
                    {"worker_id": "doomed",
                     "version": protocol.PROTOCOL_VERSION})
        deadline = time.monotonic() + 15.0
        leased = None
        while leased is None and time.monotonic() < deadline:
            response = client.post(protocol.LEASE_PATH,
                                   {"worker_id": "doomed"})
            leased = response.get("job")
            if leased is None:
                time.sleep(0.02)
        assert leased is not None, "doomed worker never got a lease"

        survivor = CampaignWorker(service.url, worker_id="survivor",
                                  poll_s=0.02, give_up_s=15.0)
        counters = survivor.run()
        service_thread.join(timeout=60.0)
        assert not service_thread.is_alive()

        assert service.backend.counters["leases_expired"] >= 1
        assert outcome["stats"].executed > 0
        _assert_same_results(pool_path, dist_path)
        assert counters["rejected"] == 0

    def test_fleet_telemetry_reaches_the_hub(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
        sink = MemoryTelemetrySink()
        stats, _ = _run_distributed(
            ResultStore(tmp_path / "dist.jsonl"), [SMALL_SPEC],
            worker_ids=("w1",), telemetry=sink)
        events = [e["event"] for e in sink.events]
        assert "worker_register" in events
        assert "lease_grant" in events
        assert "job_push" in events
        assert "campaign_end" in events
        grants = [e for e in sink.events if e["event"] == "lease_grant"]
        pushes = [e for e in sink.events
                  if e["event"] == "job_push" and e["ok"]]
        assert all(e["worker"] == "w1" for e in grants)
        assert len(grants) >= 2  # at least the golden and plan jobs
        assert len(grants) == len(pushes)  # default TTL: nothing expired
        assert stats.executed > 0

    @pytest.mark.parametrize("source", ["argument", "spec file"])
    def test_profile_alone_shares_the_fleet_stream(self, tmp_path,
                                                   monkeypatch, source):
        """Profiling without telemetry opens one stream for everything.

        The fleet events and the campaign's profile events land in the
        same JSONL next to the store, whether profiling is asked for by
        the service or by a served spec file.
        """
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
        store_path = tmp_path / "dist.jsonl"
        if source == "argument":
            specs, kwargs = [SMALL_SPEC], {"profile": True}
        else:
            spec_file = tmp_path / "profiled.toml"
            spec_file.write_text(
                'gpus = ["gtx480"]\nworkloads = ["histogram"]\n'
                'scale = "tiny"\nsamples = 8\nprofile = true\n')
            specs, kwargs = [CampaignSpec.from_file(spec_file)], {}
        with ResultStore(store_path) as store:
            _run_distributed(store, specs, worker_ids=("w1",), **kwargs)
        events = {e["event"] for e in
                  load_telemetry(telemetry_path_for_store(store_path))}
        assert {"worker_register", "lease_grant", "job_push",
                "cell_profile", "campaign_profile"} <= events, events

    @pytest.mark.parametrize("first", [[], [SMALL_SPEC]],
                             ids=["alone", "after-unprofiled"])
    def test_submitted_profiled_spec_shares_the_fleet_stream(
            self, tmp_path, monkeypatch, first):
        """A spec submitted with ``profile = true`` to a service started
        without telemetry gets one stream for its profile and the fleet
        events of its campaign."""
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 2.0)
        store_path = tmp_path / "dist.jsonl"
        profiled = {"gpus": ["gtx480"], "workloads": ["histogram"],
                    "scale": "tiny", "samples": 8, "profile": True}
        with ResultStore(store_path) as store:
            _run_distributed(store, first, worker_ids=("w1",),
                             submit=[profiled])
        stream = load_telemetry(telemetry_path_for_store(store_path))
        events = {e["event"] for e in stream}
        assert {"lease_grant", "job_push", "cell_profile",
                "campaign_profile"} <= events, events
        if not first:
            assert "worker_register" in events
        # Only the profiled campaign reports there.
        assert [e["event"] for e in stream].count("campaign_begin") == 1

    def test_submit_endpoint_queues_specs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CampaignService, "SHUTDOWN_LINGER_S", 0.2)
        service = CampaignService(
            ResultStore(tmp_path / "s.jsonl"), [], port=0)
        service.server.start()
        try:
            assert service.enqueue_spec(
                {"samples": "not an int"})["ok"] is False
            response = service.enqueue_spec(
                {"gpus": ["gtx480"], "workloads": ["vectoradd"],
                 "scale": "tiny", "samples": 4})
            assert response["ok"] is True
            assert len(service.specs) == 1
        finally:
            service.server.stop()

    def test_serve_refuses_non_specs(self, tmp_path):
        with pytest.raises(ConfigError, match="CampaignSpec"):
            CampaignService(ResultStore(tmp_path / "s.jsonl"),
                            [{"gpus": ["gtx480"]}])
