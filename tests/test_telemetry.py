"""Engine telemetry: sinks, hub fan-out, and observability-only-ness.

The load-bearing contract: telemetry never changes results. No job
fingerprint may include the telemetry setting and a failing sink must
be dropped, never propagated into the scheduler; stores with it on and
off are compared in tests/test_transparency.py.
"""

import pytest

from repro.engine.matrix import cell_fingerprints, run_campaign
from repro.engine.scheduler import clear_memory_cache
from repro.errors import ConfigError
from repro.spec import CampaignSpec
from repro.spec.sweep import run_sweep
from repro.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    JsonlTelemetrySink,
    MemoryTelemetrySink,
    TelemetryHub,
    load_telemetry,
    resolve_telemetry,
    telemetry_path_for_store,
)

TINY = CampaignSpec(gpus=("gtx480",), workloads=("vectoradd",),
                    scale="tiny", samples=4)


class TestHub:
    def test_fan_out_order_and_envelope(self):
        first, second = MemoryTelemetrySink(), MemoryTelemetrySink()
        hub = TelemetryHub(first, second)
        hub.record("alpha", value=1)
        hub.record("beta", value=2)
        for sink in (first, second):
            assert [e["event"] for e in sink.events] == ["alpha", "beta"]
            for event in sink.events:
                assert event["v"] == TELEMETRY_SCHEMA_VERSION
                assert isinstance(event["ts"], float)
        # both sinks see the *same* dicts, in sequence order
        assert first.events[0] is second.events[0]
        assert [e["seq"] for e in first.events] == [0, 1]

    def test_failing_sink_is_dropped_not_propagated(self):
        class Exploding(MemoryTelemetrySink):
            def emit(self, event):
                raise RuntimeError("disk full")

        survivor = MemoryTelemetrySink()
        hub = TelemetryHub(Exploding(), survivor)
        hub.record("alpha")
        hub.record("beta")
        assert hub.dropped == 2
        assert [e["event"] for e in survivor.events] == ["alpha", "beta"]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        hub = TelemetryHub(JsonlTelemetrySink(path))
        hub.record("alpha", kind="golden", nested={"a": [1, 2]})
        hub.record("beta")
        hub.close()
        events = load_telemetry(path)
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert events[0]["nested"] == {"a": [1, 2]}
        assert events[0]["v"] == TELEMETRY_SCHEMA_VERSION

    def test_appends_across_hubs(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        for name in ("first", "second"):
            hub = TelemetryHub(JsonlTelemetrySink(path))
            hub.record(name)
            hub.close()
        assert [e["event"] for e in load_telemetry(path)] == \
            ["first", "second"]

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        hub = TelemetryHub(JsonlTelemetrySink(path))
        hub.record("alpha")
        hub.close()
        with path.open("a") as handle:
            handle.write('{"v": 1, "seq": 99, "ev')  # killed mid-write
        assert [e["event"] for e in load_telemetry(path)] == ["alpha"]

    def test_store_sibling_path(self):
        assert str(telemetry_path_for_store("results/store.jsonl")) == \
            "results/store.telemetry.jsonl"


class TestResolve:
    def test_off_settings(self):
        assert resolve_telemetry(None, None) == (None, False)
        assert resolve_telemetry(False, None) == (None, False)

    def test_true_needs_a_store_path(self):
        with pytest.raises(ConfigError, match="store"):
            resolve_telemetry(True, None)

    def test_explicit_path_and_sink_are_owned(self, tmp_path):
        hub, owned = resolve_telemetry(str(tmp_path / "t.jsonl"), None)
        assert owned and isinstance(hub, TelemetryHub)
        hub, owned = resolve_telemetry(MemoryTelemetrySink(), None)
        assert owned and isinstance(hub, TelemetryHub)

    def test_caller_hub_is_not_owned(self):
        caller = TelemetryHub()
        hub, owned = resolve_telemetry(caller, None)
        assert hub is caller and not owned

    def test_profile_alone_opens_the_store_sibling(self, tmp_path):
        class Store:
            path = tmp_path / "store.jsonl"

        hub, owned = resolve_telemetry(None, Store(), profile=True)
        assert owned and isinstance(hub, TelemetryHub)
        assert hub.sinks[0].path == tmp_path / "store.telemetry.jsonl"
        with pytest.raises(ConfigError, match="profiling"):
            resolve_telemetry(False, None, profile=True)
        # An explicit destination wins over the store sibling.
        caller = TelemetryHub()
        assert resolve_telemetry(caller, Store(), profile=True) == \
            (caller, False)

    def test_bad_setting_is_friendly(self):
        with pytest.raises(ConfigError, match="telemetry"):
            resolve_telemetry(3.14, None)


class TestEngineIntegration:
    def test_campaign_event_stream(self, tmp_path):
        clear_memory_cache()
        mem = MemoryTelemetrySink()
        store = tmp_path / "store.jsonl"
        run_campaign(TINY, store=str(store), telemetry=TelemetryHub(mem))
        types = [e["event"] for e in mem.events]
        assert types[0] == "campaign_begin"
        assert types[-1] == "campaign_end"
        for expected in ("job_start", "job_finish", "cell_finish"):
            assert expected in types
        assert "golden_cache" not in types
        assert [e["seq"] for e in mem.events] == list(range(len(mem.events)))
        begin = mem.of_type("campaign_begin")[0]
        assert begin["cells"] == 1 and begin["workers"] == 1
        finish = mem.of_type("job_finish")[0]
        assert finish["kind"] and finish["fp"]
        assert finish["wall_s"] >= 0 and finish["work_s"] >= 0
        end = mem.of_type("campaign_end")[0]
        assert end["jobs_executed"] == end["jobs_total"]

    def test_cached_replay_emits_job_cached(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign(TINY, store=str(store))
        mem = MemoryTelemetrySink()
        result = run_campaign(TINY, store=str(store),
                              telemetry=TelemetryHub(mem))
        assert result.stats.executed == 0
        cached = mem.of_type("job_cached")
        assert cached and all(e["source"] == "store" for e in cached)
        assert not mem.of_type("job_start")

    def test_spec_field_turns_telemetry_on(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign(TINY.replace(telemetry=True), store=str(store))
        events = load_telemetry(telemetry_path_for_store(store))
        assert [e["event"] for e in events][0] == "campaign_begin"

    def test_sweep_shares_one_stream(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        run_sweep(TINY.replace(telemetry=True), {"seed": [0, 1]},
                  store=str(store))
        events = load_telemetry(telemetry_path_for_store(store))
        types = [e["event"] for e in events]
        assert types[0] == "sweep_begin" and types[-1] == "sweep_end"
        assert types.count("campaign_begin") == 2
        assert types.count("campaign_end") == 2
        # one hub, one monotonic sequence across all children
        assert [e["seq"] for e in events] == list(range(len(events)))


class TestObservabilityOnly:
    def test_telemetry_joins_no_fingerprint(self):
        assert cell_fingerprints(TINY) == \
            cell_fingerprints(TINY.replace(telemetry=True))
        assert cell_fingerprints(TINY) == \
            cell_fingerprints(TINY.replace(telemetry="elsewhere.jsonl"))


class TestSpecField:
    def test_validation(self):
        TINY.replace(telemetry=True)
        TINY.replace(telemetry=False)
        TINY.replace(telemetry="events.jsonl")
        with pytest.raises(ConfigError, match="telemetry"):
            TINY.replace(telemetry=3)
        with pytest.raises(ConfigError, match="telemetry"):
            TINY.replace(telemetry="")

    def test_serialization_round_trip(self, tmp_path):
        for value in (True, "events.jsonl"):
            spec = TINY.replace(telemetry=value)
            assert CampaignSpec.from_dict(spec.to_dict()) == spec
            path = tmp_path / "spec.toml"
            spec.to_file(path)
            assert CampaignSpec.from_file(path).telemetry == value
