"""The hot-path profiling layer: collector, report, tail, transparency.

Three contracts under test. (1) The ProfileCollector's exclusive-time
stack accounting: nested phases suspend their parent, so per-phase
seconds partition the instrumented wall time and report shares sum to
100%. (2) The tailing/loading tolerance: a partially-written final
JSONL line (torn JSON or torn UTF-8) is buffered or skipped-and-
counted, never raised. (3) Observability-only-ness, same guarantee
as telemetry: no fingerprint includes the setting and a pre-profiling
store resumes with zero executed jobs (store parity on vs off, with
live faults re-simulated, is tests/test_transparency.py).
"""

import json
from pathlib import Path

import pytest

from repro.engine.matrix import cell_fingerprints, run_campaign
from repro.engine.scheduler import clear_memory_cache
from repro.errors import ConfigError
from repro.spec import CampaignSpec
from repro.spec.sweep import run_sweep
from repro.telemetry import (
    MemoryTelemetrySink,
    PHASES,
    ProfileCollector,
    TelemetryHub,
    TelemetryTail,
    aggregate_profiles,
    format_profile,
    load_telemetry,
    load_telemetry_events,
    merge_profiles,
    top_cost_centers,
)
from repro.telemetry import profile as profile_mod

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_STORE = FIXTURES / "status_store.jsonl"

TINY = CampaignSpec(gpus=("gtx480",), workloads=("vectoradd",),
                    scale="tiny", samples=4)


@pytest.fixture
def fake_clock(monkeypatch):
    """Replace the collector's clock with one that ticks 1s per read."""
    ticks = iter(float(i) for i in range(10_000))
    monkeypatch.setattr(profile_mod, "perf_counter", lambda: next(ticks))


class TestCollector:
    def test_nested_phases_account_exclusive_time(self, fake_clock):
        collector = ProfileCollector()
        with collector.phase("golden"):        # enter @0
            with collector.phase("digest"):    # enter @1: golden += 1
                pass                           # exit @2: digest += 1
            pass                               # exit @3: golden += 1
        assert collector.phases == {"golden": 2.0, "digest": 1.0}
        assert collector.phase_calls == {"golden": 1, "digest": 1}

    def test_sibling_phases_partition_time(self, fake_clock):
        collector = ProfileCollector()
        with collector.phase("restore"):       # 0 -> 1
            pass
        with collector.phase("suffix_sim"):    # 2 -> 3
            pass
        assert collector.phases == {"restore": 1.0, "suffix_sim": 1.0}

    def test_dispatch_counts_per_isa_and_memory(self):
        collector = ProfileCollector()
        collector.dispatch("sass", "alu", False)
        collector.dispatch("sass", "mem", True)
        collector.dispatch("si", "alu", False)
        assert collector.dispatch_counts == {
            "sass": {"alu": 1, "mem": 1}, "si": {"alu": 1}}
        assert collector.counters["warp_issues"] == 3
        assert collector.counters["memory_ops"] == 1

    def test_as_dict_is_json_safe_snapshot(self):
        collector = ProfileCollector()
        collector.count("checkpoint_hit")
        data = collector.as_dict()
        json.dumps(data)
        collector.count("checkpoint_hit")
        assert data["counters"]["checkpoint_hit"] == 1  # snapshot, not view


class TestModuleHooks:
    def test_inactive_phase_is_shared_noop(self):
        assert profile_mod.ACTIVE is None
        scope = profile_mod.phase("golden")
        assert scope is profile_mod.phase("restore")
        with scope:
            pass
        profile_mod.count("anything")  # must not raise

    def test_collecting_activates_and_restores(self):
        outer, inner = ProfileCollector(), ProfileCollector()
        assert profile_mod.ACTIVE is None
        with profile_mod.collecting(outer):
            assert profile_mod.ACTIVE is outer
            with profile_mod.collecting(inner):
                assert profile_mod.ACTIVE is inner
                profile_mod.count("hit")
            assert profile_mod.ACTIVE is outer
        assert profile_mod.ACTIVE is None
        assert inner.counters == {"hit": 1}
        assert outer.counters == {}

    def test_collecting_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with profile_mod.collecting(ProfileCollector()):
                raise RuntimeError("boom")
        assert profile_mod.ACTIVE is None


class TestMerge:
    def test_none_sides(self):
        assert merge_profiles(None, None) is None
        data = ProfileCollector().as_dict()
        assert merge_profiles(data, None) is data
        assert merge_profiles(None, data) == data

    def test_sums_all_sections_without_mutating_source(self):
        a = {"phases": {"golden": 1.0}, "phase_calls": {"golden": 1},
             "dispatch": {"sass": {"alu": 2}}, "counters": {"hits": 1}}
        b = {"phases": {"golden": 0.5, "digest": 0.25},
             "phase_calls": {"golden": 2, "digest": 1},
             "dispatch": {"sass": {"alu": 1, "mem": 3}, "si": {"alu": 5}},
             "counters": {"hits": 2, "misses": 4}}
        b_copy = json.loads(json.dumps(b))
        merged = merge_profiles(a, b)
        assert merged["phases"] == {"golden": 1.5, "digest": 0.25}
        assert merged["phase_calls"] == {"golden": 3, "digest": 1}
        assert merged["dispatch"] == {"sass": {"alu": 3, "mem": 3},
                                      "si": {"alu": 5}}
        assert merged["counters"] == {"hits": 3, "misses": 4}
        assert b == b_copy


    def test_skips_non_dict_profiles_and_non_numeric_entries(self):
        data = {"phases": {"golden": 1.0, "digest": None},
                "phase_calls": "garbage",
                "dispatch": {"sass": {"alu": 2, "mem": "x"}, "si": 7},
                "counters": {"memo_hits": "bogus", "memo_misses": 2}}
        assert merge_profiles(None, "not-a-dict") is None
        merged = merge_profiles(None, data)
        assert merged["phases"] == {"golden": 1.0}
        assert merged["phase_calls"] == {}
        assert merged["dispatch"] == {"sass": {"alu": 2}}
        assert merged["counters"] == {"memo_misses": 2}

def _cell_event(workload, profile, fault_model="transient",
                structures=("register_file",)):
    return {"event": "cell_profile", "workload": workload,
            "fault_model": fault_model, "structures": list(structures),
            "profile": profile}


class TestReport:
    def test_total_prefers_campaign_summaries(self):
        cell = {"phases": {"golden": 1.0}, "phase_calls": {"golden": 1},
                "dispatch": {}, "counters": {}}
        summary = {"phases": {"golden": 9.0}, "phase_calls": {"golden": 9},
                   "dispatch": {}, "counters": {}}
        agg = aggregate_profiles([
            _cell_event("vectoradd", cell),
            {"event": "campaign_profile", "profile": summary},
        ])
        assert agg["total"]["phases"] == {"golden": 9.0}
        assert agg["cells"] == 1 and agg["campaigns"] == 1

    def test_total_falls_back_to_cell_sum(self):
        cell = {"phases": {"golden": 1.0}, "phase_calls": {"golden": 1},
                "dispatch": {}, "counters": {}}
        agg = aggregate_profiles([_cell_event("vectoradd", cell),
                                  _cell_event("histogram", cell)])
        assert agg["total"]["phases"] == {"golden": 2.0}
        assert set(agg["groups"]) == {
            "vectoradd x transient x register_file",
            "histogram x transient x register_file"}

    def test_top_cost_centers_orders_and_limits(self):
        groups = {
            "a": {"phases": {"golden": 3.0, "digest": 0.1}},
            "b": {"phases": {"suffix_sim": 2.0}},
        }
        centers = top_cost_centers(groups, limit=2)
        assert centers == [(3.0, "a", "golden"), (2.0, "b", "suffix_sim")]

    def test_format_no_events_hints_at_flag(self):
        panel = format_profile("store.jsonl", aggregate_profiles([]))
        assert "no profile events recorded" in panel
        assert "--profile" in panel

    def test_format_full_panel(self):
        profile = {
            "phases": {"golden": 3.0, "suffix_sim": 1.0},
            "phase_calls": {"golden": 1, "suffix_sim": 4},
            "dispatch": {"sass": {"alu": 10, "mem": 2}},
            "counters": {"warp_issues": 12, "memory_ops": 2},
        }
        agg = aggregate_profiles([
            _cell_event("vectoradd", profile),
            {"event": "campaign_profile", "profile": profile},
        ])
        panel = format_profile("store.jsonl", agg, work_s=4.2)
        assert "phase breakdown" in panel
        assert "75.0%" in panel and "25.0%" in panel
        assert "100.0%" in panel  # the total row
        assert "coverage: 4.000s attributed of 4.200s" in panel
        assert "sass" in panel and "warp_issues" in panel
        assert "top cost centers" in panel
        assert "vectoradd x transient x register_file :: golden" in panel

    def test_phase_rows_follow_canonical_order(self):
        profile = {"phases": {name: 1.0 for name in reversed(PHASES)},
                   "phase_calls": {}, "dispatch": {}, "counters": {}}
        panel = format_profile("s", aggregate_profiles(
            [{"event": "campaign_profile", "profile": profile}]))
        positions = [panel.index(name) for name in PHASES]
        assert positions == sorted(positions)


class TestTail:
    def test_missing_file_polls_empty(self, tmp_path):
        tail = TelemetryTail(tmp_path / "nope.jsonl")
        assert tail.poll() == []
        assert tail.poll() == []

    def test_partial_line_waits_for_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tail = TelemetryTail(path)
        path.write_text('{"event": "a"}\n{"event": "b"')
        assert [e["event"] for e in tail.poll()] == ["a"]
        with path.open("a") as handle:
            handle.write(', "x": 1}\n')
        assert [e["event"] for e in tail.poll()] == ["b"]
        assert tail.skipped == 0

    def test_torn_utf8_line_is_skipped_not_raised(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"event": "\xc3"}\n{"event": "ok"}\n')
        tail = TelemetryTail(path)
        assert [e["event"] for e in tail.poll()] == ["ok"]
        assert tail.skipped == 1

    def test_garbage_and_non_event_lines_count_as_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('not json\n[1, 2]\n{"no_event": 1}\n'
                        '{"event": "ok"}\n')
        tail = TelemetryTail(path)
        assert [e["event"] for e in tail.poll()] == ["ok"]
        assert tail.skipped == 3

    def test_truncation_restarts_from_top(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}\n')
        tail = TelemetryTail(path)
        assert len(tail.poll()) == 2
        path.write_text('{"event": "fresh"}\n')
        assert [e["event"] for e in tail.poll()] == ["fresh"]


class TestLoader:
    def test_load_telemetry_events_counts_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"event": "a"}\ngarbage\n'
                         b'{"event": "\xc3"}\n{"event": "b"}\n'
                         b'{"event": "torn')
        events, skipped = load_telemetry_events(path)
        assert [e["event"] for e in events] == ["a", "b"]
        assert skipped == 3
        assert [e["event"] for e in load_telemetry(path)] == ["a", "b"]


class TestEngineIntegration:
    def test_campaign_emits_profile_events(self):
        clear_memory_cache()
        mem = MemoryTelemetrySink()
        run_campaign(TINY, telemetry=TelemetryHub(mem), profile=True)
        cell_events = mem.of_type("cell_profile")
        assert len(cell_events) == 1
        event = cell_events[0]
        assert "GTX 480" in event["gpu"]
        assert event["workload"] == "vectoradd"
        assert "register_file" in event["structures"]
        profile = event["profile"]
        assert set(profile["phases"]) <= set(PHASES)
        assert profile["phases"]["golden"] > 0
        assert profile["counters"]["warp_issues"] > 0
        assert "sass" in profile["dispatch"]

    def test_campaign_summary_covers_cell_work(self):
        clear_memory_cache()
        mem = MemoryTelemetrySink()
        run_campaign(TINY, telemetry=TelemetryHub(mem), profile=True)
        summary = mem.of_type("campaign_profile")
        assert len(summary) == 1
        event = summary[0]
        assert event["cells"] == 1
        attributed = sum(event["profile"]["phases"].values())
        # The phase timers must attribute the bulk of the cell work the
        # campaign itself accounted (golden_time_s + fi_time_s).
        assert event["work_s"] > 0
        assert attributed > 0.5 * event["work_s"]
        assert attributed < 1.5 * event["work_s"]

    def test_profile_off_emits_no_profile_events(self):
        clear_memory_cache()
        mem = MemoryTelemetrySink()
        run_campaign(TINY, telemetry=TelemetryHub(mem))
        assert not mem.of_type("cell_profile")
        assert not mem.of_type("campaign_profile")

    def test_sweep_profiles_every_child(self):
        clear_memory_cache()
        mem = MemoryTelemetrySink()
        run_sweep(TINY, {"seed": [0, 1]},
                  telemetry=TelemetryHub(mem), profile=True)
        assert len(mem.of_type("campaign_profile")) == 2
        assert len(mem.of_type("cell_profile")) == 2

    def test_profile_true_without_store_is_config_error(self):
        with pytest.raises(ConfigError, match="profil"):
            run_campaign(TINY, profile=True)


class TestObservabilityOnly:
    def test_profile_joins_no_fingerprint(self):
        assert cell_fingerprints(TINY) == \
            cell_fingerprints(TINY.replace(profile=True))

    def test_pre_profiling_fixture_store_resumes_zero_executed(
            self, tmp_path):
        # The checked-in fixture store was recorded before the
        # profiling layer existed; profiling on must replay it fully
        # cached — the proof no fingerprint or payload changed.
        spec = CampaignSpec(gpus=("gtx480",),
                            workloads=("vectoradd", "histogram"),
                            scale="small", samples=8, seed=0,
                            structures=("register_file",))
        store = tmp_path / "status_store.jsonl"
        store.write_text(FIXTURE_STORE.read_text())
        clear_memory_cache()
        result = run_campaign(spec.replace(profile=True), store=str(store))
        assert result.stats.executed == 0


class TestSpecField:
    def test_validation(self):
        TINY.replace(profile=True)
        TINY.replace(profile=False)
        with pytest.raises(ConfigError, match="profile"):
            TINY.replace(profile=3)
        with pytest.raises(ConfigError, match="profile"):
            TINY.replace(profile="yes")

    def test_serialization_round_trip(self, tmp_path):
        spec = TINY.replace(profile=True)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        path = tmp_path / "spec.toml"
        spec.to_file(path)
        assert CampaignSpec.from_file(path).profile is True

    def test_set_override_parses_booleans(self):
        from repro.spec import spec_field
        parse = spec_field("profile").parse
        assert parse("true") is True
        assert parse("off") is False
        with pytest.raises(ConfigError, match="profile"):
            parse("maybe")
