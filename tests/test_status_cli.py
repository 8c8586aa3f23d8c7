"""The `status STORE` monitor and the consolidated CLI surface.

Renders against the checked-in fixture store
(tests/fixtures/status_store.jsonl + .telemetry.jsonl — a finished
2-cell gtx480 campaign recorded with telemetry on), so output checks
are deterministic and need no simulation.
"""

import json
from pathlib import Path

import pytest

from repro.engine import clear_memory_cache
from repro.experiments.runner import main
from repro.telemetry import (
    aggregate_events,
    format_status,
    load_telemetry,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
STORE = FIXTURES / "status_store.jsonl"
TELEMETRY = FIXTURES / "status_store.telemetry.jsonl"


class TestStatusCommand:
    def test_completed_campaign_panel(self, capsys):
        assert main(["status", str(STORE)]) == 0
        out = capsys.readouterr().out
        # job counts, per kind
        assert "jobs: 7" in out
        for kind in ("golden", "plan", "shard", "cell"):
            assert kind in out
        # cache hit rate, occupancy, throughput — the acceptance surface
        assert "cache hit rate" in out
        assert "occupancy" in out and "workers: 2" in out
        assert "samples/s" in out
        assert "completed in" in out
        assert "status fixture" in out

    def test_in_progress_campaign_shows_eta(self, tmp_path, capsys):
        # The same stream minus campaign_end is a killed/running
        # campaign: the panel must flip to IN PROGRESS with an ETA.
        events = [e for e in load_telemetry(TELEMETRY)
                  if e["event"] != "campaign_end"]
        store = tmp_path / "status_store.jsonl"
        store.write_text(STORE.read_text())
        (tmp_path / "status_store.telemetry.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        assert main(["status", str(store)]) == 0
        out = capsys.readouterr().out
        assert "IN PROGRESS" in out
        assert "ETA" in out

    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not found" in err
        assert "Traceback" not in err

    def test_store_without_telemetry_renders_hint(self, tmp_path, capsys):
        store = tmp_path / "bare.jsonl"
        store.write_text(STORE.read_text())
        assert main(["status", str(store)]) == 0
        out = capsys.readouterr().out
        assert "store: 7 finished job records" in out
        assert "none recorded" in out
        assert "--telemetry" in out

    def test_explicit_telemetry_path_override(self, tmp_path, capsys):
        store = tmp_path / "bare.jsonl"
        store.write_text(STORE.read_text())
        assert main(["status", str(store),
                     "--telemetry", str(TELEMETRY)]) == 0
        out = capsys.readouterr().out
        assert "status fixture" in out


class TestStatusRendering:
    """format_status is a pure function — pin the clock and assert."""

    def test_fixture_aggregation(self):
        status = aggregate_events(load_telemetry(TELEMETRY))
        assert status.campaigns_begun == 1 and status.campaigns_ended == 1
        assert not status.in_progress
        assert status.cells_done == status.cells_total == 2
        assert status.jobs_executed == 7 and status.jobs_cached == 0
        assert status.workers == 2
        assert status.utilization is not None
        assert 0.0 < status.utilization <= 1.0
        assert status.samples_per_s is not None and status.samples_per_s > 0

    def test_in_progress_panel_is_deterministic(self):
        events = [e for e in load_telemetry(TELEMETRY)
                  if e["event"] != "campaign_end"]
        status = aggregate_events(events)
        assert status.in_progress
        panel = format_status("store.jsonl", {"golden": 2}, status,
                              now=status.last_ts + 5.0)
        assert "IN PROGRESS (last event 5.0s ago)" in panel
        assert "ETA" in panel

    def test_empty_stream_panel(self):
        panel = format_status("store.jsonl", {}, aggregate_events([]),
                              telemetry_path="store.telemetry.jsonl")
        assert "none recorded" in panel
        assert "store.telemetry.jsonl" in panel


class TestZeroExecutedEdges:
    """ETA/throughput must degrade to None, never divide by zero."""

    def test_empty_stream_rates_are_none(self):
        status = aggregate_events([])
        assert status.eta_s is None
        assert status.samples_per_s is None
        assert status.utilization is None

    def test_begun_but_no_cell_finished(self):
        begin = [e for e in load_telemetry(TELEMETRY)
                 if e["event"] == "campaign_begin"]
        status = aggregate_events(begin)
        assert status.in_progress and status.cells_done == 0
        assert status.eta_s is None
        assert status.samples_per_s is None
        panel = format_status("store.jsonl", {}, status,
                              now=status.last_ts + 1.0)
        assert "n/a" in panel

    def test_completed_stream_has_no_eta(self):
        status = aggregate_events(load_telemetry(TELEMETRY))
        assert not status.in_progress
        assert status.eta_s is None

    def test_fully_cached_resume_renders(self, tmp_path, capsys):
        # Replay of the fixture store: 0 executed jobs, panel must
        # still render without an ETA or a crash.
        spec = tmp_path / "spec.toml"
        spec.write_text(
            'gpus = ["gtx480"]\nworkloads = ["vectoradd", "histogram"]\n'
            'scale = "small"\nsamples = 8\nseed = 0\n'
            'structures = ["register_file"]\n')
        store = tmp_path / "status_store.jsonl"
        store.write_text(STORE.read_text())
        assert main(["run", str(spec), "--quiet", "--telemetry",
                     "--resume", str(store)]) == 0
        capsys.readouterr()
        status = aggregate_events(
            load_telemetry(tmp_path / "status_store.telemetry.jsonl"))
        assert status.jobs_executed == 0
        assert status.eta_s is None
        assert main(["status", str(store)]) == 0
        assert "completed in" in capsys.readouterr().out


class TestFollowMode:
    def test_follow_once_renders_and_exits(self, capsys):
        assert main(["status", str(STORE), "--follow", "--once"]) == 0
        out = capsys.readouterr().out
        assert "completed in" in out

    def test_follow_exits_when_campaign_already_ended(self, capsys):
        # Stream ends with campaign_end → the follow loop must return
        # after the first poll instead of tailing forever.
        assert main(["status", str(STORE), "--follow"]) == 0
        assert "completed in" in capsys.readouterr().out

    def test_follow_tolerates_torn_final_line(self, tmp_path, capsys):
        store = tmp_path / "status_store.jsonl"
        store.write_text(STORE.read_text())
        telemetry = tmp_path / "status_store.telemetry.jsonl"
        telemetry.write_text(TELEMETRY.read_text() + '{"v": 1, "se')
        assert main(["status", str(store), "--follow", "--once"]) == 0
        assert "completed in" in capsys.readouterr().out


class TestProfileCommand:
    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not found" in err

    def test_missing_telemetry_exits_2(self, tmp_path, capsys):
        store = tmp_path / "bare.jsonl"
        store.write_text(STORE.read_text())
        assert main(["profile", str(store)]) == 2
        err = capsys.readouterr().err
        assert "--profile" in err and "Traceback" not in err

    def test_stream_without_profile_events_hints(self, capsys):
        # The fixture stream predates profiling: report must point at
        # --profile rather than render an empty table.
        assert main(["profile", str(STORE)]) == 0
        out = capsys.readouterr().out
        assert "no profile events" in out
        assert "--profile" in out

    def test_malformed_profile_events_render_like_status(
            self, tmp_path, capsys):
        # A stream that `status` renders must not crash `profile`: a
        # non-dict profile and a non-numeric counter or work_s are
        # skipped.
        store = tmp_path / "status_store.jsonl"
        store.write_text(STORE.read_text())
        events = load_telemetry(TELEMETRY) + [
            {"event": "campaign_profile", "profile": "not-a-dict",
             "work_s": "bogus"},
            {"event": "cell_profile",
             "profile": {"counters": {"memo_hits": "bogus",
                                      "memo_misses": 2}}},
        ]
        (tmp_path / "status_store.telemetry.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        assert main(["status", str(store)]) == 0
        assert main(["profile", str(store)]) == 0
        out, err = capsys.readouterr()
        assert "memo_misses" in out and "bogus" not in out
        assert "Traceback" not in err

    def test_profile_flag_conflict_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "tiny.toml"
        spec.write_text('gpus = ["gtx480"]\nworkloads = ["vectoradd"]\n'
                        'scale = "tiny"\nsamples = 4\n')
        assert main(["run", str(spec), "--profile", "--no-profile"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_run_profile_then_report_end_to_end(self, tmp_path, capsys):
        # A golden an earlier test left cached (with its trace resident)
        # would leave this 4-sample campaign nothing to simulate, and
        # its profile no dispatch mix.
        clear_memory_cache()
        spec = tmp_path / "tiny.toml"
        spec.write_text('gpus = ["gtx480"]\nworkloads = ["vectoradd"]\n'
                        'scale = "tiny"\nsamples = 4\n')
        store = tmp_path / "store.jsonl"
        assert main(["run", str(spec), "--quiet", "--profile",
                     "--resume", str(store)]) == 0
        capsys.readouterr()
        assert main(["profile", str(store)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "100.0%" in out
        assert "sass" in out


class TestConsolidatedCli:
    def test_current_names_do_not_warn(self, recwarn, capsys):
        for name in ("control", "models"):
            assert main([name, "--samples", "4", "--scale", "tiny",
                         "--gpus", "gtx480", "--workloads", "vectoradd",
                         "--quiet"]) == 0
            assert f"== running {name} ==" in capsys.readouterr().err
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

    def test_telemetry_flag_conflict_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "tiny.toml"
        spec.write_text('gpus = ["gtx480"]\nworkloads = ["vectoradd"]\n'
                        'scale = "tiny"\nsamples = 4\n')
        assert main(["run", str(spec), "--telemetry",
                     "--no-telemetry"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_telemetry_without_store_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "tiny.toml"
        spec.write_text('gpus = ["gtx480"]\nworkloads = ["vectoradd"]\n'
                        'scale = "tiny"\nsamples = 4\n')
        assert main(["run", str(spec), "--quiet", "--telemetry"]) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith("path")
        assert "error:" in err and "Traceback" not in err

    def test_run_telemetry_writes_next_to_store(self, tmp_path, capsys):
        spec = tmp_path / "tiny.toml"
        spec.write_text('gpus = ["gtx480"]\nworkloads = ["vectoradd"]\n'
                        'scale = "tiny"\nsamples = 4\n')
        store = tmp_path / "store.jsonl"
        assert main(["run", str(spec), "--quiet", "--telemetry",
                     "--resume", str(store)]) == 0
        telemetry = tmp_path / "store.telemetry.jsonl"
        assert telemetry.exists()
        events = load_telemetry(telemetry)
        assert events[0]["event"] == "campaign_begin"
        assert events[-1]["event"] == "campaign_end"
        capsys.readouterr()
        assert main(["status", str(store)]) == 0
        assert "completed in" in capsys.readouterr().out

    def test_subcommand_help_exists_for_every_command(self):
        for command in ("fig1", "fig2", "fig3", "control", "models",
                        "all", "run", "sweep", "status", "profile"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0


class TestFastPathSurfacing:
    """suffix-memo info in the status panel, tolerant of telemetry
    streams recorded before or after that field existed."""

    def test_pre_fastpath_fixture_tolerated(self):
        # The checked-in fixture predates suffix_memo: the aggregator
        # must leave it unknown and the panel must render without a
        # fast-path line (and without crashing).
        status = aggregate_events(load_telemetry(TELEMETRY))
        assert status.suffix_memo is None
        assert status.memo_hits == 0 and status.memo_misses == 0
        panel = format_status("store.jsonl", {}, status)
        assert "fast path" not in panel

    def _events_with_fastpath(self):
        events = load_telemetry(TELEMETRY)
        for event in events:
            if event["event"] == "campaign_begin":
                # Streams recorded while campaigns still chose an
                # interpreter carry a ``backend`` field too.
                event["backend"] = "vector"
                event["suffix_memo"] = True
        return events

    def test_memo_flag_rendered_despite_stale_backend(self):
        status = aggregate_events(self._events_with_fastpath())
        assert status.suffix_memo is True
        panel = format_status("store.jsonl", {}, status)
        assert "fast path: suffix memo on" in panel.splitlines()
        assert "backend" not in panel

    def test_memo_counters_from_cell_profiles(self):
        events = self._events_with_fastpath()
        ts = events[-1]["ts"]
        events.append({"event": "cell_profile", "ts": ts,
                       "profile": {"counters": {"memo_hits": 3,
                                                "memo_misses": 1}}})
        status = aggregate_events(events)
        assert status.memo_hits == 3 and status.memo_misses == 1
        panel = format_status("store.jsonl", {}, status)
        assert "3/4 memo hits (75%)" in panel

    def test_campaign_profile_totals_preferred(self):
        # The driver's campaign_profile summary already sums the
        # cells; counting both would double every hit.
        events = self._events_with_fastpath()
        ts = events[-1]["ts"]
        events.append({"event": "cell_profile", "ts": ts,
                       "profile": {"counters": {"memo_hits": 3,
                                                "memo_misses": 1}}})
        events.append({"event": "campaign_profile", "ts": ts,
                       "profile": {"counters": {"memo_hits": 3,
                                                "memo_misses": 1,
                                                "memo_collisions": 1}}})
        status = aggregate_events(events)
        assert status.memo_hits == 3 and status.memo_misses == 1
        assert status.memo_collisions == 1
        assert "1 digest collisions" in format_status(
            "store.jsonl", {}, status)

    def test_malformed_profile_events_tolerated(self):
        events = self._events_with_fastpath()
        ts = events[-1]["ts"]
        events.append({"event": "cell_profile", "ts": ts})
        events.append({"event": "cell_profile", "ts": ts,
                       "profile": "not-a-dict"})
        events.append({"event": "cell_profile", "ts": ts,
                       "profile": {"counters": {"memo_hits": "bogus"}}})
        status = aggregate_events(events)
        assert status.memo_hits == 0
