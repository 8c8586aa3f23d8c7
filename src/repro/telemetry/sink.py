"""Engine telemetry: sinks and the fan-out hub.

The campaign engine (scheduler, matrix driver) emits a
stream of structured *telemetry events* describing how a campaign is
executing — job starts/finishes, cache hits, queue depth, worker
occupancy, per-cell throughput. Events are plain JSON-safe dicts with
a fixed envelope::

    {"v": 1, "seq": 17, "ts": 1754650000.123, "event": "job_finish", ...}

``v`` is the telemetry schema version, ``seq`` a per-hub monotonically
increasing sequence number, ``ts`` wall-clock unix time. Everything
after the envelope is event-specific (see :mod:`repro.telemetry.status`
for the consumer's view of each event type).

Telemetry is **strictly observability-only**: nothing in the engine
reads an event back, sinks never see job payloads by reference (only
scalar summaries), and result stores produced with telemetry on and
off are bit-identical — tests/test_transparency.py checks exactly
that. A sink that raises is dropped-from, never propagated: a full
disk must not kill a multi-hour campaign.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.errors import ConfigError

#: Version of the telemetry event schema (the ``v`` envelope field).
#: Bump when an event type changes incompatibly; readers should skip
#: events with a newer major version than they understand.
TELEMETRY_SCHEMA_VERSION = 1


class TelemetrySink:
    """Interface for consumers of engine telemetry events.

    ``emit`` receives one complete event dict (envelope + fields) per
    call, in emission order. Sinks must treat events as read-only —
    the hub hands every sink the same dict. ``close`` flushes and
    releases any resources; emitting after close is undefined.
    """

    def emit(self, event: dict) -> None:
        """Consume one telemetry event."""

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class MemoryTelemetrySink(TelemetrySink):
    """Keep every event in a list (tests, in-process dashboards)."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> list[dict]:
        """The recorded events of one type, in emission order."""
        return [e for e in self.events if e.get("event") == event_type]


class JsonlTelemetrySink(TelemetrySink):
    """Append one JSON line per event to a file.

    The file is opened lazily on the first event and **appended** to,
    so several campaigns against one result store accumulate into one
    durable activity log (the `repro-experiments status` data source).
    Lines are flushed per event — a reader tailing the file sees
    events promptly — but not fsynced: telemetry is an observability
    stream, not a result of record, and must stay cheap.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None

    def emit(self, event: dict) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(event) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class TelemetryHub:
    """Stamp events with the envelope and fan them out to sinks.

    The hub is what instrumented code holds: ``hub.record("job_start",
    kind="shard", ...)`` builds the enveloped event and hands it to
    every sink in registration order. Sink exceptions are swallowed
    and counted in ``dropped`` — observability must never change a
    campaign's outcome, so a failing sink cannot propagate into the
    scheduler.
    """

    def __init__(self, *sinks: TelemetrySink):
        self.sinks: list[TelemetrySink] = [s for s in sinks if s is not None]
        self.seq = 0
        self.dropped = 0

    def add_sink(self, sink: TelemetrySink) -> None:
        self.sinks.append(sink)

    def record(self, event_type: str, **fields) -> dict:
        """Emit one event; returns the enveloped dict (for tests)."""
        event = {
            "v": TELEMETRY_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": time.time(),
            "event": event_type,
            **fields,
        }
        self.seq += 1
        for sink in self.sinks:
            try:
                sink.emit(event)
            except Exception:
                self.dropped += 1
        return event

    def close(self) -> None:
        for sink in self.sinks:
            try:
                sink.close()
            except Exception:
                self.dropped += 1


def telemetry_path_for_store(store_path: str | Path) -> Path:
    """The canonical telemetry file for a result store.

    ``results/store.jsonl`` -> ``results/store.telemetry.jsonl`` —
    written next to the store so the activity log travels with the
    results it describes, and so ``repro-experiments status STORE``
    finds it without extra flags.
    """
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem + ".telemetry.jsonl")


def decode_telemetry_lines(lines) -> tuple[list[dict], int]:
    """``(events, skipped)`` of raw JSONL lines (bytes), in order.

    Each line is decoded independently, so one bad line — torn JSON,
    a line torn inside a multi-byte UTF-8 sequence, or a JSON value
    that is no telemetry event — never poisons the rest: it is counted
    in ``skipped``, not raised. Blank lines are neither.
    """
    events = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            event = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            event = None
        if isinstance(event, dict) and "event" in event:
            events.append(event)
        else:
            skipped += 1
    return events, skipped


def load_telemetry_events(path: str | Path) -> tuple[list[dict], int]:
    """``(events, skipped)`` of one telemetry JSONL file, in file order.

    Torn trailing lines (a campaign killed — or still writing — mid-
    line) count as skipped, so callers can surface an in-flight write.
    """
    return decode_telemetry_lines(Path(path).read_bytes().split(b"\n"))


def load_telemetry(path: str | Path) -> list[dict]:
    """Events of one telemetry JSONL file, in file order.

    Torn trailing lines (a campaign killed mid-write) are skipped, the
    same tolerance the result store applies to its own JSONL; use
    :func:`load_telemetry_events` to also learn how many lines were
    skipped.
    """
    return load_telemetry_events(path)[0]


def resolve_telemetry(setting, store, *,
                      profile=False) -> tuple[TelemetryHub | None, bool]:
    """Build the hub for one campaign's telemetry and profile settings.

    ``setting`` is the :class:`~repro.spec.CampaignSpec` ``telemetry``
    field or an entry point's ``telemetry=`` argument:

    * ``None`` / ``False`` — telemetry off: ``(None, False)``, unless
      ``profile`` is on;
    * ``True`` — JSONL sink next to the persistent result store
      (requires ``store`` to have a path);
    * a path — JSONL sink at that path;
    * a :class:`TelemetrySink` — wrapped in a fresh hub;
    * a :class:`TelemetryHub` — used as-is (caller keeps ownership).

    Profile events need a destination: with ``profile`` on and
    telemetry off, the hub is the JSONL stream next to the store, as
    for ``True``.

    Returns ``(hub, owned)``; the campaign closes the hub at the end
    iff ``owned`` (a caller-provided hub/sink may outlive the run —
    sweeps and the campaign service share one hub across campaigns).
    """
    if setting is None or setting is False:
        if not profile:
            return None, False
        if getattr(store, "path", None) is None:
            raise ConfigError(
                "profiling needs somewhere to emit its events: give the "
                "campaign a persistent store (the profile stream lands "
                "next to it) or an explicit telemetry destination")
        setting = True
    if isinstance(setting, TelemetryHub):
        return setting, False
    if isinstance(setting, TelemetrySink):
        return TelemetryHub(setting), True
    if setting is True:
        store_path = getattr(store, "path", None)
        if store_path is None:
            raise ConfigError(
                "telemetry=True writes the event log next to the result "
                "store, but this campaign has no persistent store; give "
                "a store (--resume STORE) or an explicit telemetry path")
        return TelemetryHub(
            JsonlTelemetrySink(telemetry_path_for_store(store_path))), True
    if isinstance(setting, (str, Path)):
        return TelemetryHub(JsonlTelemetrySink(setting)), True
    raise ConfigError(
        f"telemetry must be True/False, a path, a TelemetrySink or a "
        f"TelemetryHub, got {type(setting).__name__}")
