"""``repro.telemetry`` — the engine observability layer.

Structured telemetry for campaign execution: the scheduler and the
matrix driver emit schema-versioned events (job start/finish/cached,
queue depth, worker occupancy, per-cell throughput) into a
:class:`TelemetryHub` fanning out to pluggable sinks — an in-memory
tape for tests, or a JSONL file written next to the result store.

On top of the bus sits the hot-path profiling layer
(:mod:`repro.telemetry.profile`): per-phase wall-time attribution and
simulator dispatch counters collected inside cells, emitted as
``cell_profile``/``campaign_profile`` events and rendered by
``repro-experiments profile STORE`` (:mod:`repro.telemetry.report`).
:class:`TelemetryTail` (:mod:`repro.telemetry.follow`) live-tails a
growing JSONL stream for ``status --follow``.

Telemetry and profiling are strictly observability-only: result stores
produced with them on and off are bit-identical, no job fingerprint
includes either setting, and a failing sink is dropped-from rather
than propagated. ``repro-experiments status STORE`` renders the
recorded stream (:mod:`repro.telemetry.status`).
"""

from repro.telemetry.follow import TelemetryTail
from repro.telemetry.profile import PHASES, ProfileCollector, merge_profiles
from repro.telemetry.report import (
    aggregate_profiles,
    format_profile,
    top_cost_centers,
)
from repro.telemetry.sink import (
    TELEMETRY_SCHEMA_VERSION,
    JsonlTelemetrySink,
    MemoryTelemetrySink,
    TelemetryHub,
    TelemetrySink,
    load_telemetry,
    load_telemetry_events,
    resolve_telemetry,
    telemetry_path_for_store,
)
from repro.telemetry.status import (
    CampaignStatus,
    aggregate_events,
    format_status,
)

__all__ = [
    "PHASES",
    "TELEMETRY_SCHEMA_VERSION",
    "CampaignStatus",
    "JsonlTelemetrySink",
    "MemoryTelemetrySink",
    "ProfileCollector",
    "TelemetryHub",
    "TelemetrySink",
    "TelemetryTail",
    "aggregate_events",
    "aggregate_profiles",
    "format_profile",
    "format_status",
    "load_telemetry",
    "load_telemetry_events",
    "merge_profiles",
    "resolve_telemetry",
    "telemetry_path_for_store",
    "top_cost_centers",
]
