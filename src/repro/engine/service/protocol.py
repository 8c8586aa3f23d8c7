"""Wire format of the campaign service: JSON codecs and endpoint names.

The coordinator and its workers speak a small JSON-over-HTTP protocol
(stdlib only — ``http.server`` on one side, ``http.client`` on the
other). Everything on the wire is plain JSON; the two non-JSON values
in a job's argument tuple get explicit markers:

* a :class:`~repro.arch.config.GpuConfig` travels as
  ``{"__gpu__": {...dataclass fields...}}`` (the spec-file embedding,
  bit-exact round trip);
* a shard job's golden output buffers — by far the largest argument —
  are replaced by ``{"__golden_outputs__": "<golden fp>"}``; the
  worker fetches the blob once per golden via ``GET /v1/golden/<fp>``
  and caches it, so a cell's many shards ship kilobytes instead of
  re-sending megabytes of base64 per lease.

Tuples flatten to JSON lists; every consumer downstream
(:mod:`repro.engine.jobs`) already tuples what it needs
(``plan_from_key(tuple(key))``), so a decoded argument list is handed
to the exact same worker functions the process pool runs. Payloads
pushed back are the worker functions' own JSON-safe dicts — Python's
``json`` round-trips ints, strings and floats exactly, which is what
makes a distributed store bit-identical to a local one.
"""

from __future__ import annotations

import dataclasses
import json

from repro.arch.config import GpuConfig, LatencyModel
from repro.engine import jobs

#: Version of the coordinator/worker wire protocol. A worker refuses
#: to register against a coordinator speaking a different version.
#: 2: golden jobs take a trace-recording flag and plan jobs a trace
#: element (always False / None on the wire).
#: 3: no profile element in argument tuples; leases carry a
#: ``profile`` flag and pushes a ``profile`` beside the payload.
PROTOCOL_VERSION = 3

#: Marker key for an embedded GpuConfig in an encoded argument list.
GPU_KEY = "__gpu__"
#: Marker key replacing a shard job's golden output blobs.
GOLDEN_OUTPUTS_KEY = "__golden_outputs__"

#: Endpoint paths (all under one version prefix so the protocol can
#: evolve without breaking old workers mid-fleet).
REGISTER_PATH = "/v1/register"
LEASE_PATH = "/v1/lease"
PUSH_PATH = "/v1/push"
HEARTBEAT_PATH = "/v1/heartbeat"
GOLDEN_PATH = "/v1/golden/"  # + fingerprint
SUBMIT_PATH = "/v1/submit"
STATUS_PATH = "/v1/status"

#: Payload keys every push of a kind must carry — the coordinator's
#: malformed-push gate. Ephemeral ``_``-keys are optional extras.
REQUIRED_PAYLOAD_KEYS = {
    jobs.GOLDEN: ("cycles", "launch_cycles", "ace", "occupancy",
                  "wall_time_s", "outputs"),
    jobs.PLAN: ("plans", "wall_time_s"),
    jobs.SHARD: ("results", "wall_time_s"),
}


def encode_gpu(config: GpuConfig) -> dict:
    """One GpuConfig as a marker dict (bit-exact round trip)."""
    return {GPU_KEY: dataclasses.asdict(config)}


def decode_gpu(marker: dict) -> GpuConfig:
    """Inverse of :func:`encode_gpu`."""
    params = dict(marker[GPU_KEY])
    latency = params.pop("latency", None)
    if latency is not None:
        params["latency"] = LatencyModel(**latency)
    return GpuConfig(**params)


def encode_args(kind: str, args: tuple) -> list:
    """A job's argument tuple as a JSON-safe list.

    GpuConfigs become marker dicts; a shard job's golden outputs
    (element 6, with the owning golden fingerprint at element 5) become
    a fetch-by-fingerprint marker, and its snapshots element (9) is
    forced to ``None`` — remote shard workers rebuild snapshot sets
    from the golden fingerprint exactly like pooled ones do, which is
    bit-identical by the checkpoint layer's contract.
    """
    encoded = [encode_gpu(a) if isinstance(a, GpuConfig) else a
               for a in args]
    if kind == jobs.SHARD:
        encoded[6] = {GOLDEN_OUTPUTS_KEY: encoded[5]}
        encoded[9] = None
    return encoded


def decode_args(kind: str, encoded: list, fetch_golden) -> tuple:
    """Inverse of :func:`encode_args` on the worker side.

    ``fetch_golden(fp)`` resolves a golden-outputs marker to the
    encoded output-buffer dict (the worker's cached ``GET /v1/golden``
    result).
    """
    args = []
    for element in encoded:
        if isinstance(element, dict):
            if GPU_KEY in element:
                element = decode_gpu(element)
            elif GOLDEN_OUTPUTS_KEY in element:
                element = fetch_golden(element[GOLDEN_OUTPUTS_KEY])
        args.append(element)
    return tuple(args)


def check_payload(kind: str, payload) -> str | None:
    """``None`` when a pushed payload is well-formed, else the problem.

    A malformed push is *rejected*, never appended: the store is the
    result of record, and one worker speaking garbage must not poison
    a multi-hour campaign.
    """
    if not isinstance(payload, dict):
        return f"payload must be an object, got {type(payload).__name__}"
    required = REQUIRED_PAYLOAD_KEYS.get(kind)
    if required is None:
        return f"unknown job kind {kind!r}"
    missing = [key for key in required if key not in payload]
    if missing:
        return f"{kind} payload missing keys: {', '.join(missing)}"
    try:
        json.dumps(payload)
    except (TypeError, ValueError):
        return "payload is not JSON-serializable"
    return None
