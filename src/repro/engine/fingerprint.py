"""Canonical job fingerprints for the campaign execution engine.

Every job the engine runs (golden simulation, fault-plan/pruning pass,
FI re-simulation shard, reduced cell) is identified by a fingerprint:
the SHA-256 of the canonical JSON encoding of its *full* parameter set,
including the complete chip configuration down to the latency model.
Two jobs share a fingerprint iff they are guaranteed to produce the
same payload, so the persistent store can treat fingerprints as cache
keys across interrupted, resumed and repeated campaigns. Changing any
parameter — a latency, the sample count, the RNG seed, the ACE mode —
changes the fingerprint and invalidates exactly the affected jobs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.arch.config import GpuConfig
from repro.reliability.liveness import AceMode


def config_params(config: GpuConfig) -> dict:
    """Complete plain-data description of one chip (incl. latencies).

    Every :class:`GpuConfig` field is a chip parameter; none is an
    execution setting. Stores written while configs still carried an
    interpreter ``backend`` field (stripped from fingerprints then)
    resume with zero jobs executed.
    """
    return asdict(config)


def canonical_json(params: dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def fingerprint(kind: str, params: dict) -> str:
    """SHA-256 fingerprint of a job's kind + full parameter set."""
    text = canonical_json({"kind": kind, "params": params})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Per-kind parameter sets (each nests its upstream job's fingerprint,
# so the whole dependency chain is captured transitively).
# ----------------------------------------------------------------------

def golden_params(config: GpuConfig, workload: str, scale: str,
                  scheduler: str, ace_mode: AceMode) -> dict:
    """Parameters of one traced fault-free run."""
    return {
        "config": config_params(config),
        "workload": workload,
        "scale": scale,
        "scheduler": scheduler,
        "ace_mode": ace_mode.value,
    }


def plan_params(golden_fp: str, samples: int, seed: int,
                structures: tuple,
                fault_model: str = "transient") -> dict:
    """Parameters of one fault-sampling + dead-site-pruning pass.

    The fault model is part of the plan identity, so campaigns with
    different models never collide in a store. The default transient
    model is *omitted* from the parameter set: its fingerprints stay
    byte-identical to the single-model era, so existing stores resume
    cleanly.
    """
    params = {
        "golden": golden_fp,
        "samples": samples,
        "seed": seed,
        "structures": list(structures),
    }
    if fault_model != "transient":
        params["fault_model"] = fault_model
    return params


def shard_params(plan_fp: str, start: int, stop: int) -> dict:
    """Parameters of one re-simulation shard over the sorted live plans."""
    return {"plan": plan_fp, "start": start, "stop": stop}


def cell_params(plan_fp: str, raw_fit_per_bit: float,
                checkpoint=None) -> dict:
    """Parameters of one reduced (GPU, benchmark) cell.

    Shard geometry is deliberately absent: the reduced cell is
    independent of how the live plans were sharded, so changing the
    shard size never invalidates finished cells.

    ``checkpoint`` — the campaign's checkpoint interval ("auto" or a
    cycle count) — joins the identity only when checkpointing is on;
    disabled campaigns keep the pre-checkpoint fingerprints, so old
    stores resume unchanged. Golden/plan/shard fingerprints never
    carry it: their payloads are bit-identical either way, so a
    checkpointed resume of an un-checkpointed store reuses every
    simulation job and re-reduces only the (driver-side, cheap) cells.
    """
    params = {"plan": plan_fp, "raw_fit_per_bit": raw_fit_per_bit}
    if checkpoint is not None:
        params["checkpoint"] = checkpoint
    return params
