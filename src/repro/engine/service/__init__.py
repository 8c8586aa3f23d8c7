"""Distributed campaign service: coordinator, workers, wire protocol.

The campaign engine's pool-eligible jobs (golden runs, fault-plan
sampling, FI shards) are pure functions of their fingerprinted
parameters — so *where* they execute is a free choice. This package
makes that choice network-wide: a :class:`CampaignService` coordinator
expands campaigns exactly like a local run and leases ready jobs over
JSON-HTTP to any number of :class:`CampaignWorker` processes, with a
heartbeat + lease-timeout state machine recovering the work of a dead
worker and an idempotent push path keeping the shared
:class:`~repro.engine.store.ResultStore` append-once per fingerprint.

The contract is the engine's own: a distributed store is bit-identical
to the single-host process-pool store (tests/test_transparency.py
checks it with an in-process fleet, CI's ``dist-smoke`` job with real
worker processes, one killed), and any pre-service store resumes under
the coordinator with zero jobs executed.

Entry points: ``repro-experiments serve SPEC...`` (coordinator),
``repro-experiments worker URL`` (fleet member), and
``repro-experiments submit URL SPEC...`` (queue more campaigns onto a
live coordinator).
"""

from repro.engine.service.coordinator import (
    DEFAULT_LEASE_TTL_S,
    CampaignService,
    CoordinatorServer,
    RemoteBackend,
)
from repro.engine.service.protocol import PROTOCOL_VERSION
from repro.engine.service.worker import (
    CampaignWorker,
    CoordinatorClient,
    CoordinatorUnreachable,
)

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_LEASE_TTL_S",
    "RemoteBackend",
    "CoordinatorServer",
    "CampaignService",
    "CampaignWorker",
    "CoordinatorClient",
    "CoordinatorUnreachable",
]
