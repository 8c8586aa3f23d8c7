"""Campaign execution engine: job graphs, persistent results, resume.

The engine turns a matrix campaign into a DAG of fingerprinted jobs
(golden runs -> fault plans -> FI shards -> reduced cells), schedules
them across a process pool so whole cells run concurrently, shares
golden runs between campaigns, and persists every finished job so
interrupted runs resume (``--resume``) and repeated runs are
incremental — all bit-identical to an inline one-worker run.

* :mod:`repro.engine.fingerprint` — canonical full-parameter job keys
* :mod:`repro.engine.store` — append-only JSONL result store
* :mod:`repro.engine.jobs` — job bodies and payload codecs
* :mod:`repro.engine.scheduler` — dependency-aware pool scheduler
* :mod:`repro.engine.matrix` — matrix campaigns (:func:`run_campaign`)
* :mod:`repro.engine.service` — distributed campaigns (coordinator /
  worker fleet over JSON-HTTP, bit-identical to the local pool)
"""

from repro.engine.fingerprint import (
    canonical_json,
    cell_params,
    config_params,
    fingerprint,
    golden_params,
    plan_params,
    shard_params,
)
from repro.engine.matrix import (
    DEFAULT_SHARD_SIZE,
    CampaignResult,
    cell_fingerprints,
    iter_cells,
    run_campaign,
)
from repro.engine.scheduler import (
    CampaignStats,
    ExecutionBackend,
    JobScheduler,
    JobSpec,
    ProcessPoolBackend,
    clear_memory_cache,
)
from repro.engine.service import (
    CampaignService,
    CampaignWorker,
    CoordinatorClient,
    CoordinatorServer,
    CoordinatorUnreachable,
    RemoteBackend,
)
from repro.engine.store import ResultStore

__all__ = [
    "CampaignResult",
    "CampaignService",
    "CampaignStats",
    "CampaignWorker",
    "CoordinatorClient",
    "CoordinatorServer",
    "CoordinatorUnreachable",
    "DEFAULT_SHARD_SIZE",
    "ExecutionBackend",
    "JobScheduler",
    "JobSpec",
    "ProcessPoolBackend",
    "RemoteBackend",
    "ResultStore",
    "canonical_json",
    "cell_fingerprints",
    "cell_params",
    "iter_cells",
    "clear_memory_cache",
    "config_params",
    "fingerprint",
    "golden_params",
    "plan_params",
    "run_campaign",
    "shard_params",
]
