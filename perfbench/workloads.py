"""The benchmark's workloads: campaign specs built from a fault seed.

Each workload is a list of :class:`repro.spec.CampaignSpec` run back
to back into one persistent store; together they are "one campaign".
The seed is the only input that varies between runs: it seeds the
fault sampling, so the same seed always draws the same fault sites.
Sizes are chosen so one campaign takes a few seconds on a 2-core
host, which lets a run time several fresh campaigns and report
medians.

Why each workload exists (see README.md for the metric table):

* ``datapath_sweep`` — the Fig. 1/2 shape: two scaled paper chips
  (one per ISA) x all ten kernels, datapath structures, a handful of
  samples. Golden runs, snapshot capture and liveness pruning dominate
  and almost every sample is pruned; it has the most jobs and the
  largest store, so engine dispatch and store cost show here.
* ``resim_deep`` — compact 2-core chips on kernels with many live
  faults: suffix-only re-simulation, restore, digest, early-exit
  convergence and the suffix memo dominate.
* ``leased_sweep`` — a ``resim_deep``-like spec at a small shard size
  run through an in-process coordinator and one worker thread over
  loopback HTTP: the only workload where ``engine.service`` runs.
"""

from __future__ import annotations

from repro.arch.config import GpuConfig, LatencyModel
from repro.spec import CampaignSpec

#: Seed whose per-cell outcome counts are pinned in reference.json.
DEFAULT_SEED = 0

#: Compact 2-core chips (one per ISA) whose occupancy keeps a healthy
#: live-fault fraction at ``tiny`` scale. Embedded in the specs, so the
#: benchmark does not depend on any preset outside its own files.
SMOKE_SASS = GpuConfig(
    name="Smoke NVIDIA", vendor="nvidia", isa="sass",
    microarchitecture="smoke", num_cores=2, warp_size=32,
    registers_per_core=8192, local_memory_bytes=8 * 1024,
    max_threads_per_core=768, max_blocks_per_core=4,
    max_warps_per_core=24, shader_clock_hz=1e9,
    register_allocation_unit=32, local_allocation_unit=128,
    num_schedulers=1, latency=LatencyModel(),
)

SMOKE_SI = GpuConfig(
    name="Smoke AMD", vendor="amd", isa="si",
    microarchitecture="smoke", num_cores=2, warp_size=64,
    registers_per_core=4096, local_memory_bytes=8 * 1024,
    max_threads_per_core=512, max_blocks_per_core=4,
    max_warps_per_core=8, shader_clock_hz=1e9,
    register_allocation_unit=64, local_allocation_unit=128,
    num_schedulers=1, latency=LatencyModel(),
)

#: CLI defaults the campaigns share: checkpoints on ("auto"), the
#: vector backend and the suffix memo are the spec defaults already.
_COMMON = {"checkpoint_interval": "auto", "scale": "tiny"}


def _resim_specs(seed: int, samples: int, **extra) -> list[CampaignSpec]:
    return [
        CampaignSpec(gpus=(SMOKE_SASS,),
                     workloads=("kmeans", "scan", "transpose"),
                     samples=samples, seed=seed, **_COMMON, **extra),
        CampaignSpec(gpus=(SMOKE_SI,),
                     workloads=("kmeans", "scan", "histogram"),
                     samples=samples, seed=seed, **_COMMON, **extra),
    ]


def build_specs(workload: str, seed: int) -> list[CampaignSpec]:
    """The campaign specs of one workload at one fault seed."""
    if workload == "datapath_sweep":
        return [CampaignSpec(gpus=("gtx480", "hd7970"), samples=4,
                             seed=seed, **_COMMON)]
    if workload == "resim_deep":
        return _resim_specs(seed, samples=140)
    if workload == "leased_sweep":
        return _resim_specs(seed, samples=40, shard_size=2)
    raise ValueError(f"unknown workload {workload!r}")
