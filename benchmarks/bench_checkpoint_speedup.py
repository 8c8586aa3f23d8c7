"""CKPT-SPEEDUP — injections/sec of a default campaign's FI stack.

Runs the same FI campaigns twice through the engine, inline: first
re-simulating every live fault from cycle zero (checkpoints off, so
the suffix memo is inert), then with what a default campaign runs —
auto checkpoints (suffix-only re-simulation from the golden run's
machine snapshots, with the early-exit convergence check) plus
cross-sample suffix memoization. It verifies the per-structure outcome
counts are identical and asserts the injections-per-second speedup of
the re-simulation phase (the cells' FI shard time) clears
``MIN_SPEEDUP``.

Each arm starts from an empty in-process golden cache. Golden-job
fingerprints ignore the checkpoint interval, so a golden cached by the
baseline arm carries no snapshots, and the checkpointed arm's shards
would rebuild them inside their timed work. The smoke matrix uses two
compact chips (one per ISA) whose occupancy keeps a healthy live-fault
fraction.

Pinned to ``SCALE`` and ``SAMPLES`` rather than the suite-wide
``REPRO_SCALE``/``REPRO_FI_SAMPLES``: at ``tiny`` the runs are so short
that machine construction and restore overheads — paid on both sides —
dominate, and the ratio swings around the floor (x1.40–2.22 over five
runs on a 2-core host, two of them below 1.5x).
"""

from __future__ import annotations

from repro.arch.config import GpuConfig, LatencyModel
from repro.engine import clear_memory_cache, run_campaign
from repro.spec import CampaignSpec

#: Speedup floor (re-simulation phase, whole smoke matrix).
MIN_SPEEDUP = 1.5
SCALE = "small"
SAMPLES = 40

_SMOKE_NVIDIA = GpuConfig(
    name="Smoke NVIDIA", vendor="nvidia", isa="sass",
    microarchitecture="smoke", num_cores=2, warp_size=32,
    registers_per_core=8192, local_memory_bytes=8 * 1024,
    max_threads_per_core=768, max_blocks_per_core=4,
    max_warps_per_core=24, shader_clock_hz=1e9,
    register_allocation_unit=32, local_allocation_unit=128,
    num_schedulers=1, latency=LatencyModel(),
)

_SMOKE_AMD = GpuConfig(
    name="Smoke AMD", vendor="amd", isa="si",
    microarchitecture="smoke", num_cores=2, warp_size=64,
    registers_per_core=4096, local_memory_bytes=8 * 1024,
    max_threads_per_core=512, max_blocks_per_core=4,
    max_warps_per_core=8, shader_clock_hz=1e9,
    register_allocation_unit=64, local_allocation_unit=128,
    num_schedulers=1, latency=LatencyModel(),
)

#: The smoke matrix: live-fault-rich cells covering both ISAs.
CELLS = [
    (_SMOKE_NVIDIA, "kmeans"),
    (_SMOKE_NVIDIA, "matrixMul"),
    (_SMOKE_AMD, "scan"),
    (_SMOKE_AMD, "reduction"),
]


def _counts(cell) -> list:
    return [
        (s, e.masked, e.sdc, e.due, e.pruned, e.resimulated)
        for s, e in sorted(cell.fi.items())
    ]


def _resim_seconds(cell) -> float:
    return sum(e.wall_time_s for e in cell.fi.values())


def _matrix(checkpoint_interval) -> list:
    """One inline campaign per smoke cell, from an empty golden cache."""
    clear_memory_cache()
    return [
        run_campaign(CampaignSpec(
            gpus=[config], workloads=[name], scale=SCALE, samples=SAMPLES,
            seed=1, checkpoint_interval=checkpoint_interval)).cells[0]
        for config, name in CELLS
    ]


def test_checkpoint_speedup(benchmark):
    baseline = _matrix(None)
    baseline_s = sum(_resim_seconds(c) for c in baseline)
    injections = sum(e.resimulated for c in baseline for e in c.fi.values())

    accelerated = benchmark.pedantic(_matrix, args=("auto",), rounds=1,
                                     iterations=1)
    accelerated_s = sum(_resim_seconds(c) for c in accelerated)
    assert [_counts(c) for c in accelerated] == \
        [_counts(c) for c in baseline]

    speedup = baseline_s / accelerated_s if accelerated_s else float("inf")
    base_ips = injections / baseline_s if baseline_s else float("inf")
    fast_ips = injections / accelerated_s if accelerated_s else float("inf")
    print(f"\nCheckpoint speedup ({len(CELLS)} cells, n={SAMPLES}, {SCALE}): "
          f"{injections} injections, {base_ips:.1f} -> {fast_ips:.1f} inj/s "
          f"(x{speedup:.2f})")
    assert injections > 0, "smoke matrix drew no live faults"
    assert speedup >= MIN_SPEEDUP, (
        f"checkpointed FI x{speedup:.2f} is below the x{MIN_SPEEDUP} floor")
