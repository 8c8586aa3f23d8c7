"""CKPT-SPEEDUP — injections/sec of a default campaign's FI stack.

Runs the same serial FI campaigns twice on the one interpreter per
ISA: first re-simulating every live fault from cycle zero (checkpoints
and suffix memo off), then with what a default campaign runs — auto
checkpoints (suffix-only re-simulation from the golden run's machine
snapshots, with the early-exit convergence check) plus cross-sample
suffix memoization. It verifies the per-structure outcome counts are
identical and asserts the injections-per-second speedup of the
re-simulation phase clears ``MIN_SPEEDUP``. The smoke matrix uses two
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
from repro.kernels.registry import get_workload
from repro.reliability.fi import run_fi_campaign, run_golden

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


def _counts(campaign) -> list:
    return [
        (s, e.masked, e.sdc, e.due, e.pruned, e.resimulated)
        for s, e in sorted(campaign.estimates.items())
    ]


def _resim_seconds(campaign) -> float:
    return sum(e.wall_time_s for e in campaign.estimates.values())


def test_checkpoint_speedup(benchmark):
    cells = [(config, get_workload(name, SCALE)) for config, name in CELLS]
    baseline_s = 0.0
    injections = 0
    baseline_counts = []
    for config, workload in cells:
        golden = run_golden(config, workload)
        campaign = run_fi_campaign(config, workload, golden,
                                   samples=SAMPLES, seed=1,
                                   suffix_memo=False)
        baseline_s += _resim_seconds(campaign)
        injections += sum(e.resimulated for e in campaign.estimates.values())
        baseline_counts.append(_counts(campaign))

    goldens = [
        run_golden(config, workload, checkpoint_interval="auto")
        for config, workload in cells
    ]

    def accelerated_matrix():
        return [run_fi_campaign(config, workload, golden,
                                samples=SAMPLES, seed=1, keep_results=True)
                for (config, workload), golden in zip(cells, goldens)]

    campaigns = benchmark.pedantic(accelerated_matrix, rounds=1,
                                   iterations=1)
    accelerated_s = sum(_resim_seconds(c) for c in campaigns)
    assert [_counts(c) for c in campaigns] == baseline_counts

    speedup = baseline_s / accelerated_s if accelerated_s else float("inf")
    base_ips = injections / baseline_s if baseline_s else float("inf")
    fast_ips = injections / accelerated_s if accelerated_s else float("inf")
    early = sum(1 for c in campaigns for r in c.results if r.early_exit)
    memo_hits = sum((c.memo or {}).get("hits", 0) for c in campaigns)
    memo_misses = sum((c.memo or {}).get("misses", 0) for c in campaigns)
    print(f"\nCheckpoint speedup ({len(CELLS)} cells, n={SAMPLES}, {SCALE}): "
          f"{injections} injections, {base_ips:.1f} -> {fast_ips:.1f} inj/s "
          f"(x{speedup:.2f}, early exits={early}, "
          f"memo {memo_hits} hits / {memo_misses} misses)")
    assert injections > 0, "smoke matrix drew no live faults"
    assert speedup >= MIN_SPEEDUP, (
        f"checkpointed FI x{speedup:.2f} is below the x{MIN_SPEEDUP} floor")
