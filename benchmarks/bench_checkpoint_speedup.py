"""CKPT-SPEEDUP — injections/sec with and without checkpoint restore.

Runs the same serial FI campaigns twice — re-simulating every live
fault from cycle zero, then suffix-only from the golden run's machine
snapshots (with the early-exit convergence check) — verifies the
per-structure outcome counts are identical, and asserts the
injections-per-second speedup clears ``MIN_SPEEDUP`` (1.5x on the
resimulation phase). The smoke matrix uses two compact chips (one per
ISA) whose occupancy keeps a healthy live-fault fraction at tiny
scale.

Both runs are pinned to the pure-python reference interpreter with
the suffix memo off, isolating the *checkpoint* optimization: the
vector backend and the memo each shrink or shift the resim time this
bench divides, and their combined effect is gated separately by
``test_fastpath_speedup`` below (``MIN_FASTPATH_SPEEDUP``, 3x).

Knobs: ``REPRO_FI_SAMPLES`` / ``REPRO_SCALE`` (see conftest) for the
checkpoint bench; ``REPRO_FASTPATH_SAMPLES`` / ``REPRO_FASTPATH_SCALE``
for the fast-path bench.
"""

from __future__ import annotations

import dataclasses
import os

from benchmarks.conftest import bench_samples, bench_scale
from repro.arch.config import GpuConfig, LatencyModel
from repro.kernels.registry import get_workload
from repro.reliability.fi import run_fi_campaign, run_golden

#: Speedup floors (resim phase, whole smoke matrix): checkpoints alone,
#: and the whole acceleration stack over the pure-python reference.
MIN_SPEEDUP = 1.5
MIN_FASTPATH_SPEEDUP = 3.0

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
    # Default higher than the suite-wide 40: per-fault wall times are
    # milliseconds, so a larger injection count keeps the speedup
    # measurement out of the noise floor.
    samples = bench_samples(default=120)
    scale = bench_scale()

    goldens = [
        (dataclasses.replace(config, backend="python"),
         get_workload(name, scale))
        for config, name in CELLS
    ]
    baseline_s = 0.0
    injections = 0
    baseline_counts = []
    plain = [run_golden(config, workload) for config, workload in goldens]
    for (config, workload), golden in zip(goldens, plain):
        campaign = run_fi_campaign(config, workload, golden,
                                   samples=samples, seed=1,
                                   suffix_memo=False)
        baseline_s += _resim_seconds(campaign)
        injections += sum(e.resimulated for e in campaign.estimates.values())
        baseline_counts.append(_counts(campaign))

    checkpointed = [
        run_golden(config, workload, checkpoint_interval="auto")
        for config, workload in goldens
    ]

    def checkpointed_matrix():
        results = []
        for (config, workload), golden in zip(goldens, checkpointed):
            results.append(run_fi_campaign(config, workload, golden,
                                           samples=samples, seed=1,
                                           suffix_memo=False,
                                           keep_results=True))
        return results

    campaigns = benchmark.pedantic(checkpointed_matrix, rounds=1,
                                   iterations=1)
    accelerated_s = sum(_resim_seconds(c) for c in campaigns)
    assert [_counts(c) for c in campaigns] == baseline_counts

    speedup = baseline_s / accelerated_s if accelerated_s else float("inf")
    base_ips = injections / baseline_s if baseline_s else float("inf")
    fast_ips = injections / accelerated_s if accelerated_s else float("inf")
    early = sum(
        1 for c in campaigns for r in c.results if r.early_exit
    )
    print(f"\nCheckpoint speedup ({len(CELLS)} cells, n={samples}, {scale}): "
          f"{injections} injections, {base_ips:.1f} -> {fast_ips:.1f} inj/s "
          f"(x{speedup:.2f}, early exits={early})")
    assert injections > 0, "smoke matrix drew no live faults"
    assert speedup >= MIN_SPEEDUP, (
        f"checkpointed FI x{speedup:.2f} is below the x{MIN_SPEEDUP} floor")


def test_fastpath_speedup(benchmark):
    """FASTPATH — the whole acceleration stack vs the reference path.

    Baseline: pure-python lane interpreter, no checkpoints, no memo —
    every live fault re-simulated from cycle zero one lane at a time.
    Accelerated: vector backend + auto checkpoints + cross-sample
    suffix memoization, i.e. what a default campaign runs. Outcome
    counts must be identical, and the speedup must clear
    ``MIN_FASTPATH_SPEEDUP`` (3x on the smoke matrix; the full matrix
    targets 5x+).

    Pinned to ``small`` scale (knob: ``REPRO_FASTPATH_SCALE``) rather
    than the suite-wide ``REPRO_SCALE``: at ``tiny`` the runs are so
    short that machine construction and restore overheads — identical
    on both paths — dominate, and the bench would measure those
    instead of the interpreters. ``REPRO_FASTPATH_SAMPLES`` bounds the
    pure-python baseline's wall-clock cost.
    """
    samples = int(os.environ.get("REPRO_FASTPATH_SAMPLES", 40))
    scale = os.environ.get("REPRO_FASTPATH_SCALE", "small")

    reference = [
        (dataclasses.replace(config, backend="python"),
         get_workload(name, scale))
        for config, name in CELLS
    ]
    baseline_s = 0.0
    injections = 0
    baseline_counts = []
    for config, workload in reference:
        golden = run_golden(config, workload)
        campaign = run_fi_campaign(config, workload, golden,
                                   samples=samples, seed=1,
                                   suffix_memo=False)
        baseline_s += _resim_seconds(campaign)
        injections += sum(e.resimulated for e in campaign.estimates.values())
        baseline_counts.append(_counts(campaign))

    fast = [(config, get_workload(name, scale)) for config, name in CELLS]
    goldens = [
        run_golden(config, workload, checkpoint_interval="auto")
        for config, workload in fast
    ]

    def accelerated_matrix():
        results = []
        for (config, workload), golden in zip(fast, goldens):
            results.append(run_fi_campaign(config, workload, golden,
                                           samples=samples, seed=1,
                                           keep_results=True))
        return results

    campaigns = benchmark.pedantic(accelerated_matrix, rounds=1,
                                   iterations=1)
    accelerated_s = sum(_resim_seconds(c) for c in campaigns)
    assert [_counts(c) for c in campaigns] == baseline_counts

    speedup = baseline_s / accelerated_s if accelerated_s else float("inf")
    base_ips = injections / baseline_s if baseline_s else float("inf")
    fast_ips = injections / accelerated_s if accelerated_s else float("inf")
    memo_hits = sum((c.memo or {}).get("hits", 0) for c in campaigns)
    memo_misses = sum((c.memo or {}).get("misses", 0) for c in campaigns)
    print(f"\nFast-path speedup ({len(CELLS)} cells, n={samples}, {scale}): "
          f"{injections} injections, {base_ips:.1f} -> {fast_ips:.1f} inj/s "
          f"(x{speedup:.2f}, memo {memo_hits} hits / {memo_misses} misses)")
    assert injections > 0, "smoke matrix drew no live faults"
    assert speedup >= MIN_FASTPATH_SPEEDUP, (
        f"fast path x{speedup:.2f} is below the x{MIN_FASTPATH_SPEEDUP} "
        f"floor")
