"""ABL-SDC — silent-data-corruption severity distribution.

Beyond the paper's binary SDC classification, the engine records how
many output words each SDC corrupts. The distribution separates
single-word corruptions (a flipped data value flowing straight to one
output) from amplified ones (corrupted values feeding shared-memory
reductions or address arithmetic) — useful context for the DUE/SDC
split the EPF metric builds on.
"""

from __future__ import annotations

from collections import Counter

from benchmarks.conftest import bench_samples, bench_scale
from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.kernels.registry import get_workload
from repro.reliability.fi import run_fi_campaign, run_golden
from repro.reliability.outcomes import Outcome


def test_sdc_severity_distribution(benchmark):
    config = get_scaled_gpu("gtx480")
    workload = get_workload("matrixMul", bench_scale())
    golden = run_golden(config, workload)
    samples = max(bench_samples(), 120)

    output = benchmark.pedantic(
        lambda: run_fi_campaign(config, workload, golden, samples=samples,
                                seed=17, keep_results=True),
        rounds=1, iterations=1,
    )
    sdcs = [r for r in output.results if r.outcome is Outcome.SDC]
    buckets = Counter()
    for result in sdcs:
        if result.corrupted_words == 1:
            buckets["1 word"] += 1
        elif result.corrupted_words <= 16:
            buckets["2-16 words"] += 1
        else:
            buckets[">16 words"] += 1
    print(f"\nSDC severity on {config.name} / matrixMul "
          f"({len(sdcs)} SDCs of {2 * samples} injections):")
    for bucket in ("1 word", "2-16 words", ">16 words"):
        print(f"  {bucket:<12} {buckets.get(bucket, 0)}")
    by_structure = Counter(r.plan.structure for r in sdcs)
    print(f"  by structure: regfile={by_structure.get(REGISTER_FILE, 0)} "
          f"localmem={by_structure.get(LOCAL_MEMORY, 0)}")
    benchmark.extra_info["sdc_total"] = len(sdcs)
    benchmark.extra_info.update({k: v for k, v in buckets.items()})
    assert all(r.corrupted_words >= 1 for r in sdcs)
