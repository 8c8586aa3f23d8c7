"""ABL-SCHED — effect of warp scheduling on reliability.

The paper's introduction lists "the execution scheduling" among the
aspects the full study covers. This ablation runs the same benchmark
under loose round-robin and greedy-then-oldest scheduling and compares
cycle counts and ACE AVF (scheduling reshuffles lifetimes, so AVF
moves even though the computed outputs are identical).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import bench_scale
from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import REGISTER_FILE
from repro.kernels.registry import get_workload
from repro.reliability.fi import run_golden

GPU = "gtx480"
WORKLOAD = "scan"


def test_scheduler_ablation(benchmark):
    config = get_scaled_gpu(GPU)
    workload = get_workload(WORKLOAD, bench_scale())

    def both():
        return {
            policy: run_golden(config, workload, scheduler=policy)
            for policy in ("rr", "gto")
        }

    goldens = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nScheduler ablation on {config.name} / {WORKLOAD}:")
    for policy, golden in goldens.items():
        print(f"  {policy:<4} cycles={golden.cycles:<8} "
              f"regfile AVF-ACE={golden.ace.avf(REGISTER_FILE):.4f}")
        benchmark.extra_info[policy] = {
            "cycles": golden.cycles,
            "avf_ace": round(golden.ace.avf(REGISTER_FILE), 4),
        }
    # Different schedules must not change the computed results.
    rr, gto = goldens["rr"].outputs, goldens["gto"].outputs
    for name in rr:
        assert np.array_equal(rr[name], gto[name])
