"""ABL-SCHED — effect of warp scheduling on reliability.

The paper's introduction lists "the execution scheduling" among the
aspects the full study covers. This ablation runs the same benchmark
under loose round-robin and greedy-then-oldest scheduling and compares
cycle counts and ACE AVF (scheduling reshuffles lifetimes, so AVF
moves even though the computed outputs are identical).

It runs ``backprop`` at ``tiny`` scale on both scaled chips, where the
policies' golden cycles differ (gtx480 1606 vs 1608, hd7970 1746 vs
1740). On gtx480 ``scan`` at ``tiny``, and on ``backprop`` at ``small``,
both policies give the same cycles, so the scale is pinned rather than
read from ``REPRO_SCALE``.
"""

from __future__ import annotations

import numpy as np

from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import REGISTER_FILE
from repro.kernels.registry import get_workload
from repro.reliability.fi import run_golden

GPUS = ("gtx480", "hd7970")
WORKLOAD = "backprop"
SCALE = "tiny"
POLICIES = ("rr", "gto")


def test_scheduler_ablation(benchmark):
    workload = get_workload(WORKLOAD, SCALE)

    def all_runs():
        return {
            gpu: {policy: run_golden(get_scaled_gpu(gpu), workload, scheduler=policy)
                  for policy in POLICIES}
            for gpu in GPUS
        }

    runs = benchmark.pedantic(all_runs, rounds=1, iterations=1)
    for gpu, goldens in runs.items():
        print(f"\nScheduler ablation on {get_scaled_gpu(gpu).name} / {WORKLOAD}:")
        for policy, golden in goldens.items():
            print(f"  {policy:<4} cycles={golden.cycles:<8} "
                  f"regfile AVF-ACE={golden.ace.avf(REGISTER_FILE):.4f}")
            benchmark.extra_info[f"{gpu}/{policy}"] = {
                "cycles": golden.cycles,
                "avf_ace": round(golden.ace.avf(REGISTER_FILE), 4),
            }
        # Different schedules must not change the computed results.
        rr, gto = goldens["rr"].outputs, goldens["gto"].outputs
        for name in rr:
            assert np.array_equal(rr[name], gto[name])
    # An ablation whose policies all tie measures nothing.
    assert any(goldens["rr"].cycles != goldens["gto"].cycles
               for goldens in runs.values())
