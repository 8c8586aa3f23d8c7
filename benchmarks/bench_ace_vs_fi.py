"""ABL-ACE — the paper's ACE-vs-FI accuracy / analysis-time trade-off.

Section III: "for the register file the ACE analysis significantly
overestimates vulnerability compared to FI, [while] the same technique
is very accurate ... for the local memory", and ACE needs one traced
golden run where FI needs a whole campaign. Two benchmarks measure the
two analysis costs separately; the printed table shows the accuracy
ratios.
"""

from __future__ import annotations

from benchmarks.conftest import bench_samples, bench_scale
from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.kernels.registry import get_workload
from repro.reliability.campaign import run_cell
from repro.reliability.fi import run_golden
from repro.spec import CampaignSpec

GPU = "gtx480"
WORKLOAD = "matrixMul"


def test_ace_analysis_time(benchmark):
    """Cost of ACE: exactly one traced golden run."""
    config = get_scaled_gpu(GPU)
    workload = get_workload(WORKLOAD, bench_scale())
    golden = benchmark.pedantic(
        lambda: run_golden(config, workload), rounds=1, iterations=1
    )
    print(f"\nACE (one traced run): regfile AVF={golden.ace.avf(REGISTER_FILE):.3f} "
          f"localmem AVF={golden.ace.avf(LOCAL_MEMORY):.3f}")
    benchmark.extra_info["avf_ace_regfile"] = round(golden.ace.avf(REGISTER_FILE), 4)


def test_fi_campaign_time_and_overestimation(benchmark):
    """Cost of FI + the ACE/FI overestimation ratios."""
    samples = bench_samples()
    spec = CampaignSpec(gpus=(GPU,), workloads=(WORKLOAD,),
                        scale=bench_scale(), samples=samples, seed=1)
    cell = benchmark.pedantic(lambda: run_cell(spec), rounds=1, iterations=1)
    print(f"\nACE vs FI on {cell.gpu} / {WORKLOAD} (n={samples}, "
          f"FI {cell.fi_time_s:.2f}s after a {cell.golden_time_s:.2f}s "
          f"golden run):")
    benchmark.extra_info["fi_time_s"] = round(cell.fi_time_s, 3)
    for structure in (REGISTER_FILE, LOCAL_MEMORY):
        fi = cell.avf_fi(structure)
        ace = cell.avf_ace(structure)
        ratio = ace / fi if fi else float("inf")
        print(f"  {structure:<14} FI={fi:6.3f} ACE={ace:6.3f} ACE/FI={ratio:5.2f}")
        benchmark.extra_info[structure] = {
            "fi": round(fi, 4), "ace": round(ace, 4),
        }
