"""ABL-SAMPLES — FI estimate convergence vs campaign size.

Sweeps the number of injections and shows the AVF estimate converging
within the theoretical error margin of a large-sample reference — the
justification for the paper's choice of 2,000 injections/structure.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale
from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import REGISTER_FILE
from repro.kernels.registry import get_workload
from repro.reliability.fi import run_fi_campaign, run_golden
from repro.reliability.sampling import margin_of_error

SWEEP = (25, 50, 100, 200)
REFERENCE = 400


def test_sample_size_sweep(benchmark):
    config = get_scaled_gpu("fx5600")
    workload = get_workload("histogram", bench_scale())
    golden = run_golden(config, workload)

    def sweep():
        estimates = {}
        for n in (*SWEEP, REFERENCE):
            output = run_fi_campaign(
                config, workload, golden, samples=n, seed=99,
                structures=(REGISTER_FILE,),
            )
            estimates[n] = output.estimates[REGISTER_FILE].avf
        return estimates

    estimates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reference = estimates[REFERENCE]
    print(f"\nSample-size sweep (reference n={REFERENCE}: AVF={reference:.3f}):")
    for n in SWEEP:
        margin = margin_of_error(n, confidence=0.99)
        delta = abs(estimates[n] - reference)
        print(f"  n={n:<4} AVF={estimates[n]:6.3f} |delta|={delta:5.3f} "
              f"margin(99%)={margin:5.3f}")
        benchmark.extra_info[str(n)] = round(estimates[n], 4)
        # Combined margin of both estimates bounds the observed delta.
        assert delta <= margin + margin_of_error(REFERENCE, confidence=0.99)
