"""ABL-SAMPLES — FI estimate convergence vs campaign size.

Sweeps the number of injections and shows the AVF estimate converging
within the theoretical error margin of a large-sample reference — the
justification for the paper's choice of 2,000 injections/structure.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale
from repro.arch.structures import REGISTER_FILE
from repro.reliability.campaign import run_cell
from repro.reliability.sampling import margin_of_error
from repro.spec import CampaignSpec

SWEEP = (25, 50, 100, 200)
REFERENCE = 400


def test_sample_size_sweep(benchmark):
    spec = CampaignSpec(gpus=("fx5600",), workloads=("histogram",),
                        scale=bench_scale(), seed=99,
                        structures=(REGISTER_FILE,))

    def sweep():
        # The golden run is cached in memory after the first size.
        return {n: run_cell(spec.replace(samples=n)).avf_fi(REGISTER_FILE)
                for n in (*SWEEP, REFERENCE)}

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
