"""ABL-OCC — AVF-vs-occupancy correlation (the figures' red lines).

Section III: "Red lines reporting the occupancy of the considered
memory structures show a strong correlation of the AVF with this
parameter." This bench sweeps benchmarks on one chip and reports the
Pearson correlation between ACE-measured AVF and occupancy.
"""

from __future__ import annotations

from scipy import stats

from benchmarks.conftest import bench_scale
from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import REGISTER_FILE
from repro.kernels.registry import KERNEL_NAMES, get_workload
from repro.reliability.fi import run_golden


def test_avf_tracks_occupancy(benchmark):
    config = get_scaled_gpu("fx5800")
    scale = bench_scale()

    def sweep():
        rows = []
        for name in KERNEL_NAMES:
            golden = run_golden(config, get_workload(name, scale))
            rows.append(
                (name, golden.ace.avf(REGISTER_FILE),
                 golden.occupancy.occupancy(REGISTER_FILE))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    avfs = [row[1] for row in rows]
    occs = [row[2] for row in rows]
    r, p = stats.pearsonr(avfs, occs)
    print(f"\nAVF-vs-occupancy on {config.name} ({scale}): Pearson r={r:.3f} (p={p:.4f})")
    for name, avf, occ in rows:
        print(f"  {name:<12} AVF-ACE={avf:6.3f} occ={occ:6.3f}")
    benchmark.extra_info["pearson_r"] = round(float(r), 4)
    # The paper calls the correlation "strong"; fail the bench if the
    # reproduction loses it entirely.
    assert r > 0.5
