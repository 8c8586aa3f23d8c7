"""ABL-SIZE — AVF vs structure size ("resource sizes", paper section I).

The full study's stated scope includes the effect of resource sizes.
Sweeping the register-file size of one chip (same workload) shows the
mechanism behind the cross-chip Fig. 1 variation: a larger file dilutes
the same live bits over more capacity, so AVF falls roughly inversely
while the absolute FIT contribution stays flat.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import bench_scale
from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import REGISTER_FILE
from repro.kernels.registry import get_workload
from repro.reliability.fi import run_golden

SIZES = (16 * 1024, 32 * 1024, 64 * 1024)  # registers per core


def test_register_file_size_sweep(benchmark):
    base = get_scaled_gpu("gtx480")
    workload = get_workload("transpose", bench_scale())

    def sweep():
        rows = []
        for regs in SIZES:
            config = replace(base, name=f"{base.name} rf={regs}",
                             registers_per_core=regs)
            golden = run_golden(config, workload)
            rows.append((regs, golden.ace.avf(REGISTER_FILE),
                         golden.occupancy.occupancy(REGISTER_FILE)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nRegister-file size sweep (GTX 480 scaled, transpose):")
    for regs, avf, occ in rows:
        print(f"  {regs // 1024:3d}K regs/SM: AVF-ACE={avf:7.4f} occ={occ:7.4f}")
        benchmark.extra_info[f"{regs}"] = round(avf, 5)
    # Doubling the file must not increase AVF.
    avfs = [avf for _, avf, _ in rows]
    assert avfs == sorted(avfs, reverse=True)
