"""MATRIX-PAR — engine wall-time at workers=1 vs workers=N.

Runs the same small (GPU x benchmark) matrix serially and on the
process pool, verifies the cells are identical, and asserts the pool
is not slower than serial (``MIN_SPEEDUP``, 1x) on hosts with at least
two CPUs. The resident goldens are cleared between the runs so each
pays the full campaign cost.

Knobs: ``REPRO_FI_SAMPLES`` / ``REPRO_SCALE`` (default 40 samples at
``tiny``, read through :mod:`repro.spec.defaults`) plus
``REPRO_BENCH_WORKERS`` (default: min(4, cpu_count)).
"""

from __future__ import annotations

import os
import time

from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.engine import clear_memory_cache, run_campaign
from repro.spec import CampaignSpec
from repro.spec.defaults import default_samples, default_scale

GPUS = ("fx5600", "hd7970")
WORKLOADS = ["matrixMul", "histogram", "scan"]

#: Parallelism must never be a pessimisation.
MIN_SPEEDUP = 1.0


def bench_workers(default: int | None = None) -> int:
    if "REPRO_BENCH_WORKERS" in os.environ:
        return int(os.environ["REPRO_BENCH_WORKERS"])
    # At least 2 so the pooled path is exercised even on 1-core hosts
    # (where the speedup will simply come out ~1x or below).
    return default or max(2, min(4, os.cpu_count() or 1))


def test_matrix_parallel_speedup(benchmark):
    samples = default_samples(40)
    scale = default_scale("tiny")
    workers = bench_workers()
    gpus = [get_scaled_gpu(name) for name in GPUS]

    spec = CampaignSpec(gpus=tuple(gpus), workloads=tuple(WORKLOADS),
                        scale=scale, samples=samples, seed=1,
                        structures=STRUCTURES)

    clear_memory_cache()
    start = time.perf_counter()
    serial = run_campaign(spec, workers=1).cells
    serial_s = time.perf_counter() - start

    def parallel_campaign():
        clear_memory_cache()
        return run_campaign(spec, workers=workers).cells

    parallel = benchmark.pedantic(parallel_campaign, rounds=1, iterations=1)
    parallel_s = benchmark.stats.stats.mean

    def comparable(cell):
        row = cell.row()
        row.pop("golden_time_s")
        row.pop("fi_time_s")
        return row

    assert [comparable(c) for c in serial] == [comparable(c) for c in parallel]

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    # A 1-core host cannot show a pool speedup, only the pool's
    # overhead (the docstring's "~1x or below" case) — print the
    # datapoint but do not gate it there.
    gated = (os.cpu_count() or 1) >= 2
    print(f"\nMatrix wall-time ({len(serial)} cells, n={samples}, {scale}): "
          f"workers=1 {serial_s:6.1f}s  workers={workers} {parallel_s:6.1f}s  "
          f"speedup x{speedup:.2f}"
          + ("" if gated else "  (1-core host: not gated)"))
    if gated:
        assert speedup >= MIN_SPEEDUP, (
            f"workers={workers} x{speedup:.2f} is below the "
            f"x{MIN_SPEEDUP} floor")
