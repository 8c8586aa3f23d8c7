"""DIST — campaign-service throughput at fleet sizes 1, 2 and 4.

Runs the same small campaign through the coordinator with 1, 2 and 4
worker *processes* (real ``repro-experiments worker`` subprocesses, so
the fleet actually runs in parallel) and records injections/second per
fleet size. The stores from the smallest and largest fleet are
verified identical, the distributed-parity contract.

Trend only, never gated: at smoke scale the lease/push round-trips,
worker interpreter start-up and the one-cell queue depth swamp the
fleet win, so a floor here would gate HTTP framing, not the engine.
The datapoints feed the bench history (``check_bench.py`` prints them
alongside the gated speedups).

Knobs: ``REPRO_FI_SAMPLES`` / ``REPRO_SCALE`` (see conftest).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.conftest import bench_samples, bench_scale
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.engine import clear_memory_cache
from repro.engine.service import CampaignService
from repro.engine.store import ResultStore, diff_stores
from repro.spec import CampaignSpec

FLEET_SIZES = (1, 2, 4)
GPUS = ("fx5600", "hd7970")
WORKLOADS = ("histogram", "scan")

_SRC = Path(__file__).resolve().parents[1] / "src"


def _spawn_workers(url: str, count: int, tag: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "worker", url,
             "--id", f"bench-{tag}-{index}", "--poll", "0.05", "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for index in range(count)
    ]


def _run_fleet(spec: CampaignSpec, store_path: Path, count: int) -> float:
    clear_memory_cache()
    store = ResultStore(store_path)
    service = CampaignService(store, [spec], port=0)
    start = time.perf_counter()
    workers = _spawn_workers(service.url, count, tag=str(count))
    try:
        service.run()
    finally:
        for worker in workers:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
        store.close()
    return time.perf_counter() - start


def test_distributed_throughput(benchmark, tmp_path):
    samples = bench_samples()
    scale = bench_scale()
    spec = CampaignSpec(gpus=GPUS, workloads=WORKLOADS, scale=scale,
                        samples=samples, seed=1, structures=STRUCTURES)
    injections = (samples * len(STRUCTURES)
                  * len(GPUS) * len(WORKLOADS))

    wall = {}
    for count in FLEET_SIZES[:-1]:
        wall[count] = _run_fleet(spec, tmp_path / f"dist{count}.jsonl",
                                 count)
    largest = FLEET_SIZES[-1]
    benchmark.pedantic(
        lambda: wall.__setitem__(largest, _run_fleet(
            spec, tmp_path / f"dist{largest}.jsonl", largest)),
        rounds=1, iterations=1)

    assert diff_stores(tmp_path / f"dist{FLEET_SIZES[0]}.jsonl",
                       tmp_path / f"dist{largest}.jsonl",
                       ignore_order=True) == []

    rates = {count: injections / seconds if seconds else float("inf")
             for count, seconds in sorted(wall.items())}
    print(f"\nDistributed campaign (n={samples}/structure, {scale}, "
          f"{injections} nominal injections):")
    for count, rate in rates.items():
        print(f"  workers={count}  {wall[count]:6.1f}s  "
              f"{rate:8.1f} inj/s  [trend only]")
    benchmark.extra_info["dist_fleet_sizes"] = list(FLEET_SIZES)
    benchmark.extra_info["dist_wall_s"] = {
        str(count): round(seconds, 2) for count, seconds in wall.items()}
    benchmark.extra_info["dist_inj_per_s"] = {
        str(count): round(rate, 1) for count, rate in rates.items()}
    benchmark.extra_info["dist_injections"] = injections
