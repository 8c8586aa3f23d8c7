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
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.engine import run_campaign
from repro.engine.jobs import SHARD
from repro.engine.store import ResultStore
from repro.reliability.outcomes import Outcome
from repro.spec import CampaignSpec


def test_sdc_severity_distribution(benchmark, tmp_path):
    samples = max(bench_samples(), 120)
    spec = CampaignSpec(gpus=("gtx480",), workloads=("matrixMul",),
                        scale=bench_scale(), samples=samples, seed=17)
    store = tmp_path / "store.jsonl"
    cell = benchmark.pedantic(
        lambda: run_campaign(spec, store=store).cells[0],
        rounds=1, iterations=1,
    )
    # Shard records hold one [*plan_key, outcome, detail, corrupted_words]
    # row per distinct live plan; the plan key starts with the structure.
    sdcs = [row for _, kind, payload in ResultStore(store).records()
            if kind == SHARD for row in payload["results"]
            if row[-3] == Outcome.SDC.value]
    buckets = Counter()
    for row in sdcs:
        if row[-1] == 1:
            buckets["1 word"] += 1
        elif row[-1] <= 16:
            buckets["2-16 words"] += 1
        else:
            buckets[">16 words"] += 1
    print(f"\nSDC severity on {cell.gpu} / matrixMul "
          f"({len(sdcs)} distinct SDC sites of {2 * samples} injections):")
    for bucket in ("1 word", "2-16 words", ">16 words"):
        print(f"  {bucket:<12} {buckets.get(bucket, 0)}")
    by_structure = Counter(row[0] for row in sdcs)
    print(f"  by structure: regfile={by_structure.get(REGISTER_FILE, 0)} "
          f"localmem={by_structure.get(LOCAL_MEMORY, 0)}")
    benchmark.extra_info["sdc_total"] = len(sdcs)
    benchmark.extra_info.update({k: v for k, v in buckets.items()})
    assert all(row[-1] >= 1 for row in sdcs)
    assert len(sdcs) <= sum(e.sdc for e in cell.fi.values())
