"""Campaign engine: resume, incremental re-runs, golden-run sharing."""

import json
import subprocess
import sys

import pytest

from repro.engine import clear_memory_cache, run_campaign
from repro.engine.jobs import CELL, GOLDEN, PLAN, SHARD
from repro.engine.scheduler import CampaignStats
from repro.engine.store import ResultStore
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.spec import CampaignSpec, run_sweep
from tests.conftest import (MINI_AMD, MINI_NVIDIA, comparable,
                            counting_fault_free_runs)

GPUS = [MINI_NVIDIA]
WORKLOADS = ["histogram", "vectoradd"]
SAMPLES, SEED = 20, 3
SPEC = CampaignSpec(gpus=GPUS, workloads=WORKLOADS, scale="tiny",
                    samples=SAMPLES, seed=SEED, structures=STRUCTURES)


def _run(store=None, **overrides):
    return run_campaign(SPEC.replace(**overrides), store=store)


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


class TestResume:
    def test_identical_rerun_executes_nothing(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        first = _run(store=store_path)
        assert first.stats.executed > 0 and first.stats.cached == 0
        clear_memory_cache()
        second = _run(store=store_path)
        assert second.stats.executed == 0
        assert second.stats.cached == second.stats.total
        # Finished cells short-circuit: one cached cell job each.
        assert second.stats.total == len(first.cells)
        assert [comparable(c) for c in second.cells] == \
               [comparable(c) for c in first.cells]

    def test_resume_after_partial_run_skips_finished_jobs(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        full = _run(store=store_path)
        # Emulate a campaign killed after the golden + plan jobs landed:
        # keep only those records, as an interrupted store would.
        partial_path = tmp_path / "partial.jsonl"
        with store_path.open() as src, partial_path.open("w") as dst:
            for line in src:
                if json.loads(line)["kind"] in (GOLDEN, PLAN):
                    dst.write(line)
        clear_memory_cache()
        resumed = _run(store=partial_path)
        assert resumed.stats.by_kind[GOLDEN]["executed"] == 0
        assert resumed.stats.by_kind[PLAN]["executed"] == 0
        assert resumed.stats.by_kind[SHARD]["executed"] > 0
        assert resumed.stats.by_kind[CELL]["executed"] == len(full.cells)
        assert [comparable(c) for c in resumed.cells] == \
               [comparable(c) for c in full.cells]
        # ...and the resumed store is now complete: nothing re-executes.
        clear_memory_cache()
        third = _run(store=partial_path)
        assert third.stats.executed == 0

    def test_resume_tolerates_record_truncated_by_kill(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        full = _run(store=store_path)
        store_path.write_text(store_path.read_text()[:-30])
        clear_memory_cache()
        resumed = _run(store=store_path)
        # Exactly the destroyed record's job re-ran; all results match.
        assert resumed.stats.executed >= 1
        assert [comparable(c) for c in resumed.cells] == \
               [comparable(c) for c in full.cells]

    def test_shard_size_change_reuses_cells(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        _run(store=store_path, shard_size=5)
        clear_memory_cache()
        rerun = _run(store=store_path, shard_size=9)
        # Cell fingerprints ignore shard geometry, so finished cells
        # short-circuit the whole chain: no golden/plan/shard jobs at all.
        assert rerun.stats.by_kind[CELL]["executed"] == 0
        assert SHARD not in rerun.stats.by_kind
        assert GOLDEN not in rerun.stats.by_kind

    def test_param_change_invalidates_only_downstream_jobs(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        _run(store=store_path)
        clear_memory_cache()
        reseeded = _run(store=store_path, seed=SEED + 1)
        # Golden runs are seed-independent and come back cached; the
        # sampling-dependent jobs all re-execute.
        assert reseeded.stats.by_kind[GOLDEN]["executed"] == 0
        assert reseeded.stats.by_kind[PLAN]["executed"] == len(WORKLOADS)
        assert reseeded.stats.by_kind[CELL]["executed"] == len(WORKLOADS)


class TestGoldenSharing:
    def test_structure_subsets_share_golden_runs(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        fig1 = _run(store=store_path, structures=(REGISTER_FILE,))
        clear_memory_cache()
        fig2 = _run(store=store_path, structures=(LOCAL_MEMORY,))
        assert fig1.stats.by_kind[GOLDEN]["executed"] == len(WORKLOADS)
        assert fig2.stats.by_kind[GOLDEN]["executed"] == 0
        assert fig2.stats.by_kind[GOLDEN]["cached"] == len(WORKLOADS)

    def test_sample_sweep_shares_golden_in_memory(self):
        sweep_a = _run(samples=10)
        sweep_b = _run(samples=15)
        assert sweep_a.stats.by_kind[GOLDEN]["executed"] == len(WORKLOADS)
        assert sweep_b.stats.by_kind[GOLDEN]["executed"] == 0
        assert sweep_b.stats.by_kind[GOLDEN]["cached"] == len(WORKLOADS)

    def test_storeless_campaigns_reuse_resident_goldens(self):
        """Each golden is simulated once per campaign, and a later
        campaign resolves the last four an inline one left resident
        (trace and snapshots included) without simulating them again:
        6 cells cost 6 fault-free runs, then 2 per extra campaign."""
        spec = CampaignSpec(gpus=[MINI_NVIDIA, MINI_AMD],
                            workloads=["histogram", "scan", "kmeans"],
                            scale="tiny", samples=12,
                            checkpoint_interval="auto")
        models = ["transient", "stuck_at", "mbu"]
        with counting_fault_free_runs() as seeds:
            for seed in (0, 1):
                run_campaign(spec.replace(seed=seed))
        assert seeds["runs"] == 6 + 2
        clear_memory_cache()
        with counting_fault_free_runs() as sweep:
            run_sweep(spec, {"fault_model": models})
        assert sweep["runs"] == 6 + 2 + 2
        clear_memory_cache()
        one_cell = spec.replace(gpus=[MINI_NVIDIA], workloads=["histogram"])
        totals = CampaignStats()
        with counting_fault_free_runs() as children:
            run_sweep(one_cell, {"fault_model": models, "seed": [0, 1, 2]},
                      stats=totals)
        assert children["runs"] == 1
        assert totals.by_kind[GOLDEN] == {"cached": 8, "executed": 1}

    def test_workload_inputs_stable_across_processes(self):
        """Resume safety: a fresh process must rebuild identical inputs.

        Builtin ``hash()`` is PYTHONHASHSEED-randomized, so the
        workload RNG must not depend on it — otherwise goldens stored
        by one process misclassify every re-simulation in the next.
        """
        import os
        from pathlib import Path
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = (
            "from repro.kernels.common import rng_for;"
            "print(rng_for('backprop').integers(0, 2**31, 4).tolist())"
        )
        draws = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
            result = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True,
                text=True, check=True, env=env,
            )
            draws.add(result.stdout.strip())
        assert len(draws) == 1, f"process-dependent workload inputs: {draws}"

    def test_memory_cache_backfills_new_store(self, tmp_path):
        _run()  # a storeless campaign leaves its goldens resident
        store_path = tmp_path / "store.jsonl"
        _run(store=store_path)
        # The cached goldens were written through, so the store alone
        # can resume the campaign in a fresh process.
        reloaded = ResultStore(store_path)
        assert reloaded.counts_by_kind()[GOLDEN] == len(WORKLOADS)
