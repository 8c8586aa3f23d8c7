"""Engine equivalence for every fault model, checkpoints on and off.

The transient path has had an end-to-end parity test since the engine
landed (:mod:`tests.test_parallel_campaign`); this extends the bar to
``stuck_at`` and ``mbu`` and crosses it with the checkpoint subsystem:
the engine matrix, the engine matrix with suffix-only checkpointed FI,
and the frozen verdict of the retired serial cell loop
(``tests/fixtures/serial_campaign``) must all agree.
"""

import pytest

from repro.engine import clear_memory_cache, run_campaign
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.spec import CampaignSpec
from tests.conftest import (
    MINI_AMD,
    MINI_NVIDIA,
    comparable,
    fi_counts,
    serial_verdict,
)

SAMPLES, SEED = 20, 5


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


class TestModelParityWithCheckpoints:
    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    @pytest.mark.parametrize("model", ["stuck_at", "mbu"])
    def test_engine_matches_serial_checkpoints_on_and_off(
            self, config, model):
        spec = CampaignSpec(gpus=[config], workloads=["histogram"],
                            scale="tiny", samples=SAMPLES, seed=SEED,
                            structures=STRUCTURES, fault_model=model)
        plain = run_campaign(spec).cells
        clear_memory_cache()
        checkpointed = run_campaign(
            spec.replace(checkpoint_interval="auto")).cells
        frozen = serial_verdict("cells.json")[
            f"engine_model_parity/{model}-{config.isa}"]
        rows = [comparable(c) for c in plain]
        assert rows == [comparable(c) for c in checkpointed]
        assert rows == [frozen["row"]]
        counts = [fi_counts(c) for c in plain]
        assert counts == [fi_counts(c) for c in checkpointed]
        assert counts == [frozen["counts"]]

    @pytest.mark.parametrize("model", ["transient", "stuck_at", "mbu"])
    @pytest.mark.parametrize("checkpoint_interval", [None, 200])
    def test_checkpointed_pool_matches_serial(self, model,
                                              checkpoint_interval):
        """Pooled workers, with per-process snapshot rebuilds or with
        checkpoints off, must not change any cell."""
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=["histogram"],
                            scale="tiny", samples=SAMPLES, seed=SEED,
                            structures=STRUCTURES, fault_model=model)
        serial = run_campaign(spec).cells
        clear_memory_cache()
        pooled = run_campaign(
            spec.replace(checkpoint_interval=checkpoint_interval,
                         shard_size=4),
            workers=3).cells
        assert [comparable(c) for c in serial] == \
               [comparable(c) for c in pooled]


class TestCheckpointStoreCompatibility:
    def test_checkpointed_resume_reuses_simulation_jobs(self, tmp_path):
        """Only the cell reduction re-runs when checkpointing toggles.

        Golden/plan/shard fingerprints exclude the checkpoint setting
        (their payloads are bit-identical either way), so a
        checkpointed campaign resumed from an un-checkpointed store
        reuses every simulation job.
        """
        store = tmp_path / "store.jsonl"
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=["vectoradd"],
                            scale="tiny", samples=12, seed=2,
                            structures=STRUCTURES)
        first = run_campaign(spec, store=store)
        assert first.stats.executed > 0
        clear_memory_cache()
        second = run_campaign(spec.replace(checkpoint_interval="auto"),
                              store=store)
        executed_kinds = {
            kind: counts["executed"]
            for kind, counts in second.stats.by_kind.items()
            if counts["executed"]
        }
        assert executed_kinds == {"cell": 1}
        assert [comparable(c) for c in first.cells] == \
               [comparable(c) for c in second.cells]
