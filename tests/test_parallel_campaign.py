"""Parallel FI campaigns must be bit-identical to serial ones."""

import numpy as np
import pytest

from repro.engine import clear_memory_cache, run_campaign
from repro.reliability.fi import run_golden
from repro.reliability.outcomes import Outcome
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.kernels.registry import get_workload
from repro.spec import CampaignSpec
from tests.conftest import (
    MINI_AMD,
    MINI_NVIDIA,
    comparable,
    fi_counts,
    sample_results,
    serial_verdict,
)


class TestCellParallelMatrix:
    """Cell-level parallelism (the engine) vs the serial matrix."""

    GPUS = [MINI_NVIDIA, MINI_AMD]
    WORKLOADS = ["histogram", "vectoradd"]

    def test_matrix_workers_do_not_change_results(self):
        spec = CampaignSpec(gpus=self.GPUS, workloads=self.WORKLOADS,
                            scale="tiny", samples=24, seed=5,
                            structures=STRUCTURES)
        clear_memory_cache()
        serial = run_campaign(spec, workers=1).cells
        clear_memory_cache()
        parallel = run_campaign(spec.replace(shard_size=5), workers=3).cells
        assert [comparable(c) for c in serial] == \
               [comparable(c) for c in parallel]
        for left, right in zip(serial, parallel):
            assert left.epf.epf == right.epf.epf
            assert left.epf.fit_by_structure == right.epf.fit_by_structure
            for structure in STRUCTURES:
                a, b = left.fi[structure], right.fi[structure]
                assert (a.masked, a.sdc, a.due, a.pruned, a.resimulated) == \
                       (b.masked, b.sdc, b.due, b.pruned, b.resimulated)

    def test_matrix_matches_legacy_serial_cells(self):
        """The engine reproduces the retired serial cell loop's frozen
        verdict bit for bit, cell by cell."""
        clear_memory_cache()
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=self.WORKLOADS,
                            scale="tiny", samples=24, seed=5,
                            structures=STRUCTURES)
        cells = run_campaign(spec).cells
        assert [cell.workload for cell in cells] == self.WORKLOADS
        for cell in cells:
            frozen = serial_verdict("cells.json")[
                f"parallel_campaign/{cell.workload}"]
            assert comparable(cell) == frozen["row"]
            assert fi_counts(cell) == frozen["counts"]
            assert cell.ace == frozen["ace"]
            assert cell.occupancy == frozen["occupancy"]
            assert cell.epf.epf == frozen["epf"]

    def test_shard_size_does_not_change_results(self):
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=["histogram"],
                            scale="tiny", samples=30, seed=7,
                            structures=STRUCTURES)
        clear_memory_cache()
        coarse = run_campaign(spec.replace(shard_size=64)).cells
        fine = run_campaign(spec.replace(shard_size=1), workers=2).cells
        assert [comparable(c) for c in coarse] == \
               [comparable(c) for c in fine]


class TestSdcSeverity:
    def test_corrupted_word_counts_recorded(self):
        config = MINI_NVIDIA
        golden = run_golden(config, get_workload("scan", "tiny"))
        results = sample_results(config, "scan", golden, 120, 8)
        sdcs = [r for r in results if r.outcome is Outcome.SDC]
        if not sdcs:
            pytest.skip("no SDC drawn at this seed")
        assert all(r.corrupted_words >= 1 for r in sdcs)
        non_sdc = [r for r in results if r.outcome is not Outcome.SDC]
        assert all(r.corrupted_words == 0 for r in non_sdc)

    def test_count_corrupted_words_helper(self):
        from repro.reliability.outcomes import count_corrupted_words
        golden = {"a": np.array([1, 2, 3], dtype=np.uint32)}
        faulty = {"a": np.array([1, 9, 9], dtype=np.uint32)}
        assert count_corrupted_words(golden, faulty) == 2
        assert count_corrupted_words(golden, golden) == 0
