"""Parallel FI campaigns must be bit-identical to serial ones."""

import numpy as np
import pytest

from repro.engine import clear_memory_cache
from repro.kernels.registry import get_workload
from repro.reliability.campaign import run_cell, run_matrix
from repro.reliability.fi import run_fi_campaign, run_golden
from repro.reliability.outcomes import Outcome
from repro.arch.structures import DATAPATH_STRUCTURES as STRUCTURES
from repro.spec import CampaignSpec
from tests.conftest import MINI_AMD, MINI_NVIDIA


class TestCellParallelMatrix:
    """Cell-level parallelism (the engine) vs the serial matrix."""

    GPUS = [MINI_NVIDIA, MINI_AMD]
    WORKLOADS = ["histogram", "vectoradd"]

    @staticmethod
    def _comparable(cell):
        row = cell.row()
        row.pop("golden_time_s")
        row.pop("fi_time_s")
        return row

    def test_matrix_workers_do_not_change_results(self):
        spec = CampaignSpec(gpus=self.GPUS, workloads=self.WORKLOADS,
                            scale="tiny", samples=24, seed=5,
                            structures=STRUCTURES)
        clear_memory_cache()
        serial = run_matrix(spec, workers=1)
        clear_memory_cache()
        parallel = run_matrix(spec.replace(shard_size=5), workers=3)
        assert [self._comparable(c) for c in serial] == \
               [self._comparable(c) for c in parallel]
        for left, right in zip(serial, parallel):
            assert left.epf.epf == right.epf.epf
            assert left.epf.fit_by_structure == right.epf.fit_by_structure
            for structure in STRUCTURES:
                a, b = left.fi[structure], right.fi[structure]
                assert (a.masked, a.sdc, a.due, a.pruned, a.resimulated) == \
                       (b.masked, b.sdc, b.due, b.pruned, b.resimulated)

    def test_matrix_matches_legacy_serial_cells(self):
        """The engine reproduces run_cell bit for bit, cell by cell."""
        clear_memory_cache()
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=self.WORKLOADS,
                            scale="tiny", samples=24, seed=5,
                            structures=STRUCTURES)
        cells = run_matrix(spec)
        for cell in cells:
            serial = run_cell(spec.replace(workloads=(cell.workload,)))
            assert self._comparable(cell) == self._comparable(serial)
            assert cell.ace == serial.ace
            assert cell.occupancy == serial.occupancy
            assert cell.epf.epf == serial.epf.epf

    def test_shard_size_does_not_change_results(self):
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=["histogram"],
                            scale="tiny", samples=30, seed=7,
                            structures=STRUCTURES)
        clear_memory_cache()
        coarse = run_matrix(spec.replace(shard_size=64))
        fine = run_matrix(spec.replace(shard_size=1), workers=2)
        assert [self._comparable(c) for c in coarse] == \
               [self._comparable(c) for c in fine]


class TestSdcSeverity:
    def test_corrupted_word_counts_recorded(self):
        config = MINI_NVIDIA
        workload = get_workload("scan", "tiny")
        golden = run_golden(config, workload)
        output = run_fi_campaign(config, workload, golden, samples=120,
                                 seed=8, keep_results=True)
        sdcs = [r for r in output.results if r.outcome is Outcome.SDC]
        if not sdcs:
            pytest.skip("no SDC drawn at this seed")
        assert all(r.corrupted_words >= 1 for r in sdcs)
        non_sdc = [r for r in output.results if r.outcome is not Outcome.SDC]
        assert all(r.corrupted_words == 0 for r in non_sdc)

    def test_count_corrupted_words_helper(self):
        from repro.reliability.outcomes import count_corrupted_words
        golden = {"a": np.array([1, 2, 3], dtype=np.uint32)}
        faulty = {"a": np.array([1, 9, 9], dtype=np.uint32)}
        assert count_corrupted_words(golden, faulty) == 2
        assert count_corrupted_words(golden, golden) == 0
