"""Golden-value pins: the numbers CI gates fault-model refactors on.

These tests hardcode the AVF-FI outcome counts of one fully-specified
(GPU, workload, seed) cell under the default transient model. Any
refactor of the fault subsystem that silently changes the paper's
numbers — sampling order, pruning semantics, application, reduction —
fails here instead of shipping skewed figures. Update the pins only
when a change is *supposed* to alter results, and say why in the
commit.
"""

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.reliability.campaign import run_cell
from repro.spec import CampaignSpec
from tests.conftest import MINI_NVIDIA

#: The pinned cell: MINI_NVIDIA x matrixMul(tiny) x seed 2017, 60 samples.
PINNED_SPEC = CampaignSpec(gpus=(MINI_NVIDIA,), workloads=("matrixMul",),
                           scale="tiny", samples=60, seed=2017)
PINNED = {
    REGISTER_FILE: {"masked": 50, "sdc": 4, "due": 6, "pruned": 50},
    LOCAL_MEMORY: {"masked": 55, "sdc": 5, "due": 0, "pruned": 55},
}
PINNED_CYCLES = 7892


class TestTransientGoldenValues:
    def test_pinned_cell_counts(self):
        cell = run_cell(PINNED_SPEC)
        assert cell.cycles == PINNED_CYCLES
        for structure, expected in PINNED.items():
            estimate = cell.fi[structure]
            actual = {
                "masked": estimate.masked,
                "sdc": estimate.sdc,
                "due": estimate.due,
                "pruned": estimate.pruned,
            }
            assert actual == expected, structure

    def test_pinned_avf(self):
        cell = run_cell(PINNED_SPEC)
        assert cell.avf_fi(REGISTER_FILE) == (4 + 6) / 60
        assert cell.avf_fi(LOCAL_MEMORY) == (5 + 0) / 60
        assert cell.fault_model == "transient"
