"""Tests for the findings-summary analysis layer."""

import math
from dataclasses import replace

import pytest

from repro.arch.scaling import get_scaled_gpu
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.kernels.registry import KERNEL_NAMES, get_workload
from repro.reliability.analysis import (
    ace_fi_ratios,
    avf_occupancy_correlation,
    summarize,
)
from repro.reliability.campaign import CellResult
from repro.reliability.epf import EpfResult
from repro.reliability.fi import AvfEstimate, run_golden


def make_cell(gpu, workload, rf_fi, rf_ace, rf_occ, lm_fi=0.02, lm_ace=0.021,
              lm_occ=0.05, epf=1e14):
    def estimate(structure, avf):
        failures = int(round(avf * 100))
        return AvfEstimate(
            structure=structure, samples=100, masked=100 - failures,
            sdc=failures, due=0, pruned=50, resimulated=50, wall_time_s=1.0,
        )

    return CellResult(
        gpu=gpu, workload=workload, scale="small", scheduler="rr",
        cycles=1000, num_launches=1,
        fi={REGISTER_FILE: estimate(REGISTER_FILE, rf_fi),
            LOCAL_MEMORY: estimate(LOCAL_MEMORY, lm_fi)},
        ace={REGISTER_FILE: rf_ace, LOCAL_MEMORY: lm_ace},
        occupancy={REGISTER_FILE: rf_occ, LOCAL_MEMORY: lm_occ},
        epf=EpfResult(gpu=gpu, workload=workload, cycles=1000, t_exec_s=1e-6,
                      eit=3.6e18, fit_by_structure={}, fit_gpu=100.0, epf=epf),
        golden_time_s=1.0, fi_time_s=2.0, samples=100, seed=0,
        uses_local_memory=True,
    )


@pytest.fixture
def cells():
    return [
        make_cell("A", "w1", rf_fi=0.10, rf_ace=0.20, rf_occ=0.5, epf=1e13),
        make_cell("A", "w2", rf_fi=0.02, rf_ace=0.05, rf_occ=0.1, epf=1e15),
        make_cell("B", "w1", rf_fi=0.30, rf_ace=0.45, rf_occ=0.9, epf=5e13),
        make_cell("B", "w2", rf_fi=0.05, rf_ace=0.08, rf_occ=0.2, epf=2e16),
    ]


class TestBuildingBlocks:
    def test_ace_fi_ratios(self, cells):
        rows = ace_fi_ratios(cells, REGISTER_FILE)
        assert len(rows) == 4
        gpu, workload, ratio = rows[0]
        assert (gpu, workload) == ("A", "w1")
        assert ratio == pytest.approx(2.0)

    def test_zero_fi_skipped(self, cells):
        cells.append(make_cell("C", "w1", rf_fi=0.0, rf_ace=0.1, rf_occ=0.3))
        rows = ace_fi_ratios(cells, REGISTER_FILE)
        assert all(gpu != "C" for gpu, _, _ in rows)

    def test_correlation_positive(self, cells):
        r = avf_occupancy_correlation(cells, REGISTER_FILE)
        assert r > 0.9

    def test_correlation_needs_three(self, cells):
        with pytest.raises(ValueError):
            avf_occupancy_correlation(cells[:2], REGISTER_FILE)

    def test_degenerate_correlation_is_zero(self):
        flat = [make_cell("A", f"w{i}", 0.1, 0.1, 0.5) for i in range(4)]
        assert avf_occupancy_correlation(flat, REGISTER_FILE) == 0.0


class TestSummary:
    def test_summarize_and_claims(self, cells):
        summary = summarize(cells)
        assert summary.avf_spread_by_gpu["A"] == pytest.approx(5.0)
        assert summary.claim_avf_varies()
        assert summary.claim_avf_tracks_occupancy()
        assert summary.claim_ace_overestimates_regfile()
        assert summary.claim_ace_close_on_localmem()
        assert summary.claim_epf_spans_orders()
        low, high = summary.epf_log10_range
        assert high - low == pytest.approx(math.log10(2e16 / 1e13))

    def test_real_mini_campaign_summary(self):
        """End-to-end: the claims machinery runs on real cells."""
        from repro.reliability.campaign import run_cell
        from repro.spec import CampaignSpec
        from tests.conftest import MINI_NVIDIA
        real = [
            run_cell(CampaignSpec(gpus=(MINI_NVIDIA,), workloads=(name,),
                                  scale="tiny", samples=30, seed=4))
            for name in ("matrixMul", "histogram", "scan")
        ]
        summary = summarize(real)
        assert math.isfinite(summary.occupancy_correlation[REGISTER_FILE])
        assert summary.epf_log10_range[0] > 0


class TestSectionIIIClaims:
    """The paper's Section III claims on real golden runs of scaled chips."""

    def test_regfile_avf_tracks_occupancy(self):
        """'A strong correlation of the AVF with [occupancy]': Pearson r
        of register-file ACE AVF against occupancy over all ten kernels."""
        from scipy import stats  # slow to load; only this test needs it

        config = get_scaled_gpu("fx5800")
        goldens = [run_golden(config, get_workload(name, "tiny"))
                   for name in KERNEL_NAMES]
        r, _p = stats.pearsonr(
            [golden.ace.avf(REGISTER_FILE) for golden in goldens],
            [golden.occupancy.occupancy(REGISTER_FILE) for golden in goldens])
        assert r > 0.5

    def test_larger_register_file_does_not_raise_avf(self):
        """Resource size: the same live bits over a larger file give an
        ACE AVF that never rises from 16K to 32K to 64K registers/core.

        The live bits do not depend on the file size here, so the AVF
        falls in inverse proportion to it: ``avf * registers`` is the
        same at every size (0.05509, 0.02754, 0.01377)."""
        base = get_scaled_gpu("gtx480")
        workload = get_workload("transpose", "tiny")
        sizes = (16 * 1024, 32 * 1024, 64 * 1024)
        avfs = [
            run_golden(replace(base, name=f"{base.name} rf={regs}",
                               registers_per_core=regs),
                       workload).ace.avf(REGISTER_FILE)
            for regs in sizes
        ]
        assert avfs == sorted(avfs, reverse=True)
        live = [avf * regs for avf, regs in zip(avfs, sizes)]
        assert live == pytest.approx([live[0]] * len(sizes))
