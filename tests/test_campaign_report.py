"""Campaign orchestration, reporting and experiment-harness tests."""

import csv
import math

import pytest

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.reliability.campaign import average_cell, run_cell
from repro.reliability.report import (
    bar,
    format_ace_vs_fi,
    format_avf_figure,
    format_epf_figure,
    write_cells_csv,
)
from repro.spec import CampaignSpec
from repro.spec.defaults import default_samples, default_scale
from tests.conftest import MINI_AMD, MINI_NVIDIA


@pytest.fixture(scope="module")
def cells():
    """Two small cells (one per vendor) shared across report tests."""
    return [
        run_cell(CampaignSpec(gpus=(config,), workloads=("histogram",),
                              scale="tiny", samples=30, seed=2))
        for config in (MINI_NVIDIA, MINI_AMD)
    ]


class TestRunCell:
    def test_cell_contents(self, cells):
        cell = cells[0]
        assert cell.workload == "histogram"
        assert cell.cycles > 0
        assert set(cell.fi) == {REGISTER_FILE, LOCAL_MEMORY}
        assert set(cell.ace) == {REGISTER_FILE, LOCAL_MEMORY}
        assert 0 <= cell.occupancy[REGISTER_FILE] <= 1
        assert cell.epf is not None and cell.epf.epf > 0
        assert cell.uses_local_memory

    def test_row_schema(self, cells):
        row = cells[0].row()
        for key in ("gpu", "workload", "cycles", "avf_fi_regfile",
                    "avf_ace_regfile", "occ_regfile", "avf_fi_localmem",
                    "epf", "fit_gpu", "samples"):
            assert key in row

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FI_SAMPLES", "77")
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert default_samples() == 77
        assert default_scale() == "tiny"

    def test_single_structure_cell(self):
        cell = run_cell(CampaignSpec(
            gpus=(MINI_NVIDIA,), workloads=("vectoradd",), scale="tiny",
            samples=10, seed=0, structures=(REGISTER_FILE,)))
        assert REGISTER_FILE in cell.fi
        assert LOCAL_MEMORY not in cell.fi

    def test_average_cell(self, cells):
        avg = average_cell(cells[:1], cells[0].gpu)
        assert avg["gpu"] == cells[0].gpu
        assert avg["avf_fi_regfile"] == cells[0].avf_fi(REGISTER_FILE)

    def test_average_cell_unknown_gpu(self, cells):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            average_cell(cells, "nonexistent")


class TestReportFormatting:
    def test_bar_bounds(self):
        assert bar(0.0) == "." * 30
        assert bar(1.0) == "#" * 30
        assert bar(2.0) == "#" * 30  # clamped
        assert len(bar(0.5)) == 30

    def test_avf_figure_contains_rows(self, cells):
        text = format_avf_figure(cells, REGISTER_FILE, "Fig. 1 test")
        assert "Fig. 1 test" in text
        assert "histogram" in text
        assert "average" in text
        assert "error margin" in text

    def test_epf_figure(self, cells):
        text = format_epf_figure(cells)
        assert "EPF" in text
        assert "histogram" in text

    def test_ace_vs_fi_table(self, cells):
        text = format_ace_vs_fi(cells)
        assert "ACE/FI" in text
        assert "regfile" in text and "localmem" in text

    def test_csv_roundtrip(self, cells, tmp_path):
        path = write_cells_csv(cells, tmp_path / "cells.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(cells)
        assert rows[0]["workload"] == "histogram"
        assert float(rows[0]["avf_fi_regfile"]) >= 0


class TestExperimentHarnesses:
    def test_fig1_tiny(self):
        from repro.experiments import run_figure
        cells, report = run_figure("fig1", CampaignSpec(
            samples=10, scale="tiny", gpus=[MINI_NVIDIA],
            workloads=["vectoradd"], seed=0,
        ))
        assert len(cells) == 1
        assert "Register File AVF" in report

    def test_fig2_filters_to_lmem_users(self):
        from repro.experiments.figures import local_memory_workloads
        subset = local_memory_workloads("tiny")
        assert "vectoradd" not in subset
        assert "matrixMul" in subset
        assert len(subset) == 7

    def test_fig3_tiny(self):
        from repro.experiments import run_figure
        cells, report = run_figure("fig3", CampaignSpec(
            samples=10, scale="tiny", gpus=[MINI_AMD],
            workloads=["histogram"], seed=0,
        ))
        assert len(cells) == 1
        assert "Executions per Failure" in report
        assert math.isfinite(cells[0].epf.fit_gpu)

    def test_cli_parses_and_runs(self, capsys):
        from repro.experiments.runner import main
        code = main([
            "fig1", "--samples", "5", "--scale", "tiny",
            "--gpus", "gtx480", "--workloads", "vectoradd",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Register File AVF" in out

    def test_cli_rejects_bad_experiment(self):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["fig9"])
