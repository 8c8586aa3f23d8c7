"""Workload/buffer model and golden-run reuse tests."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels.registry import get_workload
from repro.kernels.workload import BufferSpec, run_workload
from repro.reliability.fi import run_golden
from repro.sim.gpu import Gpu
from tests.conftest import MINI_NVIDIA


class TestBufferSpec:
    def test_data_buffer(self):
        spec = BufferSpec("a", data=np.zeros(4, dtype=np.float32))
        assert spec.size_bytes == 16

    def test_sized_buffer(self):
        spec = BufferSpec("a", nbytes=64)
        assert spec.size_bytes == 64

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            BufferSpec("a")


class TestWorkloadExecution:
    def test_gaussian_multi_launch(self):
        workload = get_workload("gaussian", "tiny")
        result = run_workload(Gpu(MINI_NVIDIA), workload)
        # N=8 -> 7 iterations x (Fan1 + Fan2).
        assert result.num_launches == 14
        assert result.cycles == sum(result.launch_cycles) or result.cycles > 0

    def test_single_launch_kernels(self):
        workload = get_workload("transpose", "tiny")
        result = run_workload(Gpu(MINI_NVIDIA), workload)
        assert result.num_launches == 1

    def test_outputs_are_u32_words(self):
        workload = get_workload("vectoradd", "tiny")
        result = run_workload(Gpu(MINI_NVIDIA), workload)
        assert result.outputs["c"].dtype == np.uint32

    def test_missing_isa_rejected(self):
        workload = get_workload("vectoradd", "tiny")
        with pytest.raises(ConfigError):
            workload.program("ptx")

    def test_all_programs_list(self):
        gaussian = get_workload("gaussian", "tiny")
        assert len(gaussian.all_programs("sass")) == 2
        vadd = get_workload("vectoradd", "tiny")
        assert len(vadd.all_programs("si")) == 1


class TestGoldenReuse:
    def test_golden_exposes_ace_and_occupancy(self):
        workload = get_workload("scan", "tiny")
        golden = run_golden(MINI_NVIDIA, workload)
        assert golden.cycles > 0
        assert golden.ace.total_cycles == golden.cycles
        assert golden.occupancy.total_cycles == golden.cycles
        assert 0 < golden.occupancy.occupancy("register_file") <= 1
