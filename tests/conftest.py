"""Shared fixtures: small chips, helpers for running inline kernels,
and the campaign helpers the parity tests share."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import GpuConfig, LatencyModel
from repro.arch.structures import DATAPATH_STRUCTURES
from repro.engine import jobs
from repro.isa.sass.parser import assemble_sass
from repro.isa.si.parser import assemble_si
from repro.kernels.registry import get_workload
from repro.reliability.fi import resimulate_plan
from repro.reliability.outcomes import FaultResult, Outcome
from repro.sim.gpu import Gpu
from repro.sim.launch import LaunchConfig, pack_params

#: The retired serial campaign loop's recorded verdict (README.md there).
SERIAL_CAMPAIGN = Path(__file__).parent / "fixtures" / "serial_campaign"

#: A small NVIDIA-style chip: fast to simulate, big enough for real blocks.
MINI_NVIDIA = GpuConfig(
    name="Mini NVIDIA",
    vendor="nvidia",
    isa="sass",
    microarchitecture="mini",
    num_cores=2,
    warp_size=32,
    registers_per_core=8192,
    local_memory_bytes=8 * 1024,
    max_threads_per_core=768,
    max_blocks_per_core=4,
    max_warps_per_core=24,
    shader_clock_hz=1e9,
    register_allocation_unit=32,
    local_allocation_unit=128,
    num_schedulers=1,
    latency=LatencyModel(),
)

#: A small AMD-style chip.
MINI_AMD = GpuConfig(
    name="Mini AMD",
    vendor="amd",
    isa="si",
    microarchitecture="mini",
    num_cores=2,
    warp_size=64,
    registers_per_core=4096,
    local_memory_bytes=8 * 1024,
    max_threads_per_core=512,
    max_blocks_per_core=4,
    max_warps_per_core=8,
    shader_clock_hz=1e9,
    register_allocation_unit=64,
    local_allocation_unit=128,
    num_schedulers=1,
    latency=LatencyModel(),
)


@pytest.fixture
def mini_nvidia() -> GpuConfig:
    return MINI_NVIDIA


@pytest.fixture
def mini_amd() -> GpuConfig:
    return MINI_AMD


def run_sass(source: str, buffers: dict, params: list, grid=(1,), block=(32,),
             config: GpuConfig = MINI_NVIDIA, scheduler: str = "rr",
             sink=None, faults=None, watchdog=None):
    """Assemble + run a SASS kernel; returns (gpu, {buffer: u32 array}).

    ``buffers`` maps name -> ndarray (initial data) or int (zeroed bytes).
    ``params`` entries may be buffer names (replaced by base addresses)
    or numbers.
    """
    return _run(assemble_sass(source), buffers, params, grid, block, config,
                scheduler, sink, faults, watchdog)


def run_si(source: str, buffers: dict, params: list, grid=(1,), block=(64,),
           config: GpuConfig = MINI_AMD, scheduler: str = "rr",
           sink=None, faults=None, watchdog=None):
    """Assemble + run an SI kernel; see :func:`run_sass`."""
    return _run(assemble_si(source), buffers, params, grid, block, config,
                scheduler, sink, faults, watchdog)


def _run(program, buffers, params, grid, block, config, scheduler, sink,
         faults, watchdog):
    gpu = Gpu(config, scheduler=scheduler, sink=sink)
    bases = {}
    for name, spec in buffers.items():
        if isinstance(spec, int):
            bases[name] = gpu.mem.alloc(name, spec).base
        else:
            bases[name] = gpu.mem.alloc_from(name, np.asarray(spec)).base
    resolved = [bases.get(p, p) if isinstance(p, str) else p for p in params]
    if faults:
        gpu.set_faults(faults)
    if watchdog:
        gpu.set_watchdog(watchdog)
    launch = LaunchConfig(
        program=program, grid=grid, block=block, params=pack_params(*resolved)
    )
    gpu.launch(launch)
    gpu.finish()
    return gpu, gpu.mem.snapshot()


# ----------------------------------------------------------------------
# Campaign helpers
# ----------------------------------------------------------------------

def comparable(cell) -> dict:
    """A cell's CSV row minus its wall-time fields (they vary per run)."""
    row = cell.row()
    row.pop("golden_time_s")
    row.pop("fi_time_s")
    return row


def fi_counts(cell) -> dict:
    """structure -> [masked, sdc, due, pruned, resimulated]."""
    return {s: [e.masked, e.sdc, e.due, e.pruned, e.resimulated]
            for s, e in cell.fi.items()}


@functools.cache
def serial_verdict(name: str) -> dict:
    """One file of ``tests/fixtures/serial_campaign``, parsed."""
    return json.loads((SERIAL_CAMPAIGN / name).read_text())


def sample_results(config, workload_name, golden, samples, seed, *,
                   structures=DATAPATH_STRUCTURES, fault_model=None,
                   memo=None, scale="tiny") -> list[FaultResult]:
    """Every sampled fault's :class:`FaultResult`, in sampling order.

    The engine's plan job draws and prunes the sites; each distinct
    live plan is re-simulated once, in shard order, against ``golden``
    (suffix-only when it carries snapshots, through ``memo`` when one
    is given); dead sites are MASKED without re-simulation. Counting
    stays the engine's: cells come from ``run_campaign``.
    """
    plan_payload = jobs.run_plan_job((
        config, workload_name, scale, golden.scheduler, golden.cycles,
        samples, seed, tuple(structures), fault_model, golden.trace))
    workload = get_workload(workload_name, scale)
    live = {
        key: resimulate_plan(config, workload, jobs.plan_from_key(key),
                             golden.outputs, golden.cycles, golden.scheduler,
                             fault_model=fault_model,
                             snapshots=golden.snapshots, memo=memo)
        for key in jobs.live_plan_keys(plan_payload)
    }
    results = []
    for structure, rows in plan_payload["plans"].items():
        for row in rows:
            key = jobs.plan_key_from_row(structure, row)
            results.append(live[key] if row[4] else FaultResult(
                jobs.plan_from_key(key), Outcome.MASKED, False,
                detail="dead-site"))
    return results
