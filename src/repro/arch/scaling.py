"""Scaled-chip presets for simulation-budget-bounded campaigns.

A pure-Python microarchitectural simulator is orders of magnitude
slower than GPGPU-Sim/Multi2Sim, so paper-sized workloads on full-sized
chips are not feasible. The standard methodology (used by sampled
simulation generally) is to scale the *chip*, not the experiment's
semantics: we divide the number of cores by 4 (keeping every per-core
quantity — register file size, local memory size, scheduling limits,
latencies, clocks — exactly as on the real chip), and run workloads
whose grids occupy the scaled chip the way the paper's workloads
occupied the real ones.

What this preserves:

* per-core occupancy (the AVF-vs-occupancy correlation of Fig. 1/2);
* every cross-chip ratio the paper compares (register file and local
  memory sizes per core, warp width, scheduling limits, clocks);
* the FI-vs-ACE methodology comparison (both operate on the same
  scaled structure).

What it changes: whole-chip structure bit counts are ~4x smaller, so
absolute FIT is ~4x lower and EPF ~4x higher than a full-chip run at
equal AVF — a uniform shift across all four chips that does not
reorder Fig. 3.
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch.config import GpuConfig
from repro.arch.presets import GPU_PRESETS, get_gpu

#: Core-count divisor for the scaled presets.
CORE_DIVISOR = 4


def scaled_config(config: GpuConfig, core_divisor: int = CORE_DIVISOR) -> GpuConfig:
    """Derive the scaled version of a chip (fewer cores, same cores)."""
    cores = max(2, round(config.num_cores / core_divisor))
    return replace(config, name=f"{config.name} (scaled)", num_cores=cores)


#: Scaled counterparts of the four paper chips, in figure order.
SCALED_GPU_PRESETS: dict[str, GpuConfig] = {
    name: scaled_config(config) for name, config in GPU_PRESETS.items()
}


def get_scaled_gpu(name: str) -> GpuConfig:
    """Scaled preset by (full-chip) name or alias."""
    full = get_gpu(name.replace(" (scaled)", ""))
    return SCALED_GPU_PRESETS[full.name]


def list_scaled_gpus() -> list[GpuConfig]:
    """The four scaled chips in canonical (paper) order."""
    return list(SCALED_GPU_PRESETS.values())
