"""Chip configuration model.

A :class:`GpuConfig` captures everything the simulators and the reliability
engine need to know about one GPU: how many cores (SMs / compute units) it
has, the size of the fault-targeted storage structures, the scheduling
limits that drive occupancy, the clock that turns cycles into time, and the
latency model that turns instructions into cycles.

The four concrete chips from the paper live in :mod:`repro.arch.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class LatencyModel:
    """Per-class instruction latencies and issue costs, in core cycles.

    ``issue_cycles`` is the number of scheduler cycles one warp/wavefront
    instruction occupies the issue port (real G80 pumps a 32-thread warp
    through 8 SPs over 4 cycles; Fermi issues a warp per cycle per
    scheduler; GCN pumps a 64-lane wavefront through a 16-lane SIMD over
    4 cycles).
    """

    issue_cycles: int = 4
    alu: int = 8
    mul: int = 8
    sfu: int = 16
    shared: int = 24
    global_mem: int = 200
    branch: int = 4
    barrier: int = 2
    #: extra cycles charged per divergent global transaction beyond the first
    uncoalesced_penalty: int = 8

    def __post_init__(self):
        for name in (
            "issue_cycles", "alu", "mul", "sfu", "shared",
            "global_mem", "branch", "barrier", "uncoalesced_penalty",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"latency {name} must be >= 0")
        if self.issue_cycles == 0:
            raise ConfigError("issue_cycles must be >= 1")


@dataclass(frozen=True)
class GpuConfig:
    """Static description of one GPU chip.

    Sizes follow the vendor's own terminology: for NVIDIA chips a *core*
    is a streaming multiprocessor (SM) and ``registers_per_core`` counts
    32-bit registers in the SM's register file; for AMD a *core* is a
    compute unit (CU) and ``registers_per_core`` counts 32-bit *vector*
    register slots (VGPR entries x 64 lanes).
    """

    name: str
    vendor: str                      # "nvidia" | "amd"
    isa: str                         # "sass" | "si"
    microarchitecture: str
    num_cores: int                   # SMs or CUs
    warp_size: int                   # 32 (NVIDIA) or 64 (AMD wavefront)
    registers_per_core: int          # 32-bit words in the (vector) register file
    local_memory_bytes: int          # shared memory (NVIDIA) / LDS (AMD) per core
    max_threads_per_core: int
    max_blocks_per_core: int
    max_warps_per_core: int
    shader_clock_hz: float
    max_registers_per_thread: int = 64
    #: register allocation granularity per warp (hardware allocates in chunks)
    register_allocation_unit: int = 1
    #: local memory allocation granularity in bytes
    local_allocation_unit: int = 1
    #: number of independent warp schedulers per core
    num_schedulers: int = 1
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self):
        if self.vendor not in ("nvidia", "amd"):
            raise ConfigError(f"unknown vendor {self.vendor!r}")
        if self.isa not in ("sass", "si"):
            raise ConfigError(f"unknown isa {self.isa!r}")
        if self.warp_size not in (32, 64):
            raise ConfigError("warp_size must be 32 or 64")
        for name in (
            "num_cores", "registers_per_core", "local_memory_bytes",
            "max_threads_per_core", "max_blocks_per_core",
            "max_warps_per_core", "max_registers_per_thread",
            "register_allocation_unit", "local_allocation_unit",
            "num_schedulers",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.shader_clock_hz <= 0:
            raise ConfigError("shader_clock_hz must be positive")
        if self.max_threads_per_core < self.warp_size:
            raise ConfigError("max_threads_per_core below one warp")

    # ------------------------------------------------------------------
    # Structure sizes (the fault-injection targets)
    # ------------------------------------------------------------------
    @property
    def register_file_bits_per_core(self) -> int:
        """Bits of vector register file per SM/CU."""
        return self.registers_per_core * 32

    @property
    def local_memory_bits_per_core(self) -> int:
        """Bits of shared/local memory per SM/CU."""
        return self.local_memory_bytes * 8

    @property
    def register_file_bits(self) -> int:
        """Whole-chip register file size in bits."""
        return self.register_file_bits_per_core * self.num_cores

    @property
    def local_memory_bits(self) -> int:
        """Whole-chip local/shared memory size in bits."""
        return self.local_memory_bits_per_core * self.num_cores

    def structure_bits(self, structure: str) -> int:
        """Whole-chip bit count of a named structure.

        ``structure`` is any name from
        :data:`repro.arch.structures.STRUCTURE_REGISTRY`; the chip must
        expose it (``simt_stack`` exists on SASS chips only).
        """
        from repro.arch.structures import words_per_core
        return words_per_core(self, structure) * 32 * self.num_cores

    def structure_words_per_core(self, structure: str) -> int:
        """32-bit words of a named structure per SM/CU (registry-based)."""
        from repro.arch.structures import words_per_core
        return words_per_core(self, structure)

    def exposes_structure(self, structure: str) -> bool:
        """True when this chip's ISA physically exposes the structure."""
        from repro.arch.structures import structure_exposed
        return structure_exposed(self, structure)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name} ({self.microarchitecture}, {self.vendor}): "
            f"{self.num_cores} cores x {self.registers_per_core} regs, "
            f"{self.local_memory_bytes // 1024} KiB local, "
            f"{self.shader_clock_hz / 1e6:.0f} MHz"
        )
