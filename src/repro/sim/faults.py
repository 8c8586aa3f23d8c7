"""Fault plans: where and when storage bits are disturbed.

The paper's fault model is a single soft-error bit flip at a uniformly
random (bit, cycle) coordinate over a whole-chip storage structure x
the fault-free execution's duration. A :class:`FaultPlan` pins one such
coordinate; the simulator applies the disturbance to the target core's
storage the first time that core's clock reaches the plan cycle.

The plan format generalizes beyond the paper's transient single-bit
flip (see :mod:`repro.faultmodels`): ``width`` widens the disturbance
to an adjacent bit cluster (multi-bit upsets), and ``stuck_value``
turns it into a permanent stuck-at-0/1 defect that the storage layer
re-applies on every subsequent write-back. The defaults (``width=1``,
``stuck_value=-1``) encode exactly the paper's transient flip, so
plans, samplers and stores from the single-bit-flip era are unchanged.

Plans target any structure in the registry
(:mod:`repro.arch.structures`): the paper's datapath pair
(``register_file``, ``local_memory``) plus the control structures
(``simt_stack``, ``predicate_file``, ``scheduler_state``), which the
per-core :mod:`repro.sim.control` banks translate from (word, bit)
coordinates into live warp state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import GpuConfig
from repro.arch.structures import structure_info
from repro.arch.structures import words_per_core as _words_per_core
from repro.errors import ConfigError


@dataclass(frozen=True)
class FaultPlan:
    """One scheduled storage disturbance."""

    structure: str   # any repro.arch.structures registry name
    core: int        # SM / CU index
    word: int        # word index within that core's structure
    bit: int         # 0 (LSB) .. 31: the (lowest) disturbed bit
    cycle: int       # chip cycle at/after which the fault is applied
    width: int = 1   # adjacent bits disturbed (MBU clusters: 2..4)
    stuck_value: int = -1  # -1 = flip; 0/1 = permanent stuck-at value

    def __post_init__(self):
        structure_info(self.structure)  # registry-validated, friendly error
        if not 0 <= self.bit < 32:
            raise ConfigError(f"bit {self.bit} outside 0..31")
        if self.word < 0 or self.core < 0 or self.cycle < 0:
            raise ConfigError("fault coordinates must be non-negative")
        if not 1 <= self.width <= 32:
            raise ConfigError(f"cluster width {self.width} outside 1..32")
        if self.bit + self.width > 32:
            raise ConfigError(
                f"cluster bits {self.bit}..{self.bit + self.width - 1} "
                "cross the 32-bit word boundary"
            )
        if self.stuck_value not in (-1, 0, 1):
            raise ConfigError(
                f"stuck_value {self.stuck_value} not in (-1, 0, 1)"
            )

    @property
    def is_persistent(self) -> bool:
        """True for permanent (stuck-at) faults that survive write-back."""
        return self.stuck_value >= 0

    @property
    def bit_mask(self) -> int:
        """32-bit mask of the disturbed bit cluster."""
        return ((1 << self.width) - 1) << self.bit

    def global_word(self, config: GpuConfig) -> int:
        """Word index within the whole-chip structure (core-major).

        Core-major layout: core ``c``'s words occupy the contiguous
        range ``c * words_per_core .. (c+1) * words_per_core - 1``, so
        this is ``core * words_per_core + word`` — the inverse of
        :func:`fault_from_flat`'s word arithmetic.
        """
        return self.core * words_per_core(config, self.structure) + self.word


def words_per_core(config: GpuConfig, structure: str) -> int:
    """Words of the structure per SM/CU (registry geometry).

    Raises :class:`ConfigError` for unknown structures and for
    structures the chip's ISA does not expose.
    """
    return _words_per_core(config, structure)


def fault_from_flat(config: GpuConfig, structure: str, bit_index: int,
                    cycle: int) -> FaultPlan:
    """Build a plan from a flat whole-chip bit index + cycle."""
    per_core = words_per_core(config, structure)
    total_bits = per_core * 32 * config.num_cores
    if not 0 <= bit_index < total_bits:
        raise ConfigError(f"bit index {bit_index} outside structure")
    word_global, bit = divmod(bit_index, 32)
    core, word = divmod(word_global, per_core)
    return FaultPlan(structure=structure, core=core, word=word, bit=bit,
                     cycle=cycle)


def sample_faults(config: GpuConfig, structure: str, total_cycles: int,
                  count: int, rng: np.random.Generator) -> list[FaultPlan]:
    """Draw ``count`` uniform (bit, cycle) single-bit-flip plans."""
    if total_cycles <= 0:
        raise ConfigError("total_cycles must be positive")
    per_core = words_per_core(config, structure)
    total_bits = per_core * 32 * config.num_cores
    bit_indices = rng.integers(0, total_bits, size=count)
    cycles = rng.integers(0, total_cycles, size=count)
    return [
        fault_from_flat(config, structure, int(b), int(c))
        for b, c in zip(bit_indices, cycles)
    ]
