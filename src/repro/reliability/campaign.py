"""Campaign orchestration: the (GPU x benchmark) evaluation matrix.

One *cell* is everything the paper measures for one chip running one
benchmark: AVF by fault injection and by ACE analysis for both target
structures, structure occupancies, the cycle count, and the EPF. The
figures (`repro.experiments.figures`) are reports over cells.

Campaigns are configured by one :class:`repro.spec.CampaignSpec`
object: :func:`repro.engine.run_campaign` runs a whole matrix on the
job-graph engine, and ``run_cell(spec)`` one cell of it, inline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.errors import ConfigError
from repro.reliability.epf import EpfResult


@dataclass
class CellResult:
    """All reliability measurements for one (GPU, benchmark) pair."""

    gpu: str
    workload: str
    scale: str
    scheduler: str
    cycles: int
    num_launches: int
    fi: dict                     # structure -> AvfEstimate
    ace: dict                    # structure -> AVF_ACE float
    occupancy: dict              # structure -> occupancy float
    epf: EpfResult | None
    golden_time_s: float
    fi_time_s: float
    samples: int
    seed: int
    uses_local_memory: bool
    fault_model: str = "transient"

    def avf_fi(self, structure: str) -> float:
        return self.fi[structure].avf if structure in self.fi else 0.0

    def avf_ace(self, structure: str) -> float:
        return self.ace.get(structure, 0.0)

    def row(self) -> dict:
        """Flat dict for CSV export."""
        rf, lm = REGISTER_FILE, LOCAL_MEMORY
        return {
            "gpu": self.gpu,
            "workload": self.workload,
            "scale": self.scale,
            "scheduler": self.scheduler,
            "fault_model": self.fault_model,
            "cycles": self.cycles,
            "launches": self.num_launches,
            "samples": self.samples,
            "avf_fi_regfile": round(self.avf_fi(rf), 6),
            "avf_ace_regfile": round(self.avf_ace(rf), 6),
            "occ_regfile": round(self.occupancy.get(rf, 0.0), 6),
            "avf_fi_localmem": round(self.avf_fi(lm), 6),
            "avf_ace_localmem": round(self.avf_ace(lm), 6),
            "occ_localmem": round(self.occupancy.get(lm, 0.0), 6),
            "sdc_regfile": self.fi[rf].sdc if rf in self.fi else 0,
            "due_regfile": self.fi[rf].due if rf in self.fi else 0,
            "sdc_localmem": self.fi[lm].sdc if lm in self.fi else 0,
            "due_localmem": self.fi[lm].due if lm in self.fi else 0,
            "epf": self.epf.epf if self.epf else float("nan"),
            "fit_gpu": self.epf.fit_gpu if self.epf else float("nan"),
            "golden_time_s": round(self.golden_time_s, 3),
            "fi_time_s": round(self.fi_time_s, 3),
        }


def run_cell(spec) -> CellResult:
    """Measure one (GPU, benchmark) cell end to end, in process.

    ``spec`` is a :class:`repro.spec.CampaignSpec` naming exactly one
    GPU and one workload. The cell runs inline on the job-graph engine
    (:func:`repro.engine.run_campaign`), with no persistent store: the
    same sampling, pruning, re-simulation and counting as every matrix
    campaign.
    """
    from repro.engine.matrix import run_campaign
    from repro.spec.campaign import require_spec
    spec = require_spec(spec, who="run_cell")
    spec.single()  # ConfigError unless exactly one GPU and one workload
    return run_campaign(spec).cells[0]


def average_cell(cells: list[CellResult], gpu: str) -> dict:
    """Per-GPU averages across benchmarks (the figures' 'average' group).

    Register-file metrics average over every benchmark; local-memory
    metrics average only over the benchmarks that allocate local memory
    (the paper's Fig. 2 subset) — benchmarks without local memory have
    a structurally-zero AVF that would otherwise dilute the average.
    """
    mine = [cell for cell in cells if cell.gpu == gpu]
    if not mine:
        raise ConfigError(f"no cells for GPU {gpu!r}")
    lmem = [cell for cell in mine if cell.uses_local_memory]

    def mean(cells_, getter):
        if not cells_:
            return 0.0
        return sum(getter(cell) for cell in cells_) / len(cells_)

    return {
        "gpu": gpu,
        "avf_fi_regfile": mean(mine, lambda c: c.avf_fi(REGISTER_FILE)),
        "avf_ace_regfile": mean(mine, lambda c: c.avf_ace(REGISTER_FILE)),
        "occ_regfile": mean(mine, lambda c: c.occupancy.get(REGISTER_FILE, 0.0)),
        "avf_fi_localmem": mean(lmem, lambda c: c.avf_fi(LOCAL_MEMORY)),
        "avf_ace_localmem": mean(lmem, lambda c: c.avf_ace(LOCAL_MEMORY)),
        "occ_localmem": mean(lmem, lambda c: c.occupancy.get(LOCAL_MEMORY, 0.0)),
    }
