"""Aggregate analysis of campaign cells: the paper's findings as numbers.

The paper's section III makes four qualitative claims; this module
turns a list of campaign cells into the statistics that support (or
refute) each claim, so tests (``tests/test_analysis.py``) can assert
them mechanically:

1. AVF varies strongly across benchmarks and across GPUs;
2. AVF correlates with structure occupancy;
3. ACE overestimates FI on the register file, but matches it on local
   memory;
4. EPF spans orders of magnitude and ranks chips differently than AVF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE


@dataclass(frozen=True)
class FindingsSummary:
    """Quantified versions of the paper's four findings."""

    #: max/min AVF-FI spread across benchmarks per GPU (claim 1)
    avf_spread_by_gpu: dict
    #: Pearson r of AVF-ACE vs occupancy per structure (claim 2)
    occupancy_correlation: dict
    #: mean ACE/FI ratio per structure over cells with AVF-FI > 0 (claim 3)
    mean_ace_fi_ratio: dict
    #: log10 spread of EPF across all cells (claim 4)
    epf_log10_range: tuple

    def claim_avf_varies(self, threshold: float = 3.0) -> bool:
        """Some GPU sees at least a ``threshold``-fold AVF spread."""
        return any(
            spread >= threshold
            for spread in self.avf_spread_by_gpu.values()
            if math.isfinite(spread)
        )

    def claim_avf_tracks_occupancy(self, threshold: float = 0.5) -> bool:
        return self.occupancy_correlation[REGISTER_FILE] >= threshold

    def claim_ace_overestimates_regfile(self, threshold: float = 1.1) -> bool:
        return self.mean_ace_fi_ratio[REGISTER_FILE] >= threshold

    def claim_ace_close_on_localmem(self, band: float = 0.75) -> bool:
        """Local-memory ACE/FI sits much closer to 1 than the register
        file's ratio (within ``band`` of 1 on a log scale relative to it)."""
        lm = self.mean_ace_fi_ratio[LOCAL_MEMORY]
        rf = self.mean_ace_fi_ratio[REGISTER_FILE]
        if not (math.isfinite(lm) and math.isfinite(rf)) or lm <= 0:
            return False
        return abs(math.log10(lm)) <= band * abs(math.log10(max(rf, 1.0001)))

    def claim_epf_spans_orders(self, decades: float = 1.5) -> bool:
        low, high = self.epf_log10_range
        return math.isfinite(low) and (high - low) >= decades


def ace_fi_ratios(cells: list, structure: str) -> list:
    """(gpu, workload, ACE/FI) for every cell with a non-zero FI AVF."""
    rows = []
    for cell in cells:
        if structure not in cell.fi:
            continue
        fi = cell.avf_fi(structure)
        if fi > 0:
            rows.append((cell.gpu, cell.workload, cell.avf_ace(structure) / fi))
    return rows


def avf_occupancy_correlation(cells: list, structure: str,
                              use_ace: bool = True) -> float:
    """Pearson correlation between AVF and occupancy across cells."""
    pairs = [
        (
            cell.avf_ace(structure) if use_ace else cell.avf_fi(structure),
            cell.occupancy.get(structure, 0.0),
        )
        for cell in cells
        if structure in (cell.ace if use_ace else cell.fi)
    ]
    if len(pairs) < 3:
        raise ValueError("need at least 3 cells for a correlation")
    avfs, occs = zip(*pairs)
    if max(avfs) == min(avfs) or max(occs) == min(occs):
        return 0.0
    from scipy import stats  # slow to load; campaigns never correlate

    r, _p = stats.pearsonr(avfs, occs)
    return float(r)


def summarize(cells: list) -> FindingsSummary:
    """Build the findings summary from a campaign's cells."""
    by_gpu: dict = {}
    for cell in cells:
        by_gpu.setdefault(cell.gpu, []).append(cell)

    spread = {}
    for gpu, mine in by_gpu.items():
        avfs = [c.avf_fi(REGISTER_FILE) for c in mine
                if REGISTER_FILE in c.fi and c.avf_fi(REGISTER_FILE) > 0]
        spread[gpu] = (max(avfs) / min(avfs)) if len(avfs) >= 2 else float("nan")

    correlation = {}
    for structure in (REGISTER_FILE, LOCAL_MEMORY):
        eligible = [c for c in cells if structure in c.ace]
        correlation[structure] = (
            avf_occupancy_correlation(eligible, structure)
            if len(eligible) >= 3 else float("nan")
        )

    ratios = {}
    for structure in (REGISTER_FILE, LOCAL_MEMORY):
        rows = ace_fi_ratios(cells, structure)
        values = [r for _, _, r in rows if math.isfinite(r)]
        ratios[structure] = (
            sum(values) / len(values) if values else float("nan")
        )

    epfs = [c.epf.epf for c in cells
            if c.epf and math.isfinite(c.epf.epf) and c.epf.epf > 0]
    if epfs:
        epf_range = (math.log10(min(epfs)), math.log10(max(epfs)))
    else:
        epf_range = (float("nan"), float("nan"))

    return FindingsSummary(
        avf_spread_by_gpu=spread,
        occupancy_correlation=correlation,
        mean_ace_fi_ratio=ratios,
        epf_log10_range=epf_range,
    )
