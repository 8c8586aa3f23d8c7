"""Control-structure campaigns: bit-identity and pruning soundness.

The acceptance bar of the control-site taxonomy: per-sample outcome and
cycle-count identity for every (structure x fault model x ISA)
combination across the job-graph engine, checkpointed (suffix-only) vs
from-scratch re-simulation, and the frozen verdict of the retired
serial campaign loop (``tests/fixtures/serial_campaign``) — plus proof
that every site the slot-occupancy pruning declares dead really is
masked with golden cycles.
"""

import pytest

from repro.arch.structures import CONTROL_STRUCTURES, exposed_structures
from repro.engine import clear_memory_cache, run_campaign
from repro.engine.jobs import plan_from_key, plan_key_from_row, encode_plan_row
from repro.errors import ConfigError
from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.reliability.fi import resimulate_plan, run_golden
from repro.reliability.liveness import FaultSiteResolver
from repro.reliability.outcomes import Outcome
from repro.sim.faults import FaultPlan
from repro.sim.gpu import Gpu
from repro.spec import CampaignSpec
from tests.conftest import (
    MINI_AMD,
    MINI_NVIDIA,
    comparable,
    fi_counts,
    sample_results,
    serial_verdict,
)

SAMPLES, SEED = 12, 7
WORKLOAD = "histogram"


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


def _comparable(cell):
    return comparable(cell), fi_counts(cell)


def _sample_rows(results):
    """Per-sample rows as ``sample_rows.json`` records them."""
    return [[r.plan.structure, r.plan.core, r.plan.word, r.plan.bit,
             r.plan.cycle, r.plan.width, r.plan.stuck_value,
             r.outcome.value, r.detail, r.corrupted_words, r.cycles]
            for r in results]


class TestSerialEngineCheckpointParity:
    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    @pytest.mark.parametrize("model", ["transient", "stuck_at", "mbu"])
    def test_cells_identical_across_paths(self, config, model):
        spec = CampaignSpec(gpus=[config], workloads=[WORKLOAD],
                            scale="tiny", samples=SAMPLES, seed=SEED,
                            structures=CONTROL_STRUCTURES, fault_model=model)
        engine = run_campaign(spec).cells
        clear_memory_cache()
        engine_ckpt = run_campaign(
            spec.replace(checkpoint_interval="auto")).cells
        frozen = serial_verdict("cells.json")[
            f"control_parity/{model}-{config.isa}"]
        rows = [_comparable(c) for c in engine]
        assert rows == [_comparable(c) for c in engine_ckpt]
        assert rows == [(frozen["row"], frozen["counts"])]

    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    @pytest.mark.parametrize("model", ["transient", "stuck_at", "mbu"])
    def test_per_sample_outcomes_and_cycles(self, config, model):
        """Checkpointed suffix runs match from-scratch per fault sample,
        and both match the frozen serial rows."""
        structures = exposed_structures(config, CONTROL_STRUCTURES)
        workload = get_workload(WORKLOAD, "tiny")
        plain_golden = run_golden(config, workload)
        ckpt_golden = run_golden(config, workload, checkpoint_interval=200)
        assert ckpt_golden.snapshots is not None
        plain, ckpt = (
            _sample_rows(sample_results(
                config, WORKLOAD, golden, SAMPLES, SEED,
                structures=structures, fault_model=model))
            for golden in (plain_golden, ckpt_golden))
        assert len(plain) == SAMPLES * len(structures)
        assert plain == ckpt
        assert plain == serial_verdict("sample_rows.json")[
            f"{model}-{config.isa}"]

    def test_engine_pool_matches_inline(self):
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=[WORKLOAD],
                            scale="tiny", samples=SAMPLES, seed=SEED,
                            structures=CONTROL_STRUCTURES,
                            fault_model="stuck_at")
        inline = run_campaign(spec).cells
        clear_memory_cache()
        pooled = run_campaign(
            spec.replace(shard_size=3, checkpoint_interval=200),
            workers=3).cells
        assert [_comparable(c) for c in inline] == \
            [_comparable(c) for c in pooled]


class TestSlotOccupancyPruning:
    def _resolve(self, config, plans, fault_model=None):
        workload = get_workload(WORKLOAD, "tiny")
        resolver = FaultSiteResolver(config, plans, fault_model=fault_model)
        gpu = Gpu(config, scheduler="rr", sink=resolver)
        run_workload(gpu, workload)
        return resolver

    @pytest.mark.parametrize("structure", CONTROL_STRUCTURES)
    def test_never_occupied_slot_is_dead(self, structure):
        """A site in the top hardware slot of an underfilled core."""
        config = MINI_NVIDIA
        words = config.structure_words_per_core(structure)
        per_warp = words // config.max_warps_per_core
        top_slot_word = (config.max_warps_per_core - 1) * per_warp
        plan = FaultPlan(structure=structure, core=0, word=top_slot_word,
                         bit=0, cycle=0)
        resolver = self._resolve(config, [plan])
        assert not resolver.is_live(plan)

    @pytest.mark.parametrize("structure", CONTROL_STRUCTURES)
    @pytest.mark.parametrize("model", ["transient", "stuck_at"])
    def test_fault_after_last_retirement_is_dead(self, structure, model):
        config = MINI_NVIDIA
        golden = run_golden(config, get_workload(WORKLOAD, "tiny"))
        plan = FaultPlan(structure=structure, core=0, word=0, bit=0,
                         cycle=golden.cycles * 2)
        resolver = self._resolve(config, [plan], fault_model=model)
        assert not resolver.is_live(plan)

    @pytest.mark.parametrize("structure", CONTROL_STRUCTURES)
    def test_occupied_slot_is_live(self, structure):
        plan = FaultPlan(structure=structure, core=0, word=0, bit=0, cycle=0)
        resolver = self._resolve(MINI_NVIDIA, [plan])
        assert resolver.is_live(plan)

    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    @pytest.mark.parametrize("model", ["transient", "stuck_at", "mbu"])
    def test_pruned_sites_really_are_masked(self, config, model):
        """Soundness: full re-simulation of every pruned site is MASKED
        with the golden cycle count."""
        from repro.faultmodels.registry import get_fault_model
        import numpy as np
        structures = exposed_structures(config, CONTROL_STRUCTURES)
        workload = get_workload(WORKLOAD, "tiny")
        golden = run_golden(config, workload)
        rng = np.random.default_rng(SEED)
        fm = get_fault_model(model)
        plans = [
            plan
            for structure in structures
            for plan in fm.sample(config, structure, golden.cycles,
                                  SAMPLES, rng)
        ]
        resolver = self._resolve(config, plans, fault_model=model)
        pruned = [p for p in set(plans) if not resolver.is_live(p)]
        for plan in pruned:
            result = resimulate_plan(config, workload, plan, golden.outputs,
                                     golden.cycles, golden.scheduler,
                                     fault_model=model)
            assert result.outcome is Outcome.MASKED, plan
            assert result.cycles == golden.cycles, plan


class TestEngineExposureFiltering:
    def test_unexposed_structure_skips_chip(self):
        cells = run_campaign(CampaignSpec(
            gpus=[MINI_NVIDIA, MINI_AMD], workloads=[WORKLOAD],
            scale="tiny", samples=4, seed=0,
            structures=("simt_stack",))).cells
        assert [c.gpu for c in cells] == [MINI_NVIDIA.name]

    def test_no_exposing_chip_is_friendly_error(self):
        with pytest.raises(ConfigError, match="simt_stack"):
            run_campaign(CampaignSpec(
                gpus=[MINI_AMD], workloads=[WORKLOAD], scale="tiny",
                samples=4, seed=0, structures=("simt_stack",)))

    def test_unknown_structure_is_friendly_error(self):
        with pytest.raises(ConfigError, match="known:"):
            run_campaign(CampaignSpec(
                gpus=[MINI_NVIDIA], workloads=[WORKLOAD], scale="tiny",
                samples=4, seed=0, structures=("l2_cache",)))


class TestControlPlanCodec:
    def test_plan_row_and_key_round_trip(self):
        plan = FaultPlan(structure="predicate_file", core=1, word=9, bit=4,
                         cycle=123, width=3)
        row = encode_plan_row(plan, True)
        key = plan_key_from_row(plan.structure, row)
        assert plan_from_key(key) == plan
        stuck = FaultPlan(structure="scheduler_state", core=0, word=2, bit=7,
                          cycle=55, stuck_value=1)
        key = plan_key_from_row(stuck.structure,
                                encode_plan_row(stuck, False))
        assert plan_from_key(key) == stuck
