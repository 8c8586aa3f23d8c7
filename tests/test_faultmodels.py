"""The pluggable fault-model subsystem.

Covers the registry, per-model sampling/application/liveness semantics,
the storage layer's stuck-at re-apply hook (idempotence under
re-application), MBU cluster geometry (never crossing a word boundary),
and the engine integration: distinct fingerprints per model, resumable
stores, and engine == pooled == frozen serial verdict equivalence.
"""

import numpy as np
import pytest

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.engine import clear_memory_cache
from repro.engine.fingerprint import fingerprint, plan_params
from repro.errors import ConfigError
from repro.faultmodels import (
    FAULT_MODELS,
    MAX_WIDTH,
    MIN_WIDTH,
    MultiBitUpset,
    StuckAt,
    TransientBitFlip,
    get_fault_model,
    list_fault_models,
)
from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.reliability.campaign import run_cell, run_matrix
from repro.reliability.fi import run_golden
from repro.reliability.liveness import FaultSiteResolver
from repro.sim.faults import FaultPlan
from repro.sim.gpu import Gpu
from repro.sim.regfile import RegisterFile
from repro.sim.sharedmem import LocalMemory
from repro.spec import CampaignSpec
from tests.conftest import (
    MINI_AMD,
    MINI_NVIDIA,
    comparable,
    fi_counts,
    sample_results,
    serial_verdict,
)


class TestRegistry:
    def test_three_models_registered(self):
        assert list_fault_models() == ["transient", "stuck_at", "mbu"]

    def test_lookup_by_name(self):
        assert isinstance(get_fault_model("transient"), TransientBitFlip)
        assert isinstance(get_fault_model("stuck_at"), StuckAt)
        assert isinstance(get_fault_model("mbu"), MultiBitUpset)

    def test_none_is_transient(self):
        assert get_fault_model(None) is get_fault_model("transient")

    def test_instance_passthrough(self):
        model = FAULT_MODELS["mbu"]
        assert get_fault_model(model) is model

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault model"):
            get_fault_model("bathtub")

    def test_persistence_flags(self):
        assert not FAULT_MODELS["transient"].persistent
        assert FAULT_MODELS["stuck_at"].persistent
        assert not FAULT_MODELS["mbu"].persistent


class TestSampling:
    def test_transient_matches_legacy_sampler(self):
        """TransientBitFlip.sample is the pre-registry sampler, verbatim."""
        from repro.sim.faults import sample_faults
        legacy = sample_faults(MINI_NVIDIA, REGISTER_FILE, 1000, 50,
                               np.random.default_rng(42))
        model = get_fault_model("transient").sample(
            MINI_NVIDIA, REGISTER_FILE, 1000, 50, np.random.default_rng(42))
        assert legacy == model

    def test_stuck_at_polarities_both_drawn(self):
        plans = get_fault_model("stuck_at").sample(
            MINI_NVIDIA, REGISTER_FILE, 1000, 200, np.random.default_rng(0))
        values = {p.stuck_value for p in plans}
        assert values == {0, 1}
        assert all(p.width == 1 and p.is_persistent for p in plans)

    def test_mbu_clusters_inside_word(self):
        """Property: no sampled cluster ever crosses a word boundary."""
        for seed in range(5):
            plans = get_fault_model("mbu").sample(
                MINI_NVIDIA, LOCAL_MEMORY, 5000, 400,
                np.random.default_rng(seed))
            for plan in plans:
                assert MIN_WIDTH <= plan.width <= MAX_WIDTH
                assert plan.bit + plan.width <= 32
                assert plan.bit_mask <= 0xFFFFFFFF
                assert not plan.is_persistent

    def test_mbu_anchor_covers_high_bits(self):
        plans = get_fault_model("mbu").sample(
            MINI_NVIDIA, REGISTER_FILE, 1000, 500, np.random.default_rng(3))
        assert max(p.bit + p.width for p in plans) == 32

    def test_sampling_deterministic_per_seed(self):
        for name in list_fault_models():
            model = get_fault_model(name)
            first = model.sample(MINI_AMD, LOCAL_MEMORY, 777, 60,
                                 np.random.default_rng(9))
            second = model.sample(MINI_AMD, LOCAL_MEMORY, 777, 60,
                                  np.random.default_rng(9))
            assert first == second, name


class TestStuckAtStorage:
    """The storage layer's permanent-overlay re-apply hook."""

    def _regfile(self):
        return RegisterFile(0, 256, 32)

    def test_force_applies_immediately(self):
        rf = self._regfile()
        rf.force_bit(10, 3, 1)
        assert rf.data[10] == 1 << 3
        rf.force_bit(11, 0, 0)
        assert rf.data[11] == 0

    def test_reapplied_after_write(self):
        rf = self._regfile()
        rf.force_bit(5, 7, 1)
        values = np.zeros(32, dtype=np.uint32)
        rf.write_row(0, values, np.ones(32, dtype=bool), (1 << 32) - 1, 0)
        assert rf.data[5] == 1 << 7

    def test_stuck_at_zero_clamps_write(self):
        rf = self._regfile()
        rf.force_bit(4, 0, 0)
        values = np.full(32, 0xFFFFFFFF, dtype=np.uint32)
        rf.write_row(0, values, np.ones(32, dtype=bool), (1 << 32) - 1, 0)
        assert rf.data[4] == 0xFFFFFFFE
        assert rf.data[3] == 0xFFFFFFFF

    def test_idempotent_under_reapplication(self):
        """Property: re-applying the overlay never changes state again."""
        rf = self._regfile()
        rf.data[:] = np.arange(256, dtype=np.uint32)
        rf.force_bit(17, 2, 1)
        rf.force_bit(17, 5, 0)
        snapshot = rf.data.copy()
        for _ in range(3):
            rf._reapply_forced()
            assert np.array_equal(rf.data, snapshot)

    def test_survives_block_reallocation(self):
        """A stuck bit is a defect: clearing rows cannot heal it."""
        rf = self._regfile()
        rf.force_bit(8, 1, 1)
        rf.clear_rows(0, 8)
        assert rf.data[8] == 1 << 1

    def test_lmem_reapplied_after_store_and_atomic(self):
        lm = LocalMemory(0, 1024)
        lm.force_bit(2, 0, 1)
        addrs = np.array([8], dtype=np.int64)
        lm.store(addrs, np.array([0], dtype=np.uint32), 0)
        assert lm.data[2] & 1
        lm.atomic_add(addrs, np.array([4], dtype=np.uint32), 1)
        assert lm.data[2] & 1

    def test_lmem_survives_clear_range(self):
        lm = LocalMemory(0, 1024)
        lm.force_bit(3, 4, 1)
        lm.clear_range(0, 1024)
        assert lm.data[3] == 1 << 4

    def test_composed_overlays_on_one_word(self):
        lm = LocalMemory(0, 256)
        lm.force_bit(1, 0, 1)
        lm.force_bit(1, 1, 0)
        lm.store(np.array([4], dtype=np.int64),
                 np.array([0xFFFFFFFF], dtype=np.uint32), 0)
        assert lm.data[1] == 0xFFFFFFFD


class TestMbuApplication:
    def test_cluster_flip_is_one_shot_xor(self):
        rf = RegisterFile(0, 128, 32)
        rf.data[6] = 0b1010
        plan = FaultPlan(REGISTER_FILE, 0, 6, bit=1, cycle=0, width=3)
        get_fault_model("mbu").apply(rf, plan)
        assert rf.data[6] == 0b1010 ^ 0b1110
        get_fault_model("mbu").apply(rf, plan)
        assert rf.data[6] == 0b1010  # XOR is its own inverse


class TestModelAwareLiveness:
    def test_write_kills_transient_but_not_stuck_at(self):
        """A write-then-read site is dead transiently, live stuck-at."""
        config = MINI_NVIDIA
        workload = get_workload("vectoradd", "tiny")
        golden = run_golden(config, workload)
        rng = np.random.default_rng(11)
        plans = get_fault_model("transient").sample(
            config, REGISTER_FILE, golden.cycles, 80, rng)

        transient = FaultSiteResolver(config, plans, fault_model="transient")
        run_workload(Gpu(config, sink=transient), workload)
        stuck = FaultSiteResolver(config, plans, fault_model="stuck_at")
        run_workload(Gpu(config, sink=stuck), workload)

        # Persistent semantics can only widen the live set.
        for plan in plans:
            if transient.is_live(plan):
                assert stuck.is_live(plan)
        widened = [p for p in plans
                   if stuck.is_live(p) and not transient.is_live(p)]
        assert widened, "expected write-then-read sites to stay live"

    def test_stuck_at_pruned_sites_truly_masked(self):
        """Pruning exactness holds under persistent semantics too."""
        config = MINI_NVIDIA
        workload = get_workload("scan", "tiny")
        golden = run_golden(config, workload)
        model = get_fault_model("stuck_at")
        plans = model.sample(config, REGISTER_FILE, golden.cycles, 40,
                             np.random.default_rng(123))
        resolver = FaultSiteResolver(config, plans, fault_model=model)
        run_workload(Gpu(config, sink=resolver), workload)
        dead = [p for p in plans if not resolver.is_live(p)]
        assert dead, "expected some prunable stuck-at faults"
        from repro.reliability.outcomes import Outcome, classify_outputs
        for plan in dead[:10]:
            gpu = Gpu(config)
            gpu.set_faults([plan], fault_model=model)
            result = run_workload(gpu, workload)
            assert classify_outputs(golden.outputs, result.outputs) \
                is Outcome.MASKED


class TestCampaignIntegration:
    @pytest.mark.parametrize("model", ["stuck_at", "mbu"])
    def test_counts_consistent(self, model):
        cell = run_cell(CampaignSpec(
            gpus=[MINI_NVIDIA], workloads=["matrixMul"], scale="tiny",
            samples=40, seed=3, fault_model=model))
        for estimate in cell.fi.values():
            assert estimate.masked + estimate.sdc + estimate.due \
                == estimate.samples
            assert estimate.resimulated == estimate.samples - estimate.pruned

    def test_transient_keyword_equals_default(self):
        """`--fault-model transient` is the pre-registry default path."""
        config = MINI_NVIDIA
        golden = run_golden(config, get_workload("vectoradd", "tiny"))
        default = sample_results(config, "vectoradd", golden, 40, 11)
        explicit = sample_results(config, "vectoradd", golden, 40, 11,
                                  fault_model="transient")
        assert len(default) == len(explicit) == 80
        for left, right in zip(default, explicit):
            assert left.plan == right.plan
            assert left.outcome == right.outcome


class TestEngineIntegration:
    @pytest.mark.parametrize("model", ["stuck_at", "mbu"])
    def test_engine_matches_serial_cell(self, model):
        clear_memory_cache()
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=["histogram"],
                            scale="tiny", samples=24, seed=5,
                            fault_model=model)
        cells = run_matrix(spec)
        frozen = serial_verdict("cells.json")[f"faultmodels/{model}"]
        assert comparable(cells[0]) == frozen["row"]
        assert fi_counts(cells[0]) == frozen["counts"]
        assert cells[0].fault_model == model

    def test_models_have_distinct_plan_fingerprints(self):
        fps = {
            model: fingerprint(
                "plan", plan_params("g" * 64, 100, 0,
                                    (REGISTER_FILE,), model))
            for model in list_fault_models()
        }
        assert len(set(fps.values())) == len(fps)

    def test_transient_fingerprint_is_legacy_fingerprint(self):
        """The default model is omitted from plan params, so transient
        fingerprints are byte-identical to the single-model era and
        existing stores resume cleanly."""
        legacy = {
            "golden": "g" * 64,
            "samples": 100,
            "seed": 0,
            "structures": [REGISTER_FILE],
        }
        assert plan_params("g" * 64, 100, 0,
                           (REGISTER_FILE,), "transient") == legacy
        assert "fault_model" in plan_params("g" * 64, 100, 0,
                                            (REGISTER_FILE,), "stuck_at")

    def test_store_shared_across_models_resumes_each(self, tmp_path):
        from repro.engine import CampaignStats
        store = tmp_path / "store.jsonl"
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=["vectoradd"],
                            scale="tiny", samples=12, seed=2)
        for model in list_fault_models():
            clear_memory_cache()
            run_matrix(spec.replace(fault_model=model), store=str(store))
        # Every model resumes fully cached from the shared store.
        for model in list_fault_models():
            clear_memory_cache()
            stats = CampaignStats()
            cells = run_matrix(spec.replace(fault_model=model),
                               store=str(store), stats=stats)
            assert stats.executed == 0, model
            assert cells[0].fault_model == model

    def test_models_do_not_collide_in_shared_store(self, tmp_path):
        """Same (gpu, workload, seed): three models, three distinct cells."""
        store = tmp_path / "store.jsonl"
        spec = CampaignSpec(gpus=[MINI_NVIDIA], workloads=["histogram"],
                            scale="tiny", samples=20, seed=7)
        by_model = {}
        for model in list_fault_models():
            clear_memory_cache()
            cells = run_matrix(spec.replace(fault_model=model),
                               store=str(store))
            by_model[model] = cells[0]
        assert len({c.fault_model for c in by_model.values()}) == 3
        # Stuck-at faults are never healed by write-back, so strictly
        # fewer sites are pruned than under the transient model.
        rf = REGISTER_FILE
        assert by_model["stuck_at"].fi[rf].pruned \
            <= by_model["transient"].fi[rf].pruned


class TestPlanRowCodec:
    def test_default_rows_are_legacy_five_element(self):
        from repro.engine.jobs import encode_plan_row
        plan = FaultPlan(REGISTER_FILE, 0, 7, 3, 100)
        assert encode_plan_row(plan, True) == [0, 7, 3, 100, True]

    def test_extended_rows_round_trip(self):
        from repro.engine.jobs import (
            encode_plan_row,
            plan_from_key,
            plan_key_from_row,
        )
        for plan in (
            FaultPlan(LOCAL_MEMORY, 1, 9, 4, 55, width=3),
            FaultPlan(REGISTER_FILE, 0, 2, 31, 8, stuck_value=1),
            FaultPlan(REGISTER_FILE, 2, 3, 0, 9, stuck_value=0),
        ):
            row = encode_plan_row(plan, False)
            assert len(row) == 7
            key = plan_key_from_row(plan.structure, row)
            assert plan_from_key(key) == plan
