"""Fast path: vector backend helpers and cross-sample suffix memo.

Three layers of coverage for the campaign acceleration stack:

* the :mod:`repro.sim.vector` helpers against their per-lane reference
  loops (bit-exactness is the backend's whole contract);
* backend and memo *parity* — identical campaign outcomes with the
  fast path on or off (store-level parity and the zero-executed
  cross-backend resume are tests/test_transparency.py);
* the :class:`repro.checkpoint.SuffixMemo` protocol itself, including
  the ISSUE-mandated constructed-collision case: a primary-digest
  match whose independent secondary digest disagrees must never reuse
  an outcome.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.checkpoint import MemoRecord, SuffixMemo
from repro.checkpoint.digest import digest_machine, digest_machine_pair
from repro.engine import clear_memory_cache
from repro.errors import ConfigError
from repro.kernels.registry import get_workload
from repro.reliability.fi import resimulate_plan, run_fi_campaign, run_golden
from repro.sim.faults import FaultPlan
from repro.sim.gpu import Gpu
from repro.sim import vector
from repro.spec import CampaignSpec
from tests.conftest import MINI_AMD, MINI_NVIDIA

WORKLOAD = "histogram"


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_memory_cache()
    vector.clear_caches()
    yield
    clear_memory_cache()
    vector.clear_caches()


# ----------------------------------------------------------------------
# Vector helpers vs their reference loops
# ----------------------------------------------------------------------
class TestVectorHelpers:
    @pytest.mark.parametrize("width", [32, 64, 20])
    def test_mask_round_trip(self, width):
        rng = np.random.default_rng(width)
        masks = [0, 1, (1 << width) - 1, 1 << (width - 1)]
        # Compose from 32-bit halves: numpy bounds cap at int64.
        masks += [
            (int(hi) << 32 | int(lo)) & ((1 << width) - 1)
            for hi, lo in rng.integers(0, 1 << 32, (16, 2),
                                       dtype=np.uint64)
        ]
        for mask in masks:
            bools = vector.mask_to_bools(mask, width)
            reference = [bool((mask >> lane) & 1) for lane in range(width)]
            assert bools.tolist() == reference
            assert vector.bools_to_mask(bools) == mask

    def test_mask_arrays_cached_and_read_only(self):
        first = vector.mask_to_bools(0b1011, 32)
        assert vector.mask_to_bools(0b1011, 32) is first
        with pytest.raises(ValueError):
            first[0] = False

    def test_const_u32_cached_and_read_only(self):
        arr = vector.const_u32(32, 7)
        assert arr.dtype == np.uint32 and (arr == 7).all()
        assert vector.const_u32(32, 7) is arr
        with pytest.raises(ValueError):
            arr[0] = 0
        # Full-range values must survive the uint32 representation.
        assert (vector.const_u32(8, 0xFFFFFFFF) == 0xFFFFFFFF).all()

    def test_const_bool(self):
        assert vector.const_bool(64, True).all()
        assert not vector.const_bool(64, False).any()

    @staticmethod
    def _reference_scatter(data, index, values):
        data = data.copy()
        old = np.empty(index.size, dtype=np.uint32)
        for lane, (i, v) in enumerate(zip(index, values)):
            old[lane] = data[i]
            data[i] = (int(data[i]) + int(v)) & 0xFFFFFFFF
        return data, old

    @pytest.mark.parametrize("case", ["unique", "duplicates", "wraparound"])
    def test_scatter_add_matches_reference(self, case):
        rng = np.random.default_rng(hash(case) % 2**32)
        n, size = 64, 16
        if case == "unique":
            index = rng.permutation(size)[:size].astype(np.int64)
            n = size
        else:
            index = rng.integers(0, size, n)
        if case == "wraparound":
            values = rng.integers(0xFFFF0000, 0x100000000, n,
                                  dtype=np.uint64).astype(np.uint32)
            data = np.full(size, 0xFFFFFF00, dtype=np.uint32)
        else:
            values = rng.integers(0, 1000, n).astype(np.uint32)
            data = rng.integers(0, 1 << 32, size,
                                dtype=np.uint64).astype(np.uint32)
        expect_data, expect_old = self._reference_scatter(data, index, values)
        got = data.copy()
        old = vector.scatter_add_serialized(got, index, values)
        assert (got == expect_data).all()
        assert (old == expect_old).all()

    def test_scatter_add_empty(self):
        data = np.arange(4, dtype=np.uint32)
        old = vector.scatter_add_serialized(
            data, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32))
        assert old.size == 0 and (data == np.arange(4)).all()


# ----------------------------------------------------------------------
# Backend parity: python and vector interpreters, identical campaigns
# ----------------------------------------------------------------------
def _outcome_rows(campaign):
    rows = [
        (r.plan.structure, r.plan.core, r.plan.word, r.plan.bit,
         r.plan.cycle, r.outcome, r.detail, r.corrupted_words,
         r.cycles, r.early_exit)
        for r in campaign.results
    ]
    counts = {
        s: (e.masked, e.sdc, e.due, e.pruned, e.resimulated)
        for s, e in campaign.estimates.items()
    }
    return rows, counts


class TestBackendParity:
    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    @pytest.mark.parametrize("model", ["transient", "stuck_at", "mbu"])
    def test_campaign_identical_across_backends(self, config, model):
        workload = get_workload(WORKLOAD, "tiny")
        by_backend = {}
        for backend in ("python", "vector"):
            cfg = dataclasses.replace(config, backend=backend)
            golden = run_golden(cfg, workload)
            campaign = run_fi_campaign(
                cfg, workload, golden, samples=10, seed=7,
                structures=(REGISTER_FILE, LOCAL_MEMORY),
                fault_model=model, suffix_memo=False, keep_results=True)
            by_backend[backend] = (golden.outputs, golden.cycles,
                                   _outcome_rows(campaign))
        py, vec = by_backend["python"], by_backend["vector"]
        assert sorted(py[0]) == sorted(vec[0])
        assert all(np.array_equal(py[0][k], vec[0][k]) for k in py[0])
        assert py[1:] == vec[1:]


# ----------------------------------------------------------------------
# SuffixMemo protocol units
# ----------------------------------------------------------------------
_LABEL = ("interval", 100)
_TIMES = (100, 100)
_RECORD = MemoRecord(outcome="sdc", detail="", corrupted_words=3,
                     cycles=1234, early_exit=False)


class TestSuffixMemo:
    def test_should_digest_gates_first_bucket_visit(self):
        memo = SuffixMemo()
        assert memo.should_digest(_LABEL, _TIMES) is False
        assert memo.should_digest(_LABEL, _TIMES) is True
        # A different bucket starts cold again.
        assert memo.should_digest(_LABEL, (100, 101)) is False

    def test_observe_commit_then_hit(self):
        memo = SuffixMemo()
        memo.begin_run()
        assert memo.observe(_LABEL, _TIMES, "p1", "s1") is None
        memo.commit(_RECORD)
        memo.begin_run()
        record = memo.observe(_LABEL, _TIMES, "p1", "s1")
        assert record == _RECORD
        assert memo.hits == 1 and memo.collisions == 0

    def test_constructed_collision_is_a_miss(self):
        """Equal primary digest + different secondary: never reuse."""
        memo = SuffixMemo()
        memo.begin_run()
        memo.observe(_LABEL, _TIMES, "shared-primary", "secondary-A")
        memo.commit(_RECORD)
        memo.begin_run()
        got = memo.observe(_LABEL, _TIMES, "shared-primary", "secondary-B")
        assert got is None
        assert memo.collisions == 1 and memo.hits == 0
        # The colliding observation joins no trail: committing this run
        # must not overwrite the stored entry with the wrong secondary.
        memo.commit(MemoRecord("due", "x", 0, 1, False))
        memo.begin_run()
        assert memo.observe(_LABEL, _TIMES, "shared-primary",
                            "secondary-A") == _RECORD

    def test_entry_cap_drops_new_entries(self):
        memo = SuffixMemo(max_entries=1)
        memo.begin_run()
        memo.observe(_LABEL, _TIMES, "p1", "s1")
        memo.observe(_LABEL, (1, 2), "p2", "s2")
        memo.commit(_RECORD)
        assert len(memo) == 1

    def test_digest_pair_primary_matches_single_digest(self):
        """The pair's first digest is byte-identical to digest_machine."""
        state = Gpu(MINI_NVIDIA).snapshot_state()
        primary, secondary = digest_machine_pair(0, [], state)
        assert primary == digest_machine(0, [], state)
        assert secondary != primary


# ----------------------------------------------------------------------
# Memo against real campaigns
# ----------------------------------------------------------------------
class TestMemoCampaign:
    def test_memo_hits_and_identical_outcomes(self):
        """Same-site stuck-at defects sampled at different cycles share
        a quiescent state; with the bucket gate, the third-and-later
        runs hit the memo. Outcomes must equal the memo-off runs."""
        config = MINI_NVIDIA
        workload = get_workload(WORKLOAD, "tiny")
        golden = run_golden(config, workload, checkpoint_interval=50)
        assert golden.snapshots is not None
        plans = [
            FaultPlan(structure=REGISTER_FILE, core=0, word=5, bit=3,
                      cycle=cycle, stuck_value=1)
            for cycle in (20, 25, 30, 35, 40)
        ]
        plain = [
            resimulate_plan(config, workload, plan, golden.outputs,
                            golden.cycles, golden.scheduler,
                            fault_model="stuck_at",
                            snapshots=golden.snapshots)
            for plan in plans
        ]
        memo = SuffixMemo()
        memoized = [
            resimulate_plan(config, workload, plan, golden.outputs,
                            golden.cycles, golden.scheduler,
                            fault_model="stuck_at",
                            snapshots=golden.snapshots, memo=memo)
            for plan in plans
        ]
        def comparable(results):
            return [(r.outcome, r.detail, r.corrupted_words, r.cycles)
                    for r in results]
        assert comparable(memoized) == comparable(plain)
        assert memo.hits >= 1
        assert memo.stats()["entries"] > 0

    def test_memo_inert_without_snapshots(self):
        """No checkpointed golden run: the memo is silently bypassed."""
        config = MINI_NVIDIA
        workload = get_workload(WORKLOAD, "tiny")
        golden = run_golden(config, workload)
        memo = SuffixMemo()
        plan = FaultPlan(structure=REGISTER_FILE, core=0, word=5, bit=3,
                         cycle=20, stuck_value=1)
        resimulate_plan(config, workload, plan, golden.outputs,
                        golden.cycles, golden.scheduler,
                        fault_model="stuck_at", snapshots=None, memo=memo)
        assert memo.stats() == {"hits": 0, "misses": 0, "collisions": 0,
                                "entries": 0}


# ----------------------------------------------------------------------
# Spec-level validation and resolution
# ----------------------------------------------------------------------
class TestSpecFastPathFields:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            CampaignSpec(backend="cuda")

    def test_non_bool_suffix_memo_rejected(self):
        with pytest.raises(ConfigError, match="suffix_memo"):
            CampaignSpec(suffix_memo="yes")

    def test_backend_override_applies_to_resolved_gpus(self):
        spec = CampaignSpec(gpus=(MINI_NVIDIA,), backend="python")
        assert [g.backend for g in spec.resolved_gpus()] == ["python"]

    def test_suffix_memo_defaults_on(self):
        assert CampaignSpec().resolved_suffix_memo() is True
        assert CampaignSpec(suffix_memo=False).resolved_suffix_memo() is False
