"""Fast path: vector interpreter helpers and cross-sample suffix memo.

Three layers of coverage for the campaign acceleration stack:

* the :mod:`repro.sim.vector` helpers, the global-memory bounds
  check, the coalescing segment count and the SIMT stack's sequential
  flow against their reference versions (bit-exactness is the
  interpreter's whole contract);
* the interpreter against the frozen verdict of the retired per-lane
  python interpreter (``tests/fixtures/python_backend``): golden runs
  and every fault's outcome row, faulty-run cycles included. The
  frozen result stores and their zero-executed resume are
  tests/test_transparency.py's ``backend-*`` rows;
* memo parity — identical campaign outcomes with the memo on or off —
  and the :class:`repro.checkpoint.SuffixMemo` protocol itself,
  including the constructed-collision case: a primary-digest match
  whose independent secondary digest disagrees must never reuse an
  outcome.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.checkpoint import MemoRecord, SuffixMemo
from repro.checkpoint.digest import digest_machine, digest_machine_pair
from repro.engine import clear_memory_cache
from repro.errors import ConfigError, MemoryFault
from repro.kernels.registry import get_workload
from repro.reliability.campaign import run_cell
from repro.reliability.fi import resimulate_plan, run_golden
from repro.sim.faults import FaultPlan
from repro.sim.gpu import Gpu
from repro.sim.memory import GlobalMemory
from repro.sim import vector
from repro.sim.simt_stack import NO_RECONV, SimtStack
from repro.spec import CampaignSpec
from tests.conftest import MINI_AMD, MINI_NVIDIA, fi_counts, sample_results

WORKLOAD = "histogram"
#: The retired python interpreter's recorded verdict (see README.md there).
FROZEN = Path(__file__).parent / "fixtures" / "python_backend"


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

    @staticmethod
    def _reference_valid(mem, addresses):
        """The per-buffer bounds loop the searchsorted check replaced."""
        valid = np.zeros(addresses.shape, dtype=bool)
        for buffer in mem.buffers.values():
            valid |= (addresses >= buffer.base) & (addresses < buffer.end)
        return valid

    @given(sizes=st.lists(st.integers(1, 100), max_size=4),
           picks=st.lists(st.tuples(st.integers(0, 7), st.integers(-2, 2)),
                          min_size=1, max_size=40))
    def test_bounds_check_matches_reference(self, sizes, picks):
        """Below the first base, in alignment gaps, exactly at ``end``
        and with no buffer at all: the first out-of-bounds lane faults."""
        mem = GlobalMemory(capacity_bytes=1 << 16)
        buffers = [mem.alloc(f"b{i}", 4 * words)
                   for i, words in enumerate(sizes)]
        # Word-aligned probes around every boundary the check can miss.
        edges = [0, 0x1000, mem._next]
        for buffer in buffers:
            edges += [buffer.base, buffer.end, (buffer.base + buffer.end) // 2]
        addresses = np.array(
            [max(0, (edges[i % len(edges)] & ~3) + 4 * step)
             for i, step in picks], dtype=np.int64)
        valid = self._reference_valid(mem, addresses)
        if valid.all():
            mem._check(addresses, "load")
            return
        with pytest.raises(MemoryFault) as excinfo:
            mem._check(addresses, "load")
        assert excinfo.value.address == int(addresses[np.argmin(valid)])

    def test_bounds_check_without_buffers_faults(self):
        mem = GlobalMemory(capacity_bytes=1 << 16)
        with pytest.raises(MemoryFault) as excinfo:
            mem.load_words(np.array([0x1000, 0x2000]))
        assert excinfo.value.address == 0x1000

    def test_scatter_add_empty(self):
        data = np.arange(4, dtype=np.uint32)
        old = vector.scatter_add_serialized(
            data, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32))
        assert old.size == 0 and (data == np.arange(4)).all()

    @pytest.mark.parametrize("lanes", [32, 64])
    def test_segment_count_matches_unique(self, lanes):
        """Random lane addresses with duplicates, coalesced runs and
        scattered words: the set count equals ``np.unique``'s."""
        rng = np.random.default_rng(lanes)
        mem = GlobalMemory(capacity_bytes=1 << 16)
        for trial in range(200):
            span = int(rng.choice([128, 512, 4096, 1 << 16]))
            addresses = 4 * rng.integers(0, span // 4, lanes)
            addresses[rng.random(lanes) < 0.3] = addresses[0]
            addresses = addresses[:int(rng.integers(0, lanes + 1))]
            expected = np.unique(addresses // 128).size
            assert mem.segments_touched(addresses) == expected, trial


class _PropertyStack(SimtStack):
    """The SIMT stack's sequential flow as it was before direct
    ``entries[-1]`` access: every read through the ``top`` property,
    and every advance through the pop loop."""

    @property
    def top(self):
        return self.entries[-1]

    @property
    def pc(self):
        return self.top.pc

    @property
    def active_mask(self):
        return self.top.mask

    def advance(self, next_pc):
        self.top.pc = next_pc
        self._pop_reconverged()


class TestSimtStackFastPath:
    FULL = 0xFFFFFFFF

    @staticmethod
    def _same(fast, reference):
        assert fast.snapshot_state() == reference.snapshot_state()
        assert (fast.pc, fast.active_mask, fast.depth) \
            == (reference.pc, reference.active_mask, reference.depth)

    def test_nested_reconvergence_pops_several_entries_at_one_pc(self):
        stacks = (SimtStack(self.FULL), _PropertyStack(self.FULL))
        for stack in stacks:
            # Outer split at pc 0, inner split of its taken side at pc
            # 10: both reconverge at 20.
            stack.branch(0xFFFF, 10, 1, 20)
            stack.branch(0xF, 15, 11, 20)
            stack.advance(20)   # inner taken side reconverges
            stack.advance(20)   # inner fall-through: pops two entries
        self._same(*stacks)
        assert stacks[0].snapshot_state() == [
            (20, self.FULL, NO_RECONV), (1, self.FULL & ~0xFFFF, 20)]

    @pytest.mark.parametrize("seed", range(25))
    def test_random_divergence_matches_reference(self, seed):
        """Random nests of splits and jumps over shared reconvergence
        points, so single and chained pops both occur."""
        rng = random.Random(seed)
        fast, reference = SimtStack(self.FULL), _PropertyStack(self.FULL)
        for _ in range(300):
            self._same(fast, reference)
            pc, mask = reference.pc, reference.active_mask
            if rng.random() < 0.35 and reference.depth < 12:
                taken = mask & rng.getrandbits(32)
                target = rng.randrange(32)
                reconv = rng.choice([24, 28, pc + 2, NO_RECONV])
                for stack in (fast, reference):
                    stack.branch(taken, target, pc + 1, reconv)
            else:
                next_pc = rng.choice([pc + 1, 24, 28])
                for stack in (fast, reference):
                    stack.advance(next_pc)
        self._same(fast, reference)


# ----------------------------------------------------------------------
# Backend parity: the interpreter against the python interpreter's record
# ----------------------------------------------------------------------
def _outputs_digest(outputs: dict) -> str:
    """SHA-256 over every named output's dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(outputs[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestBackendParity:
    RECORD = json.loads((FROZEN / "outcome_rows.json").read_text())

    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    @pytest.mark.parametrize("model", ["transient", "stuck_at", "mbu"])
    def test_campaign_identical_across_backends(self, config, model):
        frozen = self.RECORD[f"{model}-{config.isa}"]
        structures = (REGISTER_FILE, LOCAL_MEMORY)
        golden = run_golden(config, get_workload(WORKLOAD, "tiny"))
        results = sample_results(config, WORKLOAD, golden, 10, 7,
                                 structures=structures, fault_model=model)
        cell = run_cell(CampaignSpec(
            gpus=[config], workloads=[WORKLOAD], scale="tiny", samples=10,
            seed=7, structures=structures, fault_model=model))
        assert golden.cycles == cell.cycles == frozen["golden_cycles"]
        assert _outputs_digest(golden.outputs) == \
            frozen["golden_outputs_sha256"]
        assert [[r.plan.structure, r.plan.core, r.plan.word, r.plan.bit,
                 r.plan.cycle, r.outcome.value, r.detail, r.corrupted_words,
                 r.cycles, r.early_exit] for r in results] == frozen["rows"]
        assert fi_counts(cell) == frozen["counts"]


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
    def test_non_bool_suffix_memo_rejected(self):
        with pytest.raises(ConfigError, match="suffix_memo"):
            CampaignSpec(suffix_memo="yes")

    def test_suffix_memo_defaults_on(self):
        assert CampaignSpec().resolved_suffix_memo() is True
        assert CampaignSpec(suffix_memo=False).resolved_suffix_memo() is False
