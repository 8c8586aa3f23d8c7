"""Mutation check: each listed one-line mutant must fail its tests.

Every entry of :data:`MUTANTS` replaces one line of ``src/`` in a
temporary copy of ``src/`` and ``tests/`` and runs a named subset of the
tier-1 suite there. The mutant is *killed* when that subset fails. The list
records what the tests are known to catch, so every entry must stay
killed: the script exits 1 if a mutant survives, if its line is no
longer found exactly once, or if the subset already fails unmutated.
Never loosen a test to let a mutant pass; a new entry goes in only once
some test kills it.

Stdlib only. Each run costs a few seconds per mutant::

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    #: What the mutant breaks, in one line.
    breaks: str
    #: Repository-relative file and the exact line text it replaces.
    path: str
    old: str
    new: str
    #: pytest node ids that must fail under the mutant.
    tests: tuple


_FAULT_TIMING = (
    "tests/test_fault_injection.py::TestVectoraddRegisterFaults",
    "tests/test_fault_injection.py::TestTransposeLocalMemoryFaults",
    "tests/test_fault_injection.py::TestVectoraddPredicateFaults",
    "tests/test_fault_injection.py::TestVectoraddVccFaults",
)

MUTANTS = (
    Mutant(
        name="fault-timing-lt",
        breaks="a fault planned for cycle c lands after the instruction "
               "issued at c instead of before it",
        path="src/repro/sim/core.py",
        old="               and self._faults[self._fault_pos].cycle <= cycle):",
        new="               and self._faults[self._fault_pos].cycle < cycle):",
        tests=_FAULT_TIMING,
    ),
    Mutant(
        name="fault-guard-gt",
        breaks="the issue loop consults the fault plans only after the "
               "planned cycle, so a fault lands one issue late",
        path="src/repro/sim/core.py",
        old="        if t_issue >= self._next_fault_cycle:",
        new="        if t_issue > self._next_fault_cycle:",
        tests=_FAULT_TIMING,
    ),
    Mutant(
        name="regfile-all-lanes-always",
        breaks="every register write stores all lanes, so a divergent "
               "write clobbers its inactive lanes",
        path="src/repro/sim/regfile.py",
        old="        if mask == self._all_lanes:",
        new="        if True:",
        tests=("tests/test_storage.py::TestRegisterFile::test_masked_write",),
    ),
    Mutant(
        name="simt-advance-never-pops",
        breaks="sequential flow never pops a reconverged SIMT-stack entry",
        path="src/repro/sim/simt_stack.py",
        old="        if next_pc == top.reconv:",
        new="        if False:",
        tests=("tests/test_simt_stack.py",
               "tests/test_fastpath.py::TestSimtStackFastPath"),
    ),
    Mutant(
        name="si-exec-ignored",
        breaks="SI vector instructions run on every valid lane whatever "
               "EXEC holds",
        path="src/repro/sim/si_core.py",
        old="        eff_mask = self.eff_mask = wave.exec_mask & wave.valid_mask",
        new="        eff_mask = self.eff_mask = wave.valid_mask",
        tests=("tests/test_fault_injection.py::TestVectoraddVccFaults",),
    ),
    Mutant(
        name="regfile-flip-bit0",
        breaks="a register-file bit flip always hits bit 0",
        path="src/repro/sim/regfile.py",
        old="        self.data[word] ^= np.uint32(mask & 0xFFFFFFFF)",
        new="        self.data[word] ^= np.uint32(1)",
        tests=(_FAULT_TIMING[0],),
    ),
    Mutant(
        name="lmem-flip-bit0",
        breaks="a local-memory bit flip always hits bit 0",
        path="src/repro/sim/sharedmem.py",
        old="        self.data[word] ^= np.uint32(mask & 0xFFFFFFFF)",
        new="        self.data[word] ^= np.uint32(1)",
        tests=(_FAULT_TIMING[1],),
    ),
    Mutant(
        name="regfile-write-keeps-mark",
        breaks="a register write leaves the used mark, so snapshots drop "
               "the rows written past it",
        path="src/repro/sim/regfile.py",
        old="            self.used = stop",
        new="            pass",
        tests=("tests/test_snapshot_prefix.py::"
               "test_capture_digests_match_full_array_images",),
    ),
    Mutant(
        name="regfile-restore-keeps-tail",
        breaks="restoring a register-file image leaves the words past its "
               "prefix as the machine held them",
        path="src/repro/sim/regfile.py",
        old="        self.data[used:self.used] = 0",
        new="        pass",
        tests=("tests/test_snapshot_prefix.py::"
               "test_restore_into_dirty_chip_clears_past_prefix",),
    ),
    Mutant(
        name="sass-pred-write-bit0",
        breaks="a SASS predicate-file write gives every lane bit 0 of the "
               "word, so a lane's flip lands on no lane or on all",
        path="src/repro/sim/control.py",
        old="            (value >> np.arange(width, dtype=np.uint64)) & 1",
        new="            (value >> np.zeros(width, dtype=np.uint64)) & 1",
        tests=(_FAULT_TIMING[2],),
    ),
    Mutant(
        name="number-check-allows-nonfinite",
        breaks="a spec's number check accepts NaN and infinity, so a NaN "
               "lease TTL never expires",
        path="src/repro/spec/campaign.py",
        old="    if not math.isfinite(value) or value <= 0:",
        new="    if value <= 0:",
        tests=("tests/test_spec_table.py::TestNonFiniteNumbers",),
    ),
    Mutant(
        name="fetch-bound-le",
        breaks="the fetch bounds check lets pc == len(program) through",
        path="src/repro/sim/core.py",
        old="        if not 0 <= pc < len(decoded):",
        new="        if not 0 <= pc <= len(decoded):",
        tests=("tests/test_control_structures.py::TestFetchHardening",),
    ),
    Mutant(
        name="shared-addrs-no-base",
        breaks="shared accesses ignore the block's local-memory base",
        path="src/repro/sim/core.py",
        old="        return addresses + self._warp.block.lmem_base",
        new="        return addresses",
        tests=(_FAULT_TIMING[1],),
    ),
    Mutant(
        name="gmem-check-left",
        breaks="a global access at exactly a buffer's base faults",
        path="src/repro/sim/memory.py",
        old='        idx = np.searchsorted(self._bases, addresses, side="right") - 1',
        new='        idx = np.searchsorted(self._bases, addresses, side="left") - 1',
        tests=("tests/test_memory.py::TestDeviceAccess",),
    ),
    Mutant(
        name="gmem-fast-end-le",
        breaks="the one-buffer bounds check lets an access at exactly "
               "the buffer's end through",
        path="src/repro/sim/memory.py",
        old="        if first >= 0 and int(addresses.max()) < self._end_list[first]:",
        new="        if first >= 0 and int(addresses.max()) <= self._end_list[first]:",
        tests=("tests/test_memory.py::TestDeviceAccess",),
    ),
    Mutant(
        name="segments-count-lanes",
        breaks="the coalescing metric counts lanes instead of distinct "
               "segments",
        path="src/repro/sim/memory.py",
        old="        return len(set(segments.tolist()))",
        new="        return len(segments.tolist())",
        tests=("tests/test_memory.py::TestDeviceAccess::test_segments_touched",
               "tests/test_fastpath.py::TestVectorHelpers::"
               "test_segment_count_matches_unique"),
    ),
    Mutant(
        name="regfile-size-fixed",
        breaks="the register file's AVF denominator ignores the chip's "
               "registers per core",
        path="src/repro/arch/structures.py",
        old="        return config.registers_per_core",
        new="        return 32 * 1024",
        tests=("tests/test_analysis.py::TestSectionIIIClaims::"
               "test_larger_register_file_does_not_raise_avf",),
    ),
    Mutant(
        name="digest-drops-lmem-base",
        breaks="the state digest ignores a block's local-memory base",
        path="src/repro/checkpoint/digest.py",
        old="    return (_ints((linear_id, reg_base_row, lmem_base, unfinished)),",
        new="    return (_ints((linear_id, reg_base_row, unfinished)),",
        tests=("tests/test_digest.py::test_field_changes_digest",),
    ),
    Mutant(
        name="convergence-always-matches",
        breaks="every timing-matched state counts as converged to golden",
        path="src/repro/checkpoint/convergence.py",
        old="            if mine == point.state_digest:",
        new="            if True:",
        tests=("tests/test_checkpoint.py::TestLazyGoldenDigest",),
    ),
    Mutant(
        name="resolver-skips-fault-cycle",
        breaks="the liveness resolver ignores an access at the fault's own "
               "cycle, so a site read there can resolve dead",
        path="src/repro/reliability/liveness.py",
        old="            if plan.cycle > cycle or not lane_test(plan):",
        new="            if plan.cycle >= cycle or not lane_test(plan):",
        tests=("tests/test_liveness.py::TestResolver", *_FAULT_TIMING),
    ),
    Mutant(
        name="ipdom-keeps-first-successor",
        breaks="the post-dominator intersect keeps the first processed "
               "successor instead of walking both fingers up the tree",
        path="src/repro/isa/sass/cfg.py",
        old="                    new = succ if new is None else _meet(succ, new, ipdom, rank)",
        new="                    new = succ if new is None else new",
        tests=("tests/test_cfg.py",),
    ),
    Mutant(
        name="replay-drops-slot-frees",
        breaks="replaying a golden access trace drops its warp-slot frees, "
               "so occupied control sites resolve dead",
        path="src/repro/sim/tracing.py",
        old="                    sink.on_warp_slot_free(cycle, core, arg)",
        new="                    pass",
        tests=("tests/test_trace_replay.py",),
    ),
    Mutant(
        name="replay-skips-lmem",
        breaks="replaying a golden access trace skips its local-memory "
               "accesses, so read lmem sites resolve dead",
        path="src/repro/sim/tracing.py",
        old="                    sink.on_lmem_access(cycle, core, words[lo:hi], is_write)",
        new="                    pass",
        tests=("tests/test_trace_replay.py",),
    ),
    Mutant(
        name="pool-drops-profile",
        breaks="pooled jobs of a profiled campaign run unprofiled, so "
               "their cells report only the driver-side reduction",
        path="src/repro/engine/scheduler.py",
        old="        return self._pool.submit(run_resident, job.worker, args, profile,",
        new="        return self._pool.submit(run_resident, job.worker, args, False,",
        tests=("tests/test_transparency.py::"
               "test_profile_covers_the_cell_work[profile-workers]",),
    ),
    Mutant(
        name="plan-skips-resident-trace",
        breaks="a plan job ignores the golden trace resident in its "
               "process and simulates the golden again",
        path="src/repro/engine/jobs.py",
        old='        trace = _golden_artifact("_trace", golden_fp, golden_args)',
        new='        trace = _simulate_golden(golden_fp, *golden_args)["_trace"]',
        tests=("tests/test_transparency.py::"
               "test_service_simulates_each_golden_once",),
    ),
)


def _copy_repo(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=1800,
    )


def _mutate(text: str, mutant: Mutant) -> str:
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutant.old]
    if len(hits) != 1:
        raise SystemExit(
            f"{mutant.name}: expected one line {mutant.old.strip()!r} in "
            f"{mutant.path}, found {len(hits)}")
    lines[hits[0]] = mutant.new
    return "\n".join(lines)


def run(mutants) -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy_repo(copy)
        subset = sorted({test for m in mutants for test in m.tests})
        baseline = _pytest(copy, subset)
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:])
            print("unmutated subset fails; no mutant can be judged")
            return 1
        for mutant in mutants:
            target = copy / mutant.path
            original = target.read_text()
            target.write_text(_mutate(original, mutant))
            try:
                result = _pytest(copy, mutant.tests)
            finally:
                target.write_text(original)
            killed = result.returncode != 0
            print(f"{'killed ' if killed else 'SURVIVED'} {mutant.name}: "
                  f"{mutant.breaks}")
            if not killed:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


def main() -> int:
    return run(MUTANTS)


if __name__ == "__main__":
    sys.exit(main())
