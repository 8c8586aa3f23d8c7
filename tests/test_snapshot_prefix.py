"""Prefix images of the register file and local memory.

A storage snapshot holds only the words below the storage's ``used``
mark (every word at or past it is zero). These tests pin what that
must not change — every capture-point digest, recorded with full-array
images (``tests/fixtures/digests/README.md``) — and what it relies on:
a restore clears whatever a dirty machine holds past the prefix, and
every mutation, a fault included, raises the mark.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.checkpoint import CheckpointRecorder
from repro.checkpoint.restore import restore_machine, resume_workload
from repro.faultmodels.registry import get_fault_model
from repro.kernels.registry import KERNEL_NAMES, get_workload
from repro.kernels.workload import run_workload
from repro.sim.faults import FaultPlan
from repro.sim.gpu import Gpu
from tests.conftest import MINI_AMD, MINI_NVIDIA

#: Capture-point digests recorded with full-array storage images.
FIXTURE = Path(__file__).parent / "fixtures" / "digests" / "points.json"

CONFIGS = {"sass": MINI_NVIDIA, "si": MINI_AMD}


def _recorded(isa: str, kernel: str):
    """The golden capture points of one tiny kernel on one mini chip."""
    recorder = CheckpointRecorder("auto")
    run_workload(Gpu(CONFIGS[isa]), get_workload(kernel, "tiny"),
                 monitor=recorder)
    return recorder.snapshots().points


def capture_digests() -> dict:
    """``{isa/kernel: [[label kind, label value, digest], ...]}``."""
    return {
        f"{isa}/{kernel}": [[*point.label, point.state_digest]
                            for point in _recorded(isa, kernel)]
        for isa in sorted(CONFIGS) for kernel in KERNEL_NAMES
    }


def test_capture_digests_match_full_array_images():
    assert capture_digests() == json.loads(FIXTURE.read_text())


#: Per-core image key of each datapath structure.
STORAGES = {REGISTER_FILE: "regfile", LOCAL_MEMORY: "lmem"}


@lru_cache(maxsize=None)
def _mid_launch_point(isa: str, kernel: str):
    """The first mid-launch capture point where core 0 has written
    both its register file and its local memory."""
    for point in _recorded(isa, kernel):
        state = point.snapshot.state
        core = state["cores"][0]
        if state["active"] is not None and core["regfile"]["data"].size \
                and core["lmem"]["data"].size:
            return point
    raise AssertionError(f"no mid-launch point with written storage "
                         f"({isa}/{kernel})")


@pytest.mark.parametrize("isa", sorted(CONFIGS))
def test_restore_into_dirty_chip_clears_past_prefix(isa):
    """A prefix image restored over storage written past its prefix
    reads zero there, and the suffix run matches the whole run."""
    config, workload = CONFIGS[isa], get_workload("histogram", "tiny")
    golden = run_workload(Gpu(config), workload)
    point = _mid_launch_point(isa, "histogram")
    snapshot = point.snapshot
    dirty = Gpu(config)
    run_workload(dirty, workload)
    prefixes = [(getattr(core, key), image[key]["data"].size)
                for core, image in zip(dirty.cores, snapshot.state["cores"])
                for key in STORAGES.values()]
    assert any(storage.data[size:].any() for storage, size in prefixes)

    bases = {name: base for name, base, _ in snapshot.state["mem"]["buffers"]}
    launches = list(workload.make_launches(isa, bases))
    dirty.restore_state(snapshot.state,
                        launch=launches[snapshot.launch_index])
    for storage, size in prefixes:
        assert storage.used == size
        assert not storage.data[size:].any()
    suffix = resume_workload(dirty, workload, launches, snapshot)
    assert suffix.cycles == golden.cycles
    assert suffix.launch_cycles == golden.launch_cycles
    assert golden.outputs.keys() == suffix.outputs.keys()
    for name, words in golden.outputs.items():
        np.testing.assert_array_equal(suffix.outputs[name], words)


@pytest.mark.parametrize("model", ["transient", "mbu", "stuck_at"])
@pytest.mark.parametrize("structure", sorted(STORAGES))
@pytest.mark.parametrize("isa", sorted(CONFIGS))
def test_fault_past_golden_mark_raises_it(isa, structure, model):
    """A fault in a word the golden run never wrote lands inside the
    next image: the image grows to cover it and restores it."""
    config = CONFIGS[isa]
    point = _mid_launch_point(isa, "histogram")
    gpu, _ = restore_machine(config, get_workload("histogram", "tiny"),
                             point)
    key = STORAGES[structure]
    storage = getattr(gpu.cores[0], key)
    word = storage.num_words - 1
    assert storage.used == point.snapshot.state["cores"][0][key]["data"].size
    assert storage.used < word
    plan = FaultPlan(structure=structure, core=0, word=word, bit=3,
                     cycle=point.core_times[0] + 1,
                     width=2 if model == "mbu" else 1,
                     stuck_value=1 if model == "stuck_at" else -1)
    get_fault_model(model).apply(storage, plan)
    assert storage.used == word + 1
    image = gpu.snapshot_state()["cores"][0][key]
    assert image["data"].size == word + 1
    assert image["data"][word] == storage.data[word] != 0
    fresh = getattr(Gpu(config).cores[0], key)
    fresh.restore_state(image)
    np.testing.assert_array_equal(fresh.data, storage.data)
