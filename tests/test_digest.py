"""Field sensitivity of the canonical machine-state digest.

The early-exit check and the suffix memo are only sound if the digest
sees every field that can influence the future, and only useful if it
ignores the ones that cannot. Each test here edits one field of a real
mid-launch machine image (one per ISA) and checks both digest
functions against the unedited image.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np
import pytest

from repro.checkpoint import CheckpointRecorder
from repro.checkpoint.digest import digest_machine, digest_machine_pair
from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.sim.gpu import Gpu
from tests.conftest import MINI_AMD, MINI_NVIDIA

#: Both digest functions, as tuples of hex digests.
DIGESTS = {
    "single": lambda *args: (digest_machine(*args),),
    "pair": digest_machine_pair,
}


ISAS = ("sass", "si")


@lru_cache(maxsize=None)
def _image(isa: str):
    """(launch_index, launch_cycles, state) of a mid-launch capture
    whose first core has a resident block and dead storage inside the
    image's stored prefix."""
    config = MINI_NVIDIA if isa == "sass" else MINI_AMD
    recorder = CheckpointRecorder("auto")
    run_workload(Gpu(config), get_workload("histogram", "tiny"),
                 monitor=recorder)
    for point in recorder.snapshots().points:
        snapshot = point.snapshot
        core = snapshot.state["cores"][0]
        if snapshot.state["active"] is not None and core["blocks"] \
                and core["live_reg"] and core["live_lmem"] \
                and _dead_word(core, "regfile", "live_reg") is not None \
                and _dead_word(core, "lmem", "live_lmem") is not None:
            return (snapshot.launch_index, list(snapshot.launch_cycles),
                    snapshot.state)
    raise AssertionError("no mid-launch image with dead storage")


def _dead_word(core: dict, storage: str, live: str):
    """An index of the stored prefix ``core[storage]["data"]`` outside
    every live range, or None."""
    dead = np.ones(core[storage]["data"].size, dtype=bool)
    for start, nwords in core[live]:
        dead[start:start + nwords] = False
    hits = np.flatnonzero(dead)
    return int(hits[-1]) if hits.size else None


@pytest.fixture(params=sorted(DIGESTS))
def digest(request):
    return DIGESTS[request.param]


def _edited(image, edit):
    """Digest args of a deep copy of ``image`` after ``edit(state)``."""
    launch_index, launch_cycles, state = copy.deepcopy(image)
    edit(state)
    return launch_index, launch_cycles, state


def _core(state):
    return state["cores"][0]


def _block(state):
    return _core(state)["blocks"][0]


def _warp(state):
    return _block(state)["warps"][0]


def _flip(array, position):
    array[position] = array[position] ^ 1


def _bump(container, key):
    container[key] = container[key] + 1


def _bump_at(where, key):
    """Edit adding one to ``where(state)[key]``."""
    def edit(state):
        _bump(where(state), key)
    return edit


def _flip_live(storage, live):
    def edit(state):
        start, _ = _core(state)[live][0]
        _flip(_core(state)[storage]["data"], start)
    return edit


def _flip_dead(storage, live):
    def edit(state):
        core = _core(state)
        _flip(core[storage]["data"], _dead_word(core, storage, live))
    return edit


def _force(*path):
    def edit(state):
        target = _core(state)
        for key in path:
            target = target[key]
        target[7] = (0xFFFFFFFE, 0)
    return edit


def _bump_pending(state):
    state["active"]["pending"].append((99, (9, 0, 0)))


def _bump_heap(state):
    time, core = state["active"]["heap"][0]
    state["active"]["heap"][0] = (time + 1, core)


def _bump_stack(state):
    pc, mask, reconv = _warp(state)["stack"][0]
    _warp(state)["stack"][0] = (pc, mask ^ 1, reconv)


def _flip_pred(state):
    preds = _warp(state)["preds"]
    preds[0, 0] = not preds[0, 0]


def _toggle(key):
    def edit(state):
        warp = _warp(state)
        warp[key] = not warp[key]
    return edit


#: Edits every image must notice, whatever its ISA.
SENSITIVE = {
    "global_memory_word": lambda s: _flip(s["mem"]["words"], 0),
    "mem_next": lambda s: _bump(s["mem"], "next"),
    "mem_buffers": lambda s: s["mem"]["buffers"].pop(),
    "live_register_word": _flip_live("regfile", "live_reg"),
    "live_lmem_word": _flip_live("lmem", "live_lmem"),
    "regfile_forced": _force("regfile", "forced"),
    "lmem_forced": _force("lmem", "forced"),
    "control_forced": _force("control", "scheduler_state", "forced"),
    "free_reg_slots": lambda s: _core(s)["free_reg_slots"].append(256),
    "free_lmem_slots": lambda s: _core(s)["free_lmem_slots"].append(256),
    "free_warp_slots": lambda s: _core(s)["free_warp_slots"].append(63),
    "active_start": lambda s: _bump(s["active"], "start"),
    "active_pending": _bump_pending,
    "active_heap": _bump_heap,
    "chip_cycle": lambda s: _bump(s, "chip_cycle"),
    "launches_run": lambda s: _bump(s, "launches_run"),
    "block_index": lambda s: _block(s).update(index=(9, 9, 9)),
    "at_barrier": _toggle("at_barrier"),
    **{f"core_{key}": _bump_at(_core, key)
       for key in ("time", "issue_free", "last_issued", "blocks_retired",
                   "warp_counter")},
    **{f"block_{key}": _bump_at(_block, key)
       for key in ("linear_id", "reg_base_row", "lmem_base", "unfinished")},
    **{f"warp_{key}": _bump_at(_warp, key)
       for key in ("wid", "lane_offset", "nlanes", "reg_base_row",
                   "hw_slot", "ready_cycle", "last_issue",
                   "barrier_arrival")},
}

#: ISA-specific edits the image must notice.
SENSITIVE_BY_ISA = {
    "sass": {
        "preds": _flip_pred,
        "simt_stack_entry": _bump_stack,
        "simt_stack_depth": lambda s: _warp(s)["stack"].pop(),
    },
    "si": {
        "sgprs": lambda s: _flip(_warp(s)["sgprs"], 0),
        "scc": _toggle("scc"),
        "finished": _toggle("finished"),
        **{f"wave_{key}": _bump_at(_warp, key)
           for key in ("pc", "valid_mask", "exec_mask", "vcc")},
    },
}

#: Edits that cannot influence the future, which the digest must ignore.
INSENSITIVE = {
    "dead_register_word": _flip_dead("regfile", "live_reg"),
    "dead_lmem_word": _flip_dead("lmem", "live_lmem"),
    "instructions_issued": lambda s: _bump(_core(s), "instructions_issued"),
}


@pytest.mark.parametrize("isa,name", [
    (isa, name) for isa in ISAS
    for name in sorted(SENSITIVE) + sorted(SENSITIVE_BY_ISA[isa])])
def test_field_changes_digest(digest, isa, name):
    edit = SENSITIVE.get(name) or SENSITIVE_BY_ISA[isa][name]
    before = digest(*_image(isa))
    after = digest(*_edited(_image(isa), edit))
    assert all(a != b for a, b in zip(before, after)), name


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("name", sorted(INSENSITIVE))
def test_dead_state_keeps_digest(digest, isa, name):
    args = _image(isa)
    assert digest(*_edited(args, INSENSITIVE[name])) == digest(*args)


@pytest.mark.parametrize("isa", ISAS)
def test_launch_progress_changes_digest(digest, isa):
    launch_index, launch_cycles, state = _image(isa)
    before = digest(launch_index, launch_cycles, state)
    assert digest(launch_index + 1, launch_cycles, state) != before
    assert digest(launch_index, launch_cycles + [1], state) != before


@pytest.mark.parametrize("isa", ISAS)
def test_numpy_and_python_ints_digest_alike(digest, isa):
    args = _image(isa)

    def widen(state):
        state["chip_cycle"] = np.int64(state["chip_cycle"])
        core = _core(state)
        core["time"] = np.int64(core["time"])
        core["free_warp_slots"] = [np.int32(s) for s in
                                   core["free_warp_slots"]]
        _block(state)["linear_id"] = np.int64(_block(state)["linear_id"])
        warp = _warp(state)
        warp["hw_slot"] = np.int16(warp["hw_slot"])
        warp["at_barrier"] = np.bool_(warp["at_barrier"])

    assert digest(*_edited(args, widen)) == digest(*args)
    launch_index, launch_cycles, state = args
    assert digest(np.int64(launch_index),
                  [np.int64(c) for c in launch_cycles], state) \
        == digest(*args)


@pytest.mark.parametrize("isa", ISAS)
def test_object_identity_does_not_matter(digest, isa):
    """Equal values digest alike however the objects are shared."""
    args = _image(isa)
    big = 10 ** 12

    def shared(state):
        state["chip_cycle"] = big
        _core(state)["time"] = big

    def distinct(state):
        state["chip_cycle"] = int(str(big))
        _core(state)["time"] = int(str(big))
        control = _core(state)["control"]
        _core(state)["control"] = {"".join(list(name)): bank
                                   for name, bank in control.items()}

    assert digest(*_edited(args, shared)) == digest(*_edited(args, distinct))


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("bad", [1.5, "3", None, object()])
def test_unsupported_value_type_raises(digest, isa, bad):
    args = _image(isa)
    for edit in (lambda s: s.update(chip_cycle=bad),
                 lambda s: _warp(s).update(hw_slot=bad),
                 lambda s: _core(s)["free_reg_slots"].append(bad)):
        with pytest.raises(TypeError):
            digest(*_edited(args, edit))


@pytest.mark.parametrize("isa", ISAS)
def test_unsupported_array_raises(digest, isa):
    """Arrays must be C-contiguous ndarrays: nothing is copied silently."""
    args = _image(isa)
    for edit in (lambda s: s["mem"].update(words=[0, 1]),
                 lambda s: s["mem"].update(words=s["mem"]["words"][::2])):
        with pytest.raises(TypeError):
            digest(*_edited(args, edit))


@pytest.mark.parametrize("isa", ISAS)
def test_unknown_field_raises(digest, isa):
    args = _image(isa)
    with pytest.raises(TypeError, match="core image"):
        digest(*_edited(args, lambda s: _core(s).update(extra=0)))
    with pytest.raises(TypeError, match="warp image|wavefront image"):
        digest(*_edited(args, lambda s: _warp(s).update(extra=0)))
