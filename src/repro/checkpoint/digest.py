"""Canonical architectural-state digests.

The early-exit convergence check (:mod:`repro.checkpoint.convergence`)
classifies a transient injection MASKED the moment the faulty machine
state becomes indistinguishable from the golden one: from equal full
machine state, deterministic simulation evolves identically, so the
outputs and the final cycle count are provably those of the golden run.

"Equal" is decided by a SHA-256 digest over a canonical encoding of the
plain-data machine image :meth:`repro.sim.gpu.Gpu.snapshot_state`
produces (plus the workload-level launch progress). The encoding is
flat — one pass over the image yields a few byte strings:

* the *skeleton*: one nested tuple holding every scalar, list and
  tuple field in a fixed key order (integers through
  :func:`operator.index`, flags through :func:`bool`, so numpy and
  Python values encode alike), each stuck-at overlay dict as sorted
  items, each live storage range, and each array's dtype and shape —
  serialised with :func:`marshal.dumps` (a fraction of ``repr``'s cost
  for the same tuple);
* the array contents as raw buffers, in skeleton order: global-memory
  words, the live register-file and local-memory slices (zero-padded
  where they run past the image's written prefix), and each warp's
  predicates (SASS) or scalar registers (SI).

The skeleton fixes every buffer's length, so the stream is
unambiguous. It depends on values only, never on object identity, so
it is stable within and across processes of one Python version; no
digest is stored or joins a fingerprint, so the encoding is free to
change between versions. Every image dict
must carry exactly the fields the encoder knows: a field added to a
``snapshot_state`` without being encoded here raises instead of
silently escaping the comparison.

Per-core ``instructions_issued`` is excluded: a faulty run that took a
different control-flow path and then re-converged may have executed a
different number of instructions, and the counter influences nothing
downstream of the convergence point.

Dead storage is canonicalised away, guided by the ``live_reg``/
``live_lmem`` hints each core image carries: register and
local-memory words outside every resident block's allocation are
cleared at the next block allocation before any access, so corruption
orphaned there (the typical fate of a masked live fault once its block
retires) cannot influence the future and must not block convergence.
Only the live slices are hashed, together with their ranges — which
determines the zero-filled image uniquely, since block allocations
are disjoint.
"""

from __future__ import annotations

import hashlib
import marshal
from operator import index, itemgetter

import numpy as np

#: Skeleton serialisation format. Version 2 is the newest that encodes
#: by value alone: from version 3 on, marshal writes back-references
#: to objects it has already seen and tags interned strings, so equal
#: skeletons built from differently shared objects would differ.
_MARSHAL_VERSION = 2


def _fields(what: str, *keys: str):
    """Accessor for one kind of image dict: its values at ``keys``.

    The dict must have exactly those keys (a missing one raises
    ``KeyError``, an extra one ``TypeError``).
    """
    get = itemgetter(*keys)

    def fields(state: dict) -> tuple:
        if len(state) != len(keys):
            raise TypeError(f"cannot canonically hash a {what} with "
                            f"fields {sorted(state)}")
        return get(state)

    return fields


_gpu_fields = _fields("machine image", "chip_cycle", "launches_run", "mem",
                      "active", "cores")
_mem_fields = _fields("global memory image", "words", "next", "buffers")
_active_fields = _fields("launch image", "start", "pending", "heap")
_core_fields = _fields(
    "core image", "time", "issue_free", "last_issued", "blocks_retired",
    "warp_counter", "free_reg_slots", "free_lmem_slots", "free_warp_slots",
    "regfile", "live_reg", "lmem", "live_lmem", "control", "blocks",
    "instructions_issued")
_storage_fields = _fields("storage image", "data", "num_words", "forced")
_block_fields = _fields("block image", "linear_id", "index", "reg_base_row",
                        "lmem_base", "unfinished", "warps")
_bank_fields = _fields("control bank image", "forced")
#: Integer fields common to SASS warp and SI wavefront images.
_WARP_INTS = ("wid", "lane_offset", "nlanes", "reg_base_row", "hw_slot",
              "ready_cycle", "last_issue", "barrier_arrival")
_sass_fields = _fields("SASS warp image", *_WARP_INTS, "at_barrier",
                       "stack", "preds")
_si_fields = _fields("SI wavefront image", *_WARP_INTS, "at_barrier", "pc",
                     "valid_mask", "exec_mask", "vcc", "scc", "finished",
                     "sgprs")


def _ints(values) -> tuple:
    return tuple(map(index, values))


def _unhashable(value) -> TypeError:
    return TypeError(f"cannot canonically hash {type(value).__name__}")


def _text(value) -> str:
    if type(value) is not str:
        raise _unhashable(value)
    return value


def _array(array, buffers: list) -> tuple:
    """Queue an array's bytes; its skeleton entry is dtype and shape.

    Snapshot arrays are C-contiguous; the final ``bytes.join`` rejects
    any other array with ``TypeError`` rather than copying it.
    """
    if not isinstance(array, np.ndarray):
        raise _unhashable(array)
    buffers.append(array)
    return array.dtype.str, array.shape


def _forced(overlay: dict) -> tuple:
    """A stuck-at overlay table ``{word: (and_mask, or_mask)}``, sorted."""
    return tuple(sorted((index(word), _ints(masks))
                        for word, masks in overlay.items()))


def _storage(storage: dict, live: list, buffers: list) -> tuple:
    """A register file or local memory: its live slices only.

    The image holds only the storage's written prefix (the words past
    it are zero), so a live slice running past the prefix is padded
    with zero bytes, and the skeleton records the full word count:
    the stream is the one the whole array would give.
    """
    data, num_words, forced = _storage_fields(storage)
    if not isinstance(data, np.ndarray):
        raise _unhashable(data)
    ranges = tuple((index(start), index(nwords)) for start, nwords in live)
    for start, nwords in ranges:
        stop = start + nwords
        buffers.append(data[start:stop])
        if stop > data.size:
            buffers.append(bytes((stop - max(start, data.size))
                                 * data.itemsize))
    return data.dtype.str, (index(num_words),), _forced(forced), ranges


def _warp(warp: dict, buffers: list) -> tuple:
    if "stack" in warp:
        *ints, at_barrier, stack, preds = _sass_fields(warp)
        return (_ints(ints), bool(at_barrier),
                tuple(_ints(entry) for entry in stack),
                _array(preds, buffers))
    (*ints, at_barrier, pc, valid_mask, exec_mask, vcc, scc, finished,
     sgprs) = _si_fields(warp)
    return (_ints(ints), bool(at_barrier),
            _ints((pc, valid_mask, exec_mask, vcc)), bool(scc),
            bool(finished), _array(sgprs, buffers))


def _block(block: dict, buffers: list) -> tuple:
    (linear_id, block_index, reg_base_row, lmem_base, unfinished,
     warps) = _block_fields(block)
    return (_ints((linear_id, reg_base_row, lmem_base, unfinished)),
            _ints(block_index),
            tuple(_warp(warp, buffers) for warp in warps))


def _core(core: dict, buffers: list) -> tuple:
    (*scalars, free_reg, free_lmem, free_warp, regfile, live_reg, lmem,
     live_lmem, control, blocks, _issued) = _core_fields(core)
    return (_ints(scalars), _ints(free_reg), _ints(free_lmem),
            _ints(free_warp),
            _storage(regfile, live_reg, buffers),
            _storage(lmem, live_lmem, buffers),
            tuple(sorted((_text(name), _forced(_bank_fields(bank)))
                         for name, bank in control.items())),
            tuple(_block(block, buffers) for block in blocks))


def _stream(launch_index: int, launch_cycles: list, state: dict) -> bytes:
    """The canonical byte stream of one machine image + launch progress."""
    chip_cycle, launches_run, mem, active, cores = _gpu_fields(state)
    words, mem_next, mem_buffers = _mem_fields(mem)
    buffers: list = []
    if active is not None:
        start, pending, heap = _active_fields(active)
        active = (index(start),
                  tuple((index(lin), _ints(idx)) for lin, idx in pending),
                  tuple(_ints(entry) for entry in heap))
    skeleton = (
        index(launch_index), _ints(launch_cycles),
        index(chip_cycle), index(launches_run), index(mem_next),
        tuple((_text(name), index(base), index(nbytes))
              for name, base, nbytes in mem_buffers),
        _array(words, buffers),
        active,
        tuple(_core(core, buffers) for core in cores),
    )
    return b"".join([marshal.dumps(skeleton, _MARSHAL_VERSION), *buffers])


def digest_machine(launch_index: int, launch_cycles: list,
                   state: dict) -> str:
    """SHA-256 hex digest of one machine image + launch progress."""
    return hashlib.sha256(
        _stream(launch_index, launch_cycles, state)).hexdigest()


def digest_machine_pair(launch_index: int, launch_cycles: list,
                        state: dict) -> tuple[str, str]:
    """(primary, secondary) digests of one machine image, one pass.

    The primary is byte-identical to :func:`digest_machine` (SHA-256
    over the same canonical stream), so it stays comparable with the
    golden capture points. The secondary (BLAKE2b-128 over the same
    stream) is an independent hash family used by the suffix memo
    (:mod:`repro.checkpoint.memo`) to verify lookups: reusing a
    memoized outcome requires *both* digests to match, so a primary
    collision alone can never misclassify an injection.
    """
    stream = _stream(launch_index, launch_cycles, state)
    return (hashlib.sha256(stream).hexdigest(),
            hashlib.blake2b(stream, digest_size=16).hexdigest())
